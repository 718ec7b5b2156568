"""Input vector control: minimum-leakage vector search (refs [14], [15]).

The paper fills the controlled inputs left unassigned by the
transition-blocking search with a minimum-leakage completion found by
random search: "The appropriate values for these don't care inputs ...
can be found by applying several random inputs and examining the total
leakage for each of them.  The number of the required simulations is far
less than the total possible vectors [14]."

:func:`random_fill_search` implements exactly that (packed: all trials are
simulated in one pass); :func:`greedy_bit_improvement` is an optional
hill-climbing refinement used by the ablation benches.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

import numpy as np

from repro.cells.library import CellLibrary, default_library
from repro.errors import ConfigError
from repro.leakage.estimator import per_sample_leakage
from repro.netlist.circuit import Circuit
from repro.simulation.eval2 import comb_input_lines
from repro.simulation.values import mask
from repro.utils.rng import make_rng

__all__ = ["IvcResult", "random_fill_search", "greedy_bit_improvement"]


@dataclasses.dataclass(frozen=True)
class IvcResult:
    """Outcome of a minimum-leakage vector search.

    ``assignment`` maps every free line to its chosen value; ``leakage_na``
    is the full-circuit leakage of the winning completion; ``trials`` is
    the number of candidate vectors examined.
    """

    assignment: dict[str, int]
    leakage_na: float
    trials: int


def _packed_fixed_words(fixed: Mapping[str, int], n: int) -> dict[str, int]:
    full = mask(n)
    words: dict[str, int] = {}
    for line, value in fixed.items():
        if value not in (0, 1):
            raise ConfigError(f"fixed value for {line!r} must be 0/1")
        words[line] = full if value else 0
    return words


def random_fill_search(circuit: Circuit, fixed: Mapping[str, int],
                       free_lines: Sequence[str], n_trials: int = 64,
                       seed: int | np.random.Generator | None = 0,
                       library: CellLibrary | None = None,
                       noise_lines: Sequence[str] = (),
                       n_noise: int = 1) -> IvcResult:
    """Random search for the lowest-leakage completion of ``free_lines``.

    ``fixed`` assigns the already-decided combinational inputs; every
    combinational input must be in exactly one of the three groups
    (fixed / free / noise).  All candidates are evaluated in a single
    packed simulation.

    ``noise_lines`` model inputs that keep toggling regardless of the
    chosen completion (the non-multiplexed pseudo-inputs during shift):
    every trial is scored by its **mean** leakage over ``n_noise``
    independent random states of the noise lines.
    """
    library = library or default_library()
    inputs = comb_input_lines(circuit)
    groups = [set(fixed), set(free_lines), set(noise_lines)]
    declared: set[str] = set()
    for group in groups:
        overlap = declared & group
        if overlap:
            raise ConfigError(
                f"inputs in more than one group: {sorted(overlap)}")
        declared |= group
    missing = set(inputs) - declared
    if missing:
        raise ConfigError(f"inputs unaccounted for: {sorted(missing)}")
    if n_trials < 1 or n_noise < 1:
        raise ConfigError("n_trials and n_noise must be >= 1")

    rng = make_rng(seed)
    n_samples = n_trials * n_noise
    full = mask(n_samples)
    n_bytes = (n_samples + 7) // 8
    words = _packed_fixed_words(fixed, n_samples)
    for line in noise_lines:
        words[line] = int.from_bytes(rng.bytes(n_bytes), "little") & full

    if not free_lines:
        leaks = per_sample_leakage(circuit, words, n_samples, library)
        return IvcResult(assignment={},
                         leakage_na=float(leaks.mean()),
                         trials=0)

    block = mask(n_noise)  # one trial's samples share the free values
    free_words: dict[str, int] = {}
    trial_bits: dict[str, int] = {}
    for line in free_lines:
        bits = int.from_bytes(rng.bytes((n_trials + 7) // 8), "little") \
            & mask(n_trials)
        trial_bits[line] = bits
        word = 0
        for t in range(n_trials):
            if (bits >> t) & 1:
                word |= block << (t * n_noise)
        free_words[line] = word
        words[line] = word

    leaks = per_sample_leakage(circuit, words, n_samples, library)
    per_trial = leaks.reshape(n_trials, n_noise).mean(axis=1)
    best = int(np.argmin(per_trial))
    assignment = {
        line: (trial_bits[line] >> best) & 1 for line in free_lines
    }
    return IvcResult(assignment=assignment,
                     leakage_na=float(per_trial[best]),
                     trials=n_trials)


def greedy_bit_improvement(circuit: Circuit, fixed: Mapping[str, int],
                           start: Mapping[str, int],
                           max_rounds: int = 4,
                           library: CellLibrary | None = None
                           ) -> IvcResult:
    """Coordinate-descent refinement of a completion.

    Repeatedly flips single free bits, keeping flips that lower leakage,
    until a fixed point or ``max_rounds``.  Each round evaluates all
    candidate flips in one packed simulation of ``len(start)+1`` samples.
    """
    library = library or default_library()
    current = dict(start)
    free_lines = list(current)
    trials = 0
    for _ in range(max_rounds):
        n = len(free_lines) + 1
        full = mask(n)
        words = _packed_fixed_words(fixed, n)
        for i, line in enumerate(free_lines):
            base = full if current[line] else 0
            # Sample 0 is the incumbent; sample i+1 flips line i.
            words[line] = base ^ (1 << (i + 1))
        leaks = per_sample_leakage(circuit, words, n, library)
        trials += n
        best = int(np.argmin(leaks))
        if best == 0:
            return IvcResult(dict(current), float(leaks[0]), trials)
        flipped = free_lines[best - 1]
        current[flipped] ^= 1
    n = 1
    words = _packed_fixed_words(fixed, n)
    for line, value in current.items():
        words[line] = mask(1) if value else 0
    leak = per_sample_leakage(circuit, words, 1, library)[0]
    return IvcResult(dict(current), float(leak), trials)
