"""Leakage observability (paper Section 3.C, after Johnson et al. [15]).

For a line ``i``, the leakage observability is::

    L_obs(i) = L_avg(i, 1) - L_avg(i, 0)

the difference between the average total leakage with the line at 1 versus
at 0.  A large positive value means driving (or justifying) the line to 1
is expensive in leakage; the paper uses the attribute as the tie-breaking
*directive* for every decision in its transition-blocking search, extended
from primary inputs (as in [15]) to **all** circuit lines.

Two estimators:

* :func:`monte_carlo_observability` — one packed random simulation;
  ``L_avg(i, v)`` is estimated as the *conditional* mean leakage over
  samples where line ``i`` happens to equal ``v``.  This yields the
  attribute for every line of the circuit in one pass, which is exactly
  what the paper's extension needs.  (For primary inputs, conditioning
  and forcing coincide by independence.)
* :func:`forced_observability` — the literal forcing semantics of [15]
  for controllable lines: resample with the line pinned to 1 and to 0.
  Used to validate the Monte-Carlo estimator and in ablations.

Lines that never take one of the two values in the sample get
observability 0 (no information — neutral for the directive's argmin /
argmax use).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cells.library import CellLibrary, default_library
from repro.leakage.estimator import per_sample_leakage, state_sample_leakage
from repro.netlist.circuit import Circuit
from repro.simulation.backends import simulate_state
from repro.simulation.bitsim import random_input_words
from repro.simulation.eval2 import comb_input_lines
from repro.utils.rng import make_rng

__all__ = ["monte_carlo_observability", "forced_observability"]


def monte_carlo_observability(circuit: Circuit, n_samples: int = 512,
                              seed: int | np.random.Generator | None = 0,
                              library: CellLibrary | None = None
                              ) -> dict[str, float]:
    """Leakage observability for **every** line, by conditional means.

    One packed simulation of ``n_samples`` uniform random input vectors;
    per line, the mean leakage over samples at 1 minus the mean over
    samples at 0.
    """
    library = library or default_library()
    rng = make_rng(seed)
    input_words = random_input_words(circuit, n_samples, rng)
    state = simulate_state(circuit, input_words, n_samples)
    totals = state_sample_leakage(state, circuit, library)

    observability: dict[str, float] = {}
    for line in state.lines():
        ones = state.bools(line)
        n_ones = int(ones.sum())
        if n_ones == 0 or n_ones == n_samples:
            observability[line] = 0.0
            continue
        avg_one = float(totals[ones].mean())
        avg_zero = float(totals[~ones].mean())
        observability[line] = avg_one - avg_zero
    return observability


def forced_observability(circuit: Circuit,
                         lines: Sequence[str] | None = None,
                         n_samples: int = 256,
                         seed: int | np.random.Generator | None = 0,
                         library: CellLibrary | None = None
                         ) -> dict[str, float]:
    """Forcing-semantics observability for controllable input lines.

    For each requested line (default: all combinational inputs), sample
    the other inputs uniformly and compare the mean leakage with the line
    pinned to 1 versus pinned to 0 — the literal ``L_avg(i, v)`` of [15].
    The *same* random words are reused for both polarities (common random
    numbers), which makes the difference estimator much tighter.
    """
    library = library or default_library()
    controllable = comb_input_lines(circuit)
    if lines is None:
        lines = controllable
    unknown = set(lines) - set(controllable)
    if unknown:
        raise ValueError(
            f"forced_observability only supports input lines; "
            f"got {sorted(unknown)}")

    rng = make_rng(seed)
    base_words = random_input_words(circuit, n_samples, rng)
    full = (1 << n_samples) - 1

    observability: dict[str, float] = {}
    for line in lines:
        words_one = dict(base_words)
        words_one[line] = full
        words_zero = dict(base_words)
        words_zero[line] = 0
        leak_one = per_sample_leakage(
            circuit, words_one, n_samples, library).mean()
        leak_zero = per_sample_leakage(
            circuit, words_zero, n_samples, library).mean()
        observability[line] = float(leak_one - leak_zero)
    return observability
