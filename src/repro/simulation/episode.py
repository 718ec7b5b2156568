"""Episode planning: whole-test-set scan replay as one stimulus matrix.

The paper's Table I / Figure 2 measurements replay scan *episodes*: per
test vector, ``L`` shift cycles (the previous response shifts out while
the next vector shifts in) followed by one capture cycle.  Assembling
those waveforms with per-vector, per-cycle, per-line Python loops and
one :func:`~repro.scan.testview.ScanDesign.capture` simulation per
vector would leave the replay dominated by Python loop overhead
instead of the packed simulation itself.

This module compiles a :class:`~repro.scan.testview.ScanDesign` plus a
full test set into a single :class:`EpisodePlan`:

* all capture responses are computed in **one** packed simulation
  (``n_vectors`` patterns) instead of one scalar simulation per vector;
* the intermediate chain states of every shift cycle are generated as
  one numpy tensor (the shift register is an index mapping, not a loop);
* every line's stimulus over the whole episode sequence is packed into
  one interchange word, episode-major, with per-episode offsets so
  consumers can slice any vector's segment back out.

``Backend.simulate_episode_batch(plan)`` then evaluates the whole test
set's replay in a single resident backend pass (on the big-int engine
one fused pass over the row table) and returns an
:class:`EpisodeBatchResult`.

Everything is bit-identical to that serial per-episode loop, which is
kept as a test oracle (``tests/power/episode_reference.py``): the
plan's packed words equal the loop-built waveforms bit for bit, so
transitions, leakage sums and every derived power metric follow.  The
differential property tests in ``tests/properties`` pin this on
random designs and test sets.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ScanError
from repro.netlist.circuit import Circuit
from repro.obs.trace import traced

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.scan.testview import ScanDesign, TestVector
    from repro.simulation.backends import Backend

__all__ = [
    "EpisodePlan",
    "EpisodeBatchResult",
    "check_pi_values",
    "compile_episode_plan",
]


def episode_batching_enabled(flag: bool | None = None) -> bool:
    """Always ``True``: the batched engine is the only replay path.

    Kept only because ``perfbench/workloads.py`` (``resolved_runtime``)
    imports it to record the resolved engines; it reads neither the
    environment nor the session.
    """
    return True


def check_pi_values(inputs: Sequence[str],
                    vectors: "Sequence[TestVector]",
                    pi_values: Mapping[str, int] | None) -> None:
    """Reject PI drive a waveform builder cannot honour.

    Raises :class:`~repro.errors.ScanError` for shift-policy PI values
    on lines that are not primary inputs (mirroring the mux-tie check),
    for policy values other than 0/1, and for a test vector that has no
    value for one of the primary ``inputs``.
    """
    if pi_values:
        unknown = set(pi_values) - set(inputs)
        if unknown:
            raise ScanError(
                f"policy PI values on unknown inputs: {sorted(unknown)}")
        for name, value in pi_values.items():
            if value not in (0, 1):
                raise ScanError(f"policy PI value for {name!r} must be 0/1")
    for index, vector in enumerate(vectors):
        for pi in inputs:
            if pi not in vector.pi_values:
                raise ScanError(
                    f"test vector {index} has no value for primary "
                    f"input {pi!r}")


@dataclasses.dataclass(frozen=True)
class EpisodePlan:
    """A whole test set's scan replay as one packed stimulus.

    Attributes
    ----------
    circuit:
        The circuit the stimulus drives (combinational part).
    waveforms:
        Per-line packed interchange words covering every episode's
        cycles back to back — bit-identical to the serial per-episode
        waveform builder's output.
    n_cycles:
        Total cycle count over all episodes.
    offsets:
        Start cycle of each episode (one per test vector).
    lengths:
        Cycle count of each episode (chain length, plus one when the
        capture cycle is included).
    """

    circuit: Circuit
    waveforms: dict[str, int]
    n_cycles: int
    offsets: tuple[int, ...]
    lengths: tuple[int, ...]

    @property
    def n_episodes(self) -> int:
        return len(self.offsets)

    def episode_bounds(self) -> list[tuple[int, int]]:
        """``[start, stop)`` cycle range of every episode."""
        return [(start, start + length)
                for start, length in zip(self.offsets, self.lengths)]


@dataclasses.dataclass
class EpisodeBatchResult:
    """Outcome of one batched episode simulation.

    Mirrors :class:`~repro.simulation.cyclesim.CycleSimResult` (same
    accounting, same float semantics) plus the episode geometry so
    consumers can slice per-vector segments out of the batch.
    """

    n_cycles: int
    transitions: dict[str, int]
    leakage_sum_na: dict[str, float]
    offsets: tuple[int, ...]
    lengths: tuple[int, ...]
    waveforms: dict[str, int] | None = None

    @property
    def total_transitions(self) -> int:
        """Sum of transitions over all lines."""
        return sum(self.transitions.values())

    @property
    def mean_leakage_na(self) -> float:
        """Average total leakage current (nA) over all cycles."""
        if self.n_cycles == 0:
            return 0.0
        return sum(self.leakage_sum_na.values()) / self.n_cycles


def _pack_word(bits: np.ndarray) -> int:
    """Pack a flat 0/1 array into one interchange word (bit 0 first)."""
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little")


def _bit_column(values: Sequence[int]) -> np.ndarray:
    return np.asarray(values, dtype=np.uint8)


@traced("plan.compile_episode")
def compile_episode_plan(design: "ScanDesign",
                         vectors: "Sequence[TestVector]", *,
                         pi_values: Mapping[str, int] | None = None,
                         mux_ties: Mapping[str, int] | None = None,
                         include_capture: bool = True,
                         initial_state: Sequence[int] | None = None,
                         backend: "str | Backend | None" = None
                         ) -> EpisodePlan:
    """Compile a design + test set into one :class:`EpisodePlan`.

    ``pi_values``/``mux_ties`` carry the shift policy (see
    :class:`~repro.power.scanpower.ShiftPolicy`): constants driven on
    primary inputs / muxed pseudo-inputs while shifting.  The capture
    responses feeding each next episode's shift-out are computed in one
    packed simulation on ``backend`` (resolved once).

    The packed words are bit-identical to the serial per-episode
    builder for every input; the shift protocol itself is generated
    from the chain's index mapping, whose "last state equals the
    vector" invariant holds by construction.
    """
    from repro.simulation.backends import resolve_backend

    circuit = design.circuit
    chain = design.chain
    if not vectors:
        raise ScanError("empty test set")
    mux_ties = dict(mux_ties or {})
    unknown_mux = set(mux_ties) - set(chain.q_lines)
    if unknown_mux:
        raise ScanError(f"mux ties on unknown cells: {sorted(unknown_mux)}")
    for name, value in mux_ties.items():
        if value not in (0, 1):
            raise ScanError(f"mux tie for {name!r} must be 0/1")
    check_pi_values(circuit.inputs, vectors, pi_values)

    n_vec = len(vectors)
    length = chain.length
    state0 = tuple(initial_state) if initial_state is not None \
        else (0,) * length
    if len(state0) != length:
        raise ScanError("initial state length mismatch")
    if any(bit not in (0, 1) for bit in state0):
        raise ScanError("initial state bits must be 0/1")

    scan_matrix = np.empty((n_vec, length), dtype=np.uint8)
    for i, vector in enumerate(vectors):
        if len(vector.scan_state) != length:
            raise ScanError("test vector scan state length mismatch")
        scan_matrix[i] = vector.scan_state

    # Capture responses of all vectors in one packed pass; episode i's
    # shift-out state is the response captured from vector i - 1.
    prev = np.empty((n_vec, length), dtype=np.uint8)
    prev[0] = state0
    if n_vec > 1:
        engine = resolve_backend(backend)
        capture_words = {
            pi: _pack_word(_bit_column([v.pi_values[pi] for v in vectors]))
            for pi in circuit.inputs
        }
        for position, q_line in enumerate(chain.q_lines):
            capture_words[q_line] = _pack_word(scan_matrix[:, position])
        state = engine.run(circuit, capture_words, n_vec)
        for position, d_line in enumerate(chain.d_lines):
            prev[1:, position] = state.bools(d_line)[:-1]

    # Chain state after shift t (1-based) of episode i, cell position p:
    # the low t positions hold the vector's tail, the rest the previous
    # response still shifting out.  With j = t - 1:
    #   state[p] = vector[length - 1 - j + p]  when j >= p
    #   state[p] = prev[p - j - 1]             when j <  p
    # so cell p's shift cycles read prev[p - 1 .. 0] and then
    # vector[length - 1 .. p]: two reversed slices, written one cell at
    # a time so the working set stays O(n_vec x length).
    per_episode = length + (1 if include_capture else 0)
    waveforms: dict[str, int] = {}
    for pi in circuit.inputs:
        test_bits = _bit_column([v.pi_values[pi] for v in vectors])
        if pi_values is not None and pi in pi_values:
            shift_value = np.full(n_vec, pi_values[pi], dtype=np.uint8)
        else:
            shift_value = test_bits
        bits = np.empty((n_vec, per_episode), dtype=np.uint8)
        bits[:, :length] = shift_value[:, None]
        if include_capture:
            bits[:, length] = test_bits
        waveforms[pi] = _pack_word(bits.reshape(-1))
    for p, cell in enumerate(chain.cells):
        tie = mux_ties.get(cell.q)
        bits = np.empty((n_vec, per_episode), dtype=np.uint8)
        if tie is not None:
            bits[:, :length] = tie
        else:
            bits[:, :p] = prev[:, :p][:, ::-1]
            bits[:, p:length] = scan_matrix[:, p:][:, ::-1]
        if include_capture:
            bits[:, length] = scan_matrix[:, p]
        waveforms[cell.q] = _pack_word(bits.reshape(-1))

    return EpisodePlan(
        circuit=circuit,
        waveforms=waveforms,
        n_cycles=n_vec * per_episode,
        offsets=tuple(range(0, n_vec * per_episode, per_episode)),
        lengths=(per_episode,) * n_vec,
    )
