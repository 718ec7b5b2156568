"""Backend protocol for bit-parallel packed simulation.

A *backend* owns the hot loop of two-valued packed simulation.  Its
``run`` method evaluates a circuit's combinational part over ``n`` packed
patterns and returns a :class:`SimState` — a handle over the settled
waveform of every line that can answer the downstream questions the
power/leakage/ATPG layers ask (packed words, per-line transition counts,
per-gate leakage sums, per-sample boolean views).

The *interchange format* is backend-agnostic: a packed word is a Python
big-int whose bit ``t`` is the line's value in pattern ``t``, exactly as
produced by :func:`repro.simulation.bitsim.simulate_packed`.  Every
backend must return bit-identical words (and IEEE-identical derived
floats) for the same stimulus, which the differential property tests in
``tests/properties`` enforce.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cells.library import CellLibrary
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.obs.trace import span
from repro.simulation.values import mask, minterm_counts

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.atpg.faults import Fault
    from repro.atpg.faultsim import FaultSimResult
    from repro.simulation.episode import EpisodeBatchResult, EpisodePlan
    from repro.simulation.fault_episode import FaultEpisodePlan

__all__ = ["Backend", "SimState", "require_input_word",
           "require_pattern_mask"]


def require_pattern_mask(n: int) -> int:
    """The ``n``-bit all-ones mask of an ``n``-pattern simulation.

    Shared by all backends: a negative ``n`` raises
    :class:`~repro.errors.SimulationError` (``n = 0`` is a legal, empty
    simulation).
    """
    if n < 0:
        raise SimulationError(
            f"packed simulation needs n >= 0 patterns, got {n}")
    return mask(n)


def require_input_word(input_words: Mapping[str, int], line: str,
                       full: int, n: int) -> int:
    """Fetch and range-check one packed input word.

    Shared by all backends so error behaviour (and messages) cannot
    drift between them.
    """
    try:
        word = input_words[line]
    except KeyError:
        raise SimulationError(
            f"missing packed input for line {line!r}") from None
    if word < 0 or word > full:
        raise SimulationError(
            f"line {line!r}: word out of range for {n} patterns")
    return word


class SimState(abc.ABC):
    """The settled waveforms of one packed simulation.

    Concrete states keep the waveforms in whatever layout their backend
    computes fastest (big-int words, a ``uint64`` matrix, ...) and
    materialize the derived quantities on demand.
    """

    def __init__(self, circuit: Circuit, n: int):
        self.circuit = circuit
        self.n = n
        self._bool_cache: dict[str, np.ndarray] = {}

    @abc.abstractmethod
    def lines(self) -> Sequence[str]:
        """Every simulated line: combinational inputs, then gate outputs."""

    @abc.abstractmethod
    def word(self, line: str) -> int:
        """The packed big-int waveform of one line."""

    @abc.abstractmethod
    def words(self) -> dict[str, int]:
        """Packed big-int waveforms of all lines (interchange format)."""

    @abc.abstractmethod
    def transitions(self) -> dict[str, int]:
        """Per-line count of value changes between consecutive patterns."""

    @abc.abstractmethod
    def leakage_sum(self, library: CellLibrary) -> dict[str, float]:
        """Per-gate-output leakage (nA) summed over all patterns.

        Entry order is topological; every backend must accumulate each
        gate's sum over the library table's pattern order so the floats
        agree bit-for-bit across backends.
        """

    def pattern_counts(self) -> dict[str, np.ndarray]:
        """Exact per-gate pattern counts over all simulated patterns.

        Entry ``counts[line][code]`` is the number of patterns on which
        the gate driving ``line`` sees the input bit-pattern ``code``
        (pin ``j`` = bit ``j`` of the code), as an ``int64`` array of
        length ``2**arity``.  Keys are the combinational gate outputs
        in topological order.  Counts are integers, so they merge
        exactly across streamed cycle windows; pricing merged counts with
        the leakage tables reproduces :meth:`leakage_sum` bit for bit
        (see :func:`repro.leakage.estimator.leakage_from_pattern_counts`).
        """
        full = mask(self.n)
        counts: dict[str, np.ndarray] = {}
        for line in self.circuit.topo_order():
            in_words = [self.word(src)
                        for src in self.circuit.gates[line].inputs]
            counts[line] = np.array(minterm_counts(in_words, self.n, full),
                                    dtype=np.int64)
        return counts

    def bools(self, line: str) -> np.ndarray:
        """The line's waveform as a length-``n`` boolean array (cached)."""
        cached = self._bool_cache.get(line)
        if cached is None:
            cached = self._unpack_bools(line)
            self._bool_cache[line] = cached
        return cached

    @abc.abstractmethod
    def _unpack_bools(self, line: str) -> np.ndarray:
        """Uncached boolean unpacking of one line."""


class Backend(abc.ABC):
    """A packed-simulation engine.

    Attributes
    ----------
    name:
        Registry key (``"bigint"``, ``"numpy"``, ...).
    """

    name: str = ""

    @abc.abstractmethod
    def run(self, circuit: Circuit, input_words: Mapping[str, int],
            n: int) -> SimState:
        """Simulate ``n`` packed patterns; see :class:`SimState`."""

    @abc.abstractmethod
    def eval_gate_packed(self, gtype: GateType, words: Sequence[int],
                         n: int) -> int:
        """Evaluate one gate over ``n``-bit packed input words.

        ``words`` must have their bits above position ``n - 1`` clear;
        the result is again an ``n``-bit packed word.  Degenerate arities
        follow the big-int reference: an empty ``words`` yields the
        reduction identity (all-ones for AND/XNOR/NOR after inversion
        rules, zero for OR/XOR/NAND).
        """

    def simulate_packed(self, circuit: Circuit,
                        input_words: Mapping[str, int],
                        n: int) -> dict[str, int]:
        """Convenience: run and return interchange words for all lines."""
        return self.run(circuit, input_words, n).words()

    def simulate_episode_batch(self, plan: "EpisodePlan",
                               library: CellLibrary | None = None,
                               collect_leakage: bool = True,
                               keep_waveforms: bool = False,
                               stream_budget: int | None = None
                               ) -> "EpisodeBatchResult":
        """Evaluate a whole test set's scan replay in one pass.

        ``plan`` is a compiled :class:`~repro.simulation.episode.
        EpisodePlan` (all episodes' cycles packed back to back).  When a
        ``stream_budget`` resolves (argument > session default >
        ``$REPRO_STREAM_BUDGET``) and the plan's resident state matrix
        would exceed it, evaluation streams cycle windows instead of
        materializing the matrix — out-of-core, bounded peak memory,
        bit-identical; see :mod:`repro.simulation.streaming`.

        Otherwise the whole plan is replayed resident by
        :meth:`_episode_batch`.  Its default implementation runs the
        plan's stimulus through :meth:`run` as a single packed
        simulation (on the numpy engine one ``uint64``-matrix pass over
        the levelized fused-AND schedule) and derives transitions /
        leakage sums exactly as
        :func:`~repro.simulation.cyclesim.simulate_cycles` would.  The
        big-int engine overrides it with one fused pass that prices
        every row as soon as its word settles and frees each word after
        its last reader, so without ``keep_waveforms`` only the live cut
        of the topological order is resident, not every line.
        """
        from repro.cells.library import default_library
        from repro.simulation.streaming import (
            resolve_stream_budget,
            stream_episode_batch,
        )
        budget = resolve_stream_budget(stream_budget)
        if budget is not None and plan.state_elements() > budget:
            return stream_episode_batch(self, plan, library,
                                        collect_leakage, keep_waveforms,
                                        budget)
        library = library or default_library()
        with span("sim.episode_batch", backend=self.name,
                  cycles=plan.n_cycles):
            return self._episode_batch(plan, library, collect_leakage,
                                       keep_waveforms)

    def _episode_batch(self, plan: "EpisodePlan", library: CellLibrary,
                       collect_leakage: bool, keep_waveforms: bool
                       ) -> "EpisodeBatchResult":
        """Resident replay of ``plan``: one :meth:`run` and its state."""
        from repro.simulation.episode import EpisodeBatchResult
        state = self.run(plan.circuit, plan.waveforms, plan.n_cycles)
        return EpisodeBatchResult(
            n_cycles=plan.n_cycles,
            transitions=state.transitions(),
            leakage_sum_na=state.leakage_sum(library)
            if collect_leakage else {},
            offsets=plan.offsets,
            lengths=plan.lengths,
            waveforms=state.words() if keep_waveforms else None,
        )

    def fault_simulate_batch(self, circuit: Circuit,
                             faults: "Sequence[Fault]",
                             input_words: Mapping[str, int], n: int,
                             drop: bool = True) -> "FaultSimResult":
        """Simulate a stuck-at fault list against ``n`` packed patterns.

        The contract mirrors :func:`repro.atpg.faultsim.fault_simulate`:
        ``detected`` maps each detected fault to the packed word of *all*
        detecting patterns, ``remaining`` lists the undetected faults in
        input order, and both must be bit-identical across backends.

        Every engine runs the scalar big-int row-space replay here
        (fault-free pass on this backend, per-fault replay on
        interchange words).
        """
        from repro.atpg.faultsim import scalar_fault_simulate
        return scalar_fault_simulate(self, circuit, faults, input_words,
                                     n, drop=drop)

    def fault_simulate_plan(self, plan: "FaultEpisodePlan",
                            drop: bool = True,
                            stream_budget: int | None = None
                            ) -> "FaultSimResult":
        """Replay a compiled fault x pattern plan in one pass.

        ``plan`` is a :class:`~repro.simulation.fault_episode.
        FaultEpisodePlan` packing a whole fault universe against a whole
        pattern set.  The contract is exactly
        :meth:`fault_simulate_batch` on the plan's components —
        detection words record all detecting patterns, ``remaining``
        follows the plan's fault order, and results are bit-identical
        across engines.

        The replay is the scalar big-int row-space replay over the
        plan's **memoized** good-machine words (one fault-free pass per
        backend, shared across calls via the plan's state cache).

        When a ``stream_budget`` resolves and the plan's good-machine
        state would exceed it, evaluation streams word-aligned pattern
        windows instead of memoizing the full state (both drop modes —
        within one call dropping cannot change detection words); see
        :mod:`repro.simulation.streaming`.
        """
        from repro.atpg.faultsim import scalar_replay
        from repro.simulation.streaming import (
            resolve_stream_budget,
            stream_fault_plan,
        )
        budget = resolve_stream_budget(stream_budget)
        if budget is not None and plan.state_elements() > budget:
            return stream_fault_plan(self, plan, budget)
        with span("sim.fault_plan", backend=self.name,
                  faults=plan.n_faults, patterns=plan.n):
            return scalar_replay(plan.circuit, plan.faults,
                                 plan.good_words(self), plan.n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
