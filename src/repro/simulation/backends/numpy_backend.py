"""Vectorized NumPy backend: packed ``uint64`` waveform matrix.

Every line's waveform is one row of a ``(n_lines, n_words)`` ``uint64``
matrix — bit ``t`` of the row (little-endian across words) is the value
in pattern ``t``, the same packing as the big-int interchange words.  The
levelized schedule (:mod:`repro.simulation.schedule`) batches all gates
of one (level, type, arity) bucket into a single fancy-indexed array
operation, replacing the per-gate Python dispatch of the reference
engine.

Derived quantities are computed on the matrix without ever unpacking to
big ints:

* transitions — whole-matrix shift/xor + ``np.bitwise_count``;
* leakage sums — per (type, arity) group, one masked-AND popcount per
  leakage-table pattern, accumulated in the table's iteration order so
  the per-gate floats match the reference backend bit-for-bit.

The schedule evaluation itself lives in :mod:`repro.simulation.kernels`,
next to the tiled fault kernel it shares its gate evaluator with.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cells.library import CellLibrary
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.obs.trace import span
from repro.simulation.backends.base import (
    Backend,
    SimState,
    require_pattern_mask,
)
from repro.simulation.kernels import (
    eval_gate_rows,
    eval_schedule,
    initial_state,
    int_to_row,
    row_to_int,
)
from repro.simulation.schedule import LevelizedSchedule, cached_schedule
from repro.simulation.values import mask

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.atpg.faults import Fault
    from repro.atpg.faultsim import FaultSimResult
    from repro.simulation.fault_episode import FaultEpisodePlan

__all__ = ["NumpyBackend", "NumpyState"]

_U64 = np.dtype("<u8")
_ONE = np.uint64(1)
_SHIFT63 = np.uint64(63)

#: Per-byte popcount table for the NumPy < 2.0 fallback path.
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)],
                          dtype=np.uint8)


def _popcount_sum_fallback(arr: np.ndarray,
                           buf: np.ndarray | None = None) -> np.ndarray:
    """Bit count summed over the last axis, via a byte lookup table.

    Works on any NumPy; bit counts are byte-order independent, so the
    ``uint8`` reinterpretation is safe on either endianness.
    """
    as_bytes = np.ascontiguousarray(arr).view(np.uint8)
    return _BYTE_POPCOUNT[as_bytes].sum(axis=-1, dtype=np.int64)


if hasattr(np, "bitwise_count"):
    def _popcount_sum(arr: np.ndarray,
                      buf: np.ndarray | None = None) -> np.ndarray:
        """Bit count summed over the last axis (``np.bitwise_count``,
        NumPy >= 2.0); ``buf`` is an optional uint8 scratch of
        ``arr.shape``."""
        return np.bitwise_count(arr, out=buf).sum(axis=-1)
else:  # pragma: no cover - exercised only on NumPy 1.x installs
    _popcount_sum = _popcount_sum_fallback


class NumpyState(SimState):
    """Waveforms as rows of a packed ``uint64`` matrix."""

    def __init__(self, circuit: Circuit, n: int,
                 schedule: LevelizedSchedule, matrix: np.ndarray,
                 full_row: np.ndarray):
        super().__init__(circuit, n)
        self._schedule = schedule
        self._matrix = matrix
        self._full_row = full_row

    @property
    def matrix(self) -> np.ndarray:
        """The raw ``(n_lines, n_words)`` waveform matrix (read-only use)."""
        return self._matrix

    def lines(self) -> Sequence[str]:
        return self._schedule.lines

    def word(self, line: str) -> int:
        return row_to_int(self._matrix[self._schedule.line_index[line]])

    def words(self) -> dict[str, int]:
        matrix = self._matrix
        return {line: int.from_bytes(matrix[i].tobytes(), "little")
                for i, line in enumerate(self._schedule.lines)}

    def transitions(self) -> dict[str, int]:
        state = self._matrix[:len(self._schedule.lines)]
        n = self.n
        if n < 2 or state.shape[1] == 0:
            return dict.fromkeys(self._schedule.lines, 0)
        diff = np.empty_like(state)
        diff[:, :-1] = (state[:, :-1] >> _ONE) | (state[:, 1:] << _SHIFT63)
        diff[:, -1] = state[:, -1] >> _ONE
        diff ^= state
        # Only the tail word can hold bits at or above position n-1.
        diff[:, -1] &= np.uint64((mask(n - 1) >> (64 * (state.shape[1] - 1)))
                                 & 0xFFFFFFFFFFFFFFFF)
        counts = _popcount_sum(diff)
        return dict(zip(self._schedule.lines, counts.tolist()))

    def _pattern_counts(self, rows: np.ndarray) -> np.ndarray:
        """Exact per-gate cycle counts for every input pattern.

        ``rows`` is ``(arity, n_gates, n_words)``; the result is
        ``(2**arity, n_gates)`` int64, entry ``[p, g]`` the number of
        patterns on which gate ``g``'s inputs equal bit-pattern ``p``
        (pin ``j`` = bit ``j`` of ``p``).

        Computed as subset popcounts (AND-products shared along a prefix
        tree) followed by Möbius inversion over the subset lattice —
        integer-exact, so downstream float pricing matches the reference
        backend's per-pattern popcounts bit-for-bit.
        """
        arity, n_gates, n_words = rows.shape
        subsets = 1 << arity
        ones = np.empty((subsets, n_gates), dtype=np.int64)
        ones[0] = self.n
        prods: list[np.ndarray | None] = [None] * subsets
        pop = np.empty((n_gates, n_words), dtype=np.uint8)
        for m in range(1, subsets):
            low = m & -m
            if m == low:
                prods[m] = rows[low.bit_length() - 1]
            else:
                prods[m] = prods[m ^ low] & prods[low]
            ones[m] = _popcount_sum(prods[m], pop)
        # In-place superset Möbius inversion: afterwards ones[p] is the
        # count of cycles whose pattern is exactly p.
        lattice = ones.reshape((2,) * arity + (n_gates,))
        for axis in range(arity):
            zero = tuple(0 if i == axis else slice(None)
                         for i in range(arity))
            one = tuple(1 if i == axis else slice(None)
                        for i in range(arity))
            lattice[zero] -= lattice[one]
        return ones

    def leakage_sum(self, library: CellLibrary) -> dict[str, float]:
        schedule = self._schedule
        state = self._matrix
        n_inputs = len(schedule.input_lines)
        # Fixed topological insertion order: downstream float reductions
        # (e.g. mean leakage) must sum in the same order as the reference
        # backend to stay bit-identical.
        leakage = {line: 0.0 for line in schedule.lines[n_inputs:]}
        for group in schedule.type_groups:
            table = library.leakage_table(group.gtype, group.arity)
            totals = np.zeros(len(group), dtype=np.float64)
            if group.arity == 0:
                # Zero-input tie cells leak their single table entry on
                # every pattern.
                for _pattern, leak_na in table.items():
                    totals += float(self.n) * leak_na
            else:
                counts = self._pattern_counts(state[group.inputs])
                for pattern, leak_na in table.items():
                    code = 0
                    for pin, bit in enumerate(pattern):
                        code |= bit << pin
                    totals += counts[code].astype(np.float64) * leak_na
            for out_pos, value in zip(group.outputs, totals):
                leakage[schedule.lines[out_pos]] = float(value)
        return leakage

    def pattern_counts(self) -> dict[str, np.ndarray]:
        """Möbius-inverted subset popcounts per (type, arity) group.

        Same integers as the generic per-pattern popcount reference
        (:meth:`SimState.pattern_counts`), one vectorized pass per
        group instead of one Python loop per gate.
        """
        schedule = self._schedule
        n_inputs = len(schedule.input_lines)
        # Seed the dict in topological order; groups fill it out of
        # order but cover every combinational gate exactly once.
        counts: dict[str, np.ndarray] = \
            dict.fromkeys(schedule.lines[n_inputs:])  # type: ignore[arg-type]
        for group in schedule.type_groups:
            ones = self._pattern_counts(self._matrix[group.inputs])
            for g, out_pos in enumerate(group.outputs):
                counts[schedule.lines[out_pos]] = \
                    np.ascontiguousarray(ones[:, g])
        return counts

    def _unpack_bools(self, line: str) -> np.ndarray:
        row = self._matrix[self._schedule.line_index[line]]
        bits = np.unpackbits(np.frombuffer(row.tobytes(), dtype=np.uint8),
                             bitorder="little")
        return bits[:self.n].astype(bool)


class NumpyBackend(Backend):
    """Levelized, type-batched ``uint64`` matrix engine."""

    name = "numpy"

    def run(self, circuit: Circuit, input_words: Mapping[str, int],
            n: int) -> NumpyState:
        full = require_pattern_mask(n)
        schedule = cached_schedule(circuit)
        n_words = (n + 63) // 64
        full_row = int_to_row(full, n_words)
        state = initial_state(schedule, input_words, n, n_words, full,
                              full_row)
        eval_schedule(schedule, state, full_row)
        return NumpyState(circuit, n, schedule, state, full_row)

    def eval_gate_packed(self, gtype: GateType, words: Sequence[int],
                         n: int) -> int:
        n_words = (n + 63) // 64
        full_row = int_to_row(mask(n), n_words)
        if words:
            rows = np.stack([int_to_row(w, n_words) for w in words])
        else:
            rows = np.zeros((0, n_words), dtype=_U64)
        return row_to_int(
            eval_gate_rows(gtype, rows, full_row, (n_words,)))

    def fault_simulate_batch(self, circuit: Circuit,
                             faults: Sequence[Fault],
                             input_words: Mapping[str, int], n: int,
                             drop: bool = True) -> FaultSimResult:
        """Fused batched cone replay on the ``uint64`` matrix.

        See :mod:`repro.simulation.backends.fault_kernel`; bit-identical
        to the scalar reference.
        """
        from repro.simulation.backends.fault_kernel import (
            fault_simulate_matrix,
        )
        state = self.run(circuit, input_words, n)
        return fault_simulate_matrix(state, faults, drop=drop)

    def fault_simulate_plan(self, plan: "FaultEpisodePlan",
                            drop: bool = True,
                            stream_budget: int | None = None
                            ) -> "FaultSimResult":
        """Whole-plan replay on the 2-D-tiled fused kernel.

        The plan's memoized good-machine state (and with it the
        levelized schedule) is settled once and reused across every
        fault-axis chunk and pattern-axis word block; see
        :func:`repro.simulation.backends.fault_kernel.
        fault_simulate_matrix`.  Bit-identical to the scalar reference
        for every tile geometry.  A resolved ``stream_budget`` the plan
        exceeds switches to streamed pattern windows (the memoized state
        is bypassed — it is exactly the matrix streaming avoids).
        """
        from repro.simulation.backends.fault_kernel import (
            fault_simulate_matrix,
        )
        from repro.simulation.streaming import (
            resolve_stream_budget,
            stream_fault_plan,
        )
        budget = resolve_stream_budget(stream_budget)
        if budget is not None and plan.state_elements() > budget:
            return stream_fault_plan(self, plan, budget)
        state = plan.good_state(self)
        assert isinstance(state, NumpyState)
        with span("sim.fault_plan", backend=self.name,
                  faults=plan.n_faults, patterns=plan.n):
            return fault_simulate_matrix(state, plan.faults, drop=drop)

    def fault_window_result(self, circuit: Circuit,
                            faults: Sequence[Fault],
                            input_words: Mapping[str, int], n: int,
                            element_budget: int | None = None
                            ) -> "FaultSimResult":
        """One streamed pattern window on the tiled kernel.

        The good machine is settled over the window's cycles only and
        the fault tiles are evaluated from that window view, with the
        kernel's element budget capped at the stream budget so a faulty
        tile never outgrows the window it streams from.
        """
        from repro.simulation.backends.fault_kernel import (
            _BATCH_ELEMENT_BUDGET,
            fault_simulate_matrix,
        )
        state = self.run(circuit, input_words, n)
        budget = _BATCH_ELEMENT_BUDGET if element_budget is None else \
            min(element_budget, _BATCH_ELEMENT_BUDGET)
        return fault_simulate_matrix(state, faults, drop=False,
                                     element_budget=budget)
