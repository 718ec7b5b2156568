"""Fused, batched stuck-at fault simulation on the ``uint64`` matrix.

The scalar reference (:mod:`repro.atpg.faultsim`) replays one fault at a
time, event by event, with big-int gate evaluations — one Python-level
dispatch per (fault, gate the fault effect reaches).  This kernel
replays a whole *batch* of faults at once on the numpy backend's packed
waveform matrix:

1. faults are ordered by the topological position of their fault line, so
   neighbouring faults share most of their fanout cones, then chunked
   into batches sized to a fixed element budget;
2. per batch, the union of the member cones is gathered into a compact
   local matrix ``(n_faults, n_local_lines, n_words)`` initialised with
   the fault-free rows; each fault lane forces its own line to the stuck
   row;
3. the union's gates are evaluated level by level using the circuit's
   levelized schedule: the whole AND-family of a level (NAND/NOR/INV/...,
   De Morgan literals, padded with the constant-ones row) collapses into
   one gather + AND-reduce over the ``(fault, gate, word)`` axes, and the
   remaining gate types batch per (type, arity) — so the Python-level op
   count scales with circuit *depth* times the number of batches, not
   with faults x cone size;
4. fault lanes are re-forced after every level (a gate may drive another
   fault's stuck line), and detection is one XOR + OR-reduce of the
   observable rows against the good rows.

Gates outside a fault's own cone recompute their fault-free values in
that lane (their inputs are untouched there), so the union replay is
exact: detection words are bit-identical to the scalar reference.

Fault dropping happens per batch exactly as in the reference: every
pattern of the call is simulated at once, so the detection word always
records all detecting patterns and ``drop`` cannot change the result.

The per-tile replay itself lives in the shared kernels
(:func:`repro.simulation.kernels.detect_tile`): this module owns the
plan (index arrays, cone cache, tile geometry, fault ordering) and
drives the kernel tile by tile.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.atpg.faults import observable_lines
from repro.netlist.circuit import Circuit
from repro.simulation.kernels import TileScratch, detect_tile
from repro.simulation.schedule import (
    AND_FAMILY,
    GateBatch,
    cached_schedule,
)

if TYPE_CHECKING:  # pragma: no cover - runtime import would be cyclic
    from repro.atpg.faults import Fault
    from repro.atpg.faultsim import FaultSimResult
    from repro.simulation.backends.numpy_backend import NumpyState

__all__ = ["FaultSimPlan", "cached_fault_plan", "fault_simulate_matrix",
           "tile_geometry"]

_U64 = np.dtype("<u8")
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Element budget of one batch's local faulty matrix (uint64 entries);
#: bounds peak memory at ~32 MiB and is the only batching knob, so the
#: fault grouping — and therefore the arithmetic — is deterministic.
_BATCH_ELEMENT_BUDGET = 1 << 22

_MIN_BATCH_FAULTS = 4
_MAX_BATCH_FAULTS = 128


class FaultSimPlan:
    """Per-circuit index arrays for the batched fault kernel.

    Built once per :attr:`Circuit.version` (see
    :func:`cached_fault_plan`) on top of the levelized schedule: padded
    AND-family literals per gate row, the non-AND-family batches, gate
    levels, observable rows and a fanout-cone row cache.
    """

    def __init__(self, circuit: Circuit):
        schedule = cached_schedule(circuit)
        self.schedule = schedule
        # Weak ref only: plans are values of a WeakKeyDictionary keyed on
        # the circuit — a strong ref here would keep the key alive and
        # turn the cache into a leak.
        self._circuit_ref = weakref.ref(circuit)
        self.version = circuit.version
        n_rows = schedule.n_lines + 1  # + the constant-ones padding row
        self.n_rows = n_rows
        self.ones_index = schedule.ones_index

        and_batches = [b for b in schedule.batches if b.gtype in AND_FAMILY]
        self.other_batches: tuple[GateBatch, ...] = tuple(
            b for b in schedule.batches if b.gtype not in AND_FAMILY)
        max_arity = max((b.arity for b in and_batches), default=0)

        self.level = np.zeros(n_rows, dtype=np.intp)
        self.is_and = np.zeros(n_rows, dtype=bool)
        self.and_inputs = np.full((n_rows, max_arity), self.ones_index,
                                  dtype=np.intp)
        self.and_inv_in = np.zeros((n_rows, max_arity), dtype=_U64)
        self.and_inv_out = np.zeros(n_rows, dtype=_U64)
        for batch in schedule.batches:
            self.level[batch.outputs] = batch.level
        for batch in and_batches:
            self.is_and[batch.outputs] = True
            self.and_inputs[batch.outputs, :batch.arity] = batch.inputs.T
            in_inverted, out_inverted = AND_FAMILY[batch.gtype]
            if in_inverted:
                self.and_inv_in[batch.outputs, :batch.arity] = _ALL_ONES
            if out_inverted:
                self.and_inv_out[batch.outputs] = _ALL_ONES

        self.obs_rows = np.array(
            [schedule.line_index[line] for line in observable_lines(circuit)],
            dtype=np.intp)
        self._cone_rows: dict[str, np.ndarray] = {}
        self._tile_cache: dict[tuple[int, int | None], tuple[int, int]] = {}

    def cone_rows(self, line: str) -> np.ndarray:
        """Gate-output rows in ``line``'s fanout cone, ascending (= topo).

        The fault line itself is excluded; row order follows
        ``schedule.lines`` (inputs first, then topological gate order),
        so ascending row index is a valid evaluation order.
        """
        rows = self._cone_rows.get(line)
        if rows is None:
            circuit = self._circuit_ref()
            assert circuit is not None, "circuit outlived by its plan"
            index = self.schedule.line_index
            gates = circuit.gates
            cone = circuit.fanout_cone(line)
            rows = np.array(
                sorted(index[out] for out in cone
                       if out != line and out in gates),
                dtype=np.intp)
            self._cone_rows[line] = rows
        return rows


_PLAN_CACHE: "weakref.WeakKeyDictionary[Circuit, FaultSimPlan]" = \
    weakref.WeakKeyDictionary()


def cached_fault_plan(circuit: Circuit) -> FaultSimPlan:
    """Memoized :class:`FaultSimPlan`, invalidated by circuit mutation."""
    plan = _PLAN_CACHE.get(circuit)
    if plan is None or plan.version != circuit.version:
        plan = FaultSimPlan(circuit)
        _PLAN_CACHE[circuit] = plan
    return plan


def tile_geometry(plan: FaultSimPlan, n_words: int,
                  element_budget: int | None = None) -> tuple[int, int]:
    """2-D tile shape ``(faults per tile, words per tile)``.

    Deterministic for a given (circuit, pattern count, budget): the
    fault axis is chunked first (as the 1-D kernel always did); when
    the pattern set is so wide that even the minimum fault chunk blows
    the element budget, the **pattern axis** is tiled into word blocks
    instead of letting the faulty matrix overshoot.  Tile boundaries
    are invisible in the results — every (fault, pattern) cell is
    computed independently — so the geometry is purely a memory/speed
    knob.

    Memoized on the plan per ``(n_words, budget)``: repeated dispatches
    of the same plan (campaign sweeps re-evaluating one circuit over
    many vectors) skip re-deriving the tiling.
    """
    key = (n_words, element_budget)
    cached = plan._tile_cache.get(key)
    if cached is not None:
        return cached
    budget = _BATCH_ELEMENT_BUDGET if element_budget is None \
        else element_budget
    n_words = max(1, n_words)
    per_fault = max(1, plan.n_rows * n_words)
    size = budget // per_fault
    if size >= _MIN_BATCH_FAULTS:
        geometry = (min(_MAX_BATCH_FAULTS, size), n_words)
    else:
        words = budget // max(1, plan.n_rows * _MIN_BATCH_FAULTS)
        geometry = (_MIN_BATCH_FAULTS, max(1, min(n_words, words)))
    plan._tile_cache[key] = geometry
    return geometry


def fault_simulate_matrix(state: "NumpyState",
                          faults: "Sequence[Fault]",
                          drop: bool = True,
                          element_budget: int | None = None
                          ) -> "FaultSimResult":
    """Batched fault simulation over a settled packed state, 2-D tiled.

    ``state`` is the fault-free simulation of the target patterns
    (:meth:`NumpyBackend.run`); the result is bit-identical to
    :func:`repro.atpg.faultsim.scalar_fault_simulate` on the same
    stimulus, including ``remaining`` ordering, for **every** tile
    geometry (:func:`tile_geometry`): the fault axis is chunked under
    the element budget and, for pattern sets too wide for even the
    minimum fault chunk, the pattern axis is additionally tiled into
    word blocks — each block replays the same union-of-cones kernel on
    a column slice of the waveform matrix, reusing the settled good
    state, the levelized schedule and one scratch ``faulty`` buffer
    across all tiles.

    ``element_budget`` overrides the batch budget (tests force tiny
    budgets to pin multi-tile geometries; production uses the default).
    """
    from repro.atpg.faultsim import FaultSimResult

    plan = cached_fault_plan(state.circuit)
    matrix = state.matrix
    n_words = matrix.shape[1]
    full_row = matrix[plan.ones_index]

    index = plan.schedule.line_index
    unique = list(dict.fromkeys(faults))
    # Topological grouping: neighbouring fault lines share their cones.
    unique.sort(key=lambda f: (index[f.line], f.stuck_at))
    f_tile, w_tile = tile_geometry(plan, n_words, element_budget)
    scratch = TileScratch()

    words: dict[Fault, int] = {}
    for start in range(0, len(unique), f_tile):
        batch = unique[start:start + f_tile]
        if w_tile >= n_words:
            det = detect_tile(plan, matrix, full_row, batch, scratch)
        else:
            det = np.empty((len(batch), n_words), dtype=_U64)
            for w0 in range(0, n_words, w_tile):
                w1 = min(n_words, w0 + w_tile)
                det[:, w0:w1] = detect_tile(
                    plan, matrix[:, w0:w1], full_row[w0:w1], batch,
                    scratch)
        det = np.ascontiguousarray(det)
        for i, fault in enumerate(batch):
            words[fault] = int.from_bytes(det[i].tobytes(), "little")

    detected: dict[Fault, int] = {}
    remaining: list[Fault] = []
    for fault in faults:
        word = words[fault]
        if word:
            detected[fault] = word
        else:
            remaining.append(fault)
    return FaultSimResult(detected=detected, remaining=remaining)
