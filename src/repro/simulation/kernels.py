"""The two hot kernels of the packed ``uint64`` substrate.

The levelized fused-AND schedule evaluation and the lane-minor 2-D
tiled fault kernel, on numpy ``uint64`` waveform matrices.  The
``numpy`` backend runs its schedule sweep here and the fused fault
kernel (:mod:`repro.simulation.backends.fault_kernel`) drives
:func:`detect_tile` per tile, so there is exactly one implementation of
each hot loop.

Reductions run as explicit pin-by-pin folds in the same order as
numpy's ``ufunc.reduce``, and every waveform operation is word-wise
(gathers, XOR/AND/OR combining, scatter-assignments), so a column slice
of the matrix computes exactly the corresponding columns of the full
result.  The tiny plan and schedule index arrays (``intp``/``uint64``
metadata), big-int <-> packed-row conversion, cone unions and tile
bookkeeping are host-side Python/numpy alongside.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.netlist.gates import GateType
from repro.simulation.schedule import FusedAndBatch, LevelizedSchedule

if TYPE_CHECKING:  # pragma: no cover - runtime import would be cyclic
    from repro.atpg.faults import Fault
    from repro.simulation.backends.fault_kernel import FaultSimPlan

__all__ = ["int_to_row", "row_to_int", "initial_state", "eval_gate_rows",
           "eval_schedule", "detect_tile", "TileScratch"]

_U64 = np.dtype("<u8")


def int_to_row(word: int, n_words: int) -> np.ndarray:
    """Pack a big-int word into a little-endian ``uint64`` row."""
    return np.frombuffer(word.to_bytes(n_words * 8, "little"), dtype=_U64)


def row_to_int(row: np.ndarray) -> int:
    """Unpack one ``uint64`` row back into a big-int word."""
    return int.from_bytes(np.ascontiguousarray(row, dtype=_U64).tobytes(),
                          "little")


def initial_state(schedule: LevelizedSchedule,
                  input_words: Mapping[str, int], n: int, n_words: int,
                  full: int, full_row: np.ndarray) -> np.ndarray:
    """Initial waveform matrix for a schedule evaluation.

    Big-int input words are unpacked into the first rows; one extra row
    beyond the named lines holds the constant-ones word the fused AND
    kernels pad short gates with.
    """
    from repro.simulation.backends.base import require_input_word

    state = np.zeros((schedule.n_lines + 1, n_words), dtype=_U64)
    state[schedule.ones_index] = full_row
    for i, line in enumerate(schedule.input_lines):
        word = require_input_word(input_words, line, full, n)
        state[i] = int_to_row(word, n_words)
    return state


# ---------------------------------------------------------------------------
# Levelized schedule evaluation


def eval_gate_rows(gtype: GateType, rows: np.ndarray, full: np.ndarray,
                   out_shape: tuple[int, ...]) -> np.ndarray:
    """Evaluate one gate type over stacked waveform rows.

    ``rows`` has shape ``(arity, *out_shape)``; ``full`` broadcasts to
    ``out_shape`` and has every bit above pattern ``n - 1`` clear, which
    keeps the zero-padding of the tail word intact through inversions.
    Reductions run as explicit pin-by-pin folds in the order of numpy's
    ``ufunc.reduce``, so the results are bit-identical to it.
    """
    k = rows.shape[0]
    if gtype is GateType.AND or gtype is GateType.NAND:
        if k:
            acc = rows[0]
            for pin in range(1, k):
                acc = acc & rows[pin]
        else:
            acc = np.broadcast_to(full, out_shape)
        return acc ^ full if gtype is GateType.NAND else acc
    if gtype is GateType.OR or gtype is GateType.NOR:
        if k:
            acc = rows[0]
            for pin in range(1, k):
                acc = acc | rows[pin]
        else:
            acc = np.zeros(out_shape, dtype=np.uint64)
        return acc ^ full if gtype is GateType.NOR else acc
    if gtype is GateType.NOT:
        return rows[0] ^ full
    if gtype is GateType.BUFF or gtype is GateType.DFF:
        return rows[0]
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        if k:
            acc = rows[0]
            for pin in range(1, k):
                acc = acc ^ rows[pin]
        else:
            acc = np.zeros(out_shape, dtype=np.uint64)
        return acc ^ full if gtype is GateType.XNOR else acc
    if gtype is GateType.MUX2:
        sel = rows[0]
        d0 = rows[1]
        d1 = rows[2]
        return ((sel ^ full) & d0) | (sel & d1)
    if gtype is GateType.CONST0:
        return np.zeros(out_shape, dtype=np.uint64)
    if gtype is GateType.CONST1:
        return np.broadcast_to(full, out_shape)
    raise SimulationError(f"cannot evaluate {gtype} in packed mode")


def eval_schedule(schedule: LevelizedSchedule, state: np.ndarray,
                  full_row: np.ndarray) -> np.ndarray:
    """Run the fused levelized program in place on ``state``.

    ``state`` is the ``(n_lines + 1, n_words)`` waveform matrix, with
    input rows and the constant-ones padding row already settled
    (:func:`initial_state`); ``full_row`` is the pattern mask row.
    Fused AND-family batches accumulate pin by pin — the first literal
    seeds the accumulator, so no intermediate ``(arity, gates, words)``
    gather is materialized — and every other batch dispatches through
    :func:`eval_gate_rows`.
    The fold order equals numpy's ``bitwise_and.reduce``.
    """
    for batch in schedule.fused_program:
        if isinstance(batch, FusedAndBatch):
            if batch.arity:
                inputs = batch.inputs  # (A, G)
                inv_in = batch.invert_in  # (A, G, 1)
                acc = state[inputs[0]] ^ inv_in[0]  # (G, W), owned
                for pin in range(1, batch.arity):
                    acc &= state[inputs[pin]] ^ inv_in[pin]
            else:
                # Empty AND is the identity: every gate reads all-ones.
                acc = np.broadcast_to(full_row,
                                      (len(batch),) + full_row.shape)
            acc = acc ^ batch.invert_out  # (G, 1) mask
            acc &= full_row
            state[batch.outputs] = acc
        else:
            rows = state[batch.inputs]
            state[batch.outputs] = eval_gate_rows(
                batch.gtype, rows, full_row, rows.shape[1:])
    return state


# ---------------------------------------------------------------------------
# Lane-minor tiled fault kernel


class TileScratch:
    """Reusable scratch buffer for the tiled fault kernel.

    The lane-minor ``faulty`` matrix is by far the largest allocation
    of a tile replay; under a fixed element budget every tile fits the
    same capacity, so one flat buffer serves the whole fault sweep —
    each tile takes a reshaped view of its own element count instead of
    allocating afresh (allocation churn shows up in traces on big
    tiles).  The buffer only ever grows, so peak memory equals the
    single largest tile, exactly as with per-tile allocation.  Reuse is
    bit-transparent: :func:`detect_tile` overwrites every element of
    its view before reading it.
    """

    def __init__(self) -> None:
        self._flat: np.ndarray | None = None

    def faulty(self, shape: tuple[int, int, int]) -> np.ndarray:
        size = shape[0] * shape[1] * shape[2]
        if self._flat is None or self._flat.shape[0] < size:
            self._flat = np.empty((size,), dtype=np.uint64)
        return np.reshape(self._flat[:size], shape)


def detect_tile(plan: "FaultSimPlan", matrix: np.ndarray,
                full_row: np.ndarray, batch: "Sequence[Fault]",
                scratch: TileScratch | None = None) -> np.ndarray:
    """Detection rows ``(n_faults, n_words)`` for one tile of faults.

    ``matrix``/``full_row`` may be column slices of the full waveform
    matrix: every operation here is word-wise, so a pattern-axis tile
    computes exactly the corresponding columns of the full detection
    matrix.
    """
    index = plan.schedule.line_index
    n_words = matrix.shape[1]
    n_faults = len(batch)
    fault_rows = np.array([index[f.line] for f in batch], dtype=np.intp)
    stuck = np.array([bool(f.stuck_at) for f in batch], dtype=bool)

    cones = [plan.cone_rows(f.line) for f in batch]
    nonempty = [c for c in cones if c.size]
    gate_rows = np.unique(np.concatenate(nonempty)) if nonempty else \
        np.empty(0, dtype=np.intp)

    # Rows the replay touches: union cone gates, their (padded) inputs,
    # the fault lines themselves and the constant-ones padding row.
    parts = [gate_rows, fault_rows,
             np.array([plan.ones_index], dtype=np.intp)]
    and_rows_all = gate_rows[plan.is_and[gate_rows]]
    if and_rows_all.size:
        parts.append(plan.and_inputs[and_rows_all].ravel())
    other_sel = []
    if gate_rows.size > and_rows_all.size:
        for gbatch in plan.other_batches:
            member = np.isin(gbatch.outputs, gate_rows)
            if member.any():
                other_sel.append((gbatch, member))
                parts.append(gbatch.inputs[:, member].ravel())
    needed = np.unique(np.concatenate(parts))

    local_of = np.full(plan.n_rows, -1, dtype=np.intp)
    local_of[needed] = np.arange(needed.size)
    good_local = matrix[needed]  # (L, W)
    # Lane-minor layout (L, F, W): a gathered gate row is one
    # contiguous (F, W) slab, so the per-level fancy indexing streams
    # instead of striding n_local_lines * n_words apart per lane.
    shape = (needed.size, n_faults, n_words)
    if scratch is not None:
        faulty = scratch.faulty(shape)
    else:
        faulty = np.empty(shape, dtype=np.uint64)
    faulty[...] = good_local[:, None, :]

    lanes = np.arange(n_faults)
    fault_loc = local_of[fault_rows]
    stuck_rows = np.where(stuck[:, None],
                          full_row[None, :],
                          np.zeros((1, n_words), dtype=np.uint64))
    faulty[fault_loc, lanes] = stuck_rows

    levels = plan.level[gate_rows]
    for lv in np.unique(levels):
        rows_lv = gate_rows[levels == lv]
        and_rows = rows_lv[plan.is_and[rows_lv]]
        if and_rows.size:
            in_loc = local_of[plan.and_inputs[and_rows]]  # (k, A)
            inv_in = plan.and_inv_in[and_rows]  # (k, A)
            # Accumulate pin by pin instead of materializing the full
            # (A, k, F, W) gather: each fancy index already copies, so
            # the xor/and run in place on (k, F, W) slabs — about half
            # the memory traffic of gather + reduce.
            acc = faulty[in_loc[:, 0]]  # (k, F, W)
            acc ^= inv_in[:, 0][:, None, None]
            for pin in range(1, in_loc.shape[1]):
                term = faulty[in_loc[:, pin]]
                term ^= inv_in[:, pin][:, None, None]
                acc &= term
            acc ^= plan.and_inv_out[and_rows][:, None, None]
            acc &= full_row
            faulty[local_of[and_rows]] = acc
        if rows_lv.size > and_rows.size:
            for gbatch, member in other_sel:
                if gbatch.level != lv:
                    continue
                in_loc = local_of[gbatch.inputs[:, member]]  # (A, k)
                k = in_loc.shape[1]
                rows = faulty[in_loc]  # (A, k, F, W)
                out = eval_gate_rows(gbatch.gtype, rows, full_row,
                                     (k, n_faults, n_words))
                faulty[local_of[gbatch.outputs[member]]] = out
        # A gate may drive another fault's stuck line: re-force every
        # lane's own fault row before the next level reads it.
        faulty[fault_loc, lanes] = stuck_rows

    obs_loc = local_of[plan.obs_rows]
    present = obs_loc[obs_loc >= 0]
    if present.size:
        obs_faulty = faulty[present]  # (P, F, W)
        obs_good = good_local[present]  # (P, W)
        det = obs_faulty[0] ^ obs_good[0]  # (F, W)
        for i in range(1, present.size):
            det |= obs_faulty[i] ^ obs_good[i]
    else:
        det = np.zeros((n_faults, n_words), dtype=np.uint64)
    return det
