"""The hot kernel of the packed ``uint64`` substrate.

The levelized fused-AND schedule evaluation on numpy ``uint64``
waveform matrices, which the ``numpy`` backend's :meth:`run` sweeps.

Reductions run as explicit pin-by-pin folds in the same order as
numpy's ``ufunc.reduce``.  The tiny schedule index arrays
(``intp``/``uint64`` metadata) and big-int <-> packed-row conversion
are host-side Python/numpy alongside.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import SimulationError
from repro.netlist.gates import GateType
from repro.simulation.schedule import FusedAndBatch, LevelizedSchedule

__all__ = ["int_to_row", "row_to_int", "initial_state", "eval_gate_rows",
           "eval_schedule"]

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
