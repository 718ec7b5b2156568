"""Reference backend: Python big-int bitwise simulation in row space.

The circuit's combinational part is evaluated over the integer rows of
its memoized :class:`~repro.simulation.schedule.RowTable` (inputs first,
then gates in topological order): one list of packed words, filled in
row order with the small-int opcode evaluator
:func:`~repro.simulation.schedule.eval_row` — the same table and opcodes
the scalar fault replay walks.  Leakage is priced from exact per-gate
minterm counts (:func:`~repro.simulation.values.minterm_counts`,
``2^k - 1`` popcounts per ``k``-input gate).  This backend defines the
semantics every other backend must reproduce bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.cells.library import CellLibrary
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.simulation.backends.base import (
    Backend,
    SimState,
    require_input_word,
    require_pattern_mask,
)
from repro.simulation.bitsim import eval_gate_packed
from repro.simulation.schedule import (
    GATE_TYPES,
    RowTable,
    cached_row_table,
    eval_row,
)
from repro.simulation.values import mask, minterm_counts, unpack_bool_array

__all__ = ["BigIntBackend", "BigIntState"]


class BigIntState(SimState):
    """Waveforms as one packed big-int word per row."""

    def __init__(self, circuit: Circuit, n: int, rows: RowTable,
                 values: list[int]):
        super().__init__(circuit, n)
        self._rows = rows
        self._values = values
        self._words = dict(zip(rows.lines, values))

    def lines(self) -> Sequence[str]:
        return list(self._words)

    def word(self, line: str) -> int:
        return self._words[line]

    def words(self) -> dict[str, int]:
        return dict(self._words)

    def transitions(self) -> dict[str, int]:
        if self.n < 2:
            return dict.fromkeys(self._words, 0)
        boundary = mask(self.n - 1)
        return {line: ((word ^ (word >> 1)) & boundary).bit_count()
                for line, word in self._words.items()}

    def leakage_sum(self, library: CellLibrary) -> dict[str, float]:
        rows, values, n = self._rows, self._values, self.n
        first = rows.n_inputs
        # Each (opcode, arity) prices its counts in the leakage table's
        # pattern order, resolved once per call.
        prices: dict[tuple[int, int], list[tuple[int, float]]] = {}
        leakage: dict[str, float] = {}
        for line, op, ins in zip(rows.lines[first:], rows.ops[first:],
                                 rows.fanin[first:]):
            key = (op, len(ins))
            order = prices.get(key)
            if order is None:
                table = library.leakage_table(GATE_TYPES[op], len(ins))
                order = prices[key] = [
                    (sum(bit << pin for pin, bit in enumerate(pattern)),
                     leak_na)
                    for pattern, leak_na in table.items()]
            counts = minterm_counts([values[src] for src in ins], n)
            total = 0.0
            for code, leak_na in order:
                cycles = counts[code]
                if cycles:
                    total += cycles * leak_na
            leakage[line] = total
        return leakage

    def _unpack_bools(self, line: str) -> np.ndarray:
        return unpack_bool_array(self._words[line], self.n)


class BigIntBackend(Backend):
    """The big-int reference engine."""

    name = "bigint"

    def run(self, circuit: Circuit, input_words: Mapping[str, int],
            n: int) -> BigIntState:
        full = require_pattern_mask(n)
        rows = cached_row_table(circuit)
        first = rows.n_inputs
        values = [require_input_word(input_words, line, full, n)
                  for line in rows.lines[:first]]
        for op, ins in zip(rows.ops[first:], rows.fanin[first:]):
            values.append(eval_row(op, ins, values, full))
        return BigIntState(circuit, n, rows, values)

    def eval_gate_packed(self, gtype: GateType, words: Sequence[int],
                         n: int) -> int:
        return eval_gate_packed(gtype, words, mask(n))
