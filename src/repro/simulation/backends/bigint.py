"""The logic engine: Python big-int bitwise simulation in row space.

The circuit's combinational part is evaluated over the integer rows of
its memoized :class:`~repro.simulation.schedule.RowTable` (inputs first,
then gates in topological order): one list of packed words, filled in
row order with the small-int opcode evaluator
:func:`~repro.simulation.schedule.eval_row` — the same table and opcodes
the scalar fault replay walks.  Leakage is priced from exact per-gate
minterm counts (:func:`~repro.simulation.values.minterm_counts`,
``2^k - 1`` popcounts per ``k``-input gate).

A whole-episode replay (:meth:`BigIntBackend.simulate_episode_batch`
without ``keep_waveforms``) is one fused pass over the same rows: each
row is priced as soon as its word settles — its transition count, and
its gate's leakage from the fan-in words — and every word is dropped
once its last reader has run (:attr:`~repro.simulation.schedule.
RowTable.releases`).  The resident set is the live cut of the
topological order instead of every line's whole-episode waveform:
the traced peak of a 64-vector replay is under a quarter of the full
state on mapped s5378 and s9234, against slightly more than all of it
when every word is kept.  The pass and
:class:`BigIntState` price rows through the same helpers
(:func:`_transition_count`, :class:`_LeakagePricer`), so the two agree
bit for bit, dict order included.
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

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.simulation.episode import EpisodeBatchResult, EpisodePlan

__all__ = ["BigIntBackend", "BigIntState"]


def _transition_count(word: int, boundary: int) -> int:
    """Value changes of one ``n``-cycle word; ``boundary`` is the
    ``n - 1``-bit mask (``0`` for fewer than two cycles)."""
    return ((word ^ (word >> 1)) & boundary).bit_count()


class _LeakagePricer:
    """Per-gate leakage (nA) summed over ``n`` packed patterns.

    Each (opcode, arity) prices its minterm counts in the leakage
    table's pattern order, resolved once per pricer.
    """

    def __init__(self, library: CellLibrary, n: int):
        self._library = library
        self._n = n
        self._full = mask(n)
        self._orders: dict[tuple[int, int], list[tuple[int, float]]] = {}

    def price(self, op: int, in_words: list[int]) -> float:
        """Leakage of one gate row from its settled fan-in words."""
        key = (op, len(in_words))
        order = self._orders.get(key)
        if order is None:
            table = self._library.leakage_table(GATE_TYPES[op],
                                                len(in_words))
            order = self._orders[key] = [
                (sum(bit << pin for pin, bit in enumerate(pattern)),
                 leak_na)
                for pattern, leak_na in table.items()]
        counts = minterm_counts(in_words, self._n, self._full)
        total = 0.0
        for code, leak_na in order:
            cycles = counts[code]
            if cycles:
                total += cycles * leak_na
        return total


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
        boundary = mask(self.n) >> 1
        return {line: _transition_count(word, boundary)
                for line, word in self._words.items()}

    def leakage_sum(self, library: CellLibrary) -> dict[str, float]:
        rows, values = self._rows, self._values
        first = rows.n_inputs
        price = _LeakagePricer(library, self.n).price
        return {line: price(op, [values[src] for src in ins])
                for line, op, ins in zip(rows.lines[first:],
                                         rows.ops[first:],
                                         rows.fanin[first:])}

    def _unpack_bools(self, line: str) -> np.ndarray:
        return unpack_bool_array(self._words[line], self.n)


class BigIntBackend(Backend):
    """The big-int engine (the one shipped :class:`Backend`)."""

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

    def simulate_episode_batch(self, plan: "EpisodePlan",
                               library: CellLibrary | None = None,
                               collect_leakage: bool = True,
                               keep_waveforms: bool = False
                               ) -> "EpisodeBatchResult":
        """Fused resident replay: price each row as it settles and drop
        every word after its last reader (see the module doc).  Kept
        waveforms need every word, so that path stays the base
        :meth:`run` replay."""
        if keep_waveforms:
            return super().simulate_episode_batch(
                plan, library, collect_leakage, keep_waveforms)
        from repro.cells.library import default_library
        from repro.simulation.episode import EpisodeBatchResult
        n = plan.n_cycles
        with span("sim.episode_batch", backend=self.name, cycles=n):
            full = require_pattern_mask(n)
            boundary = full >> 1
            rows = cached_row_table(plan.circuit)
            lines, releases = rows.lines, rows.releases
            first = rows.n_inputs
            values = [require_input_word(plan.waveforms, line, full, n)
                      for line in lines[:first]]
            transitions = {line: _transition_count(word, boundary)
                           for line, word in zip(lines, values)}
            # Input words stay alive in the plan either way, so only
            # gate rows release; a released slot holds the shared small
            # int 0.
            values.extend([0] * (len(lines) - first))
            price = _LeakagePricer(library or default_library(), n).price \
                if collect_leakage else None
            leakage: dict[str, float] = {}
            for row in range(first, len(lines)):
                op, ins = rows.ops[row], rows.fanin[row]
                word = values[row] = eval_row(op, ins, values, full)
                line = lines[row]
                transitions[line] = _transition_count(word, boundary)
                if price is not None:
                    leakage[line] = price(op, [values[src] for src in ins])
                for dead in releases[row]:
                    values[dead] = 0
            return EpisodeBatchResult(
                n_cycles=n, transitions=transitions, leakage_sum_na=leakage,
                offsets=plan.offsets, lengths=plan.lengths)

    def eval_gate_packed(self, gtype: GateType, words: Sequence[int],
                         n: int) -> int:
        return eval_gate_packed(gtype, words, mask(n))
