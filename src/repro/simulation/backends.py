"""The logic engine: Python big-int bitwise simulation in row space.

A packed word is a Python big-int whose bit ``t`` is a line's value in
pattern (or cycle) ``t``.  The circuit's combinational part is
evaluated over the integer rows of its memoized
:class:`~repro.simulation.schedule.RowTable` (inputs first, then gates
in topological order): one list of packed words, filled in row order
with the small-int opcode evaluator
:func:`~repro.simulation.schedule.eval_row` — the same table and
opcodes the scalar fault replay walks.  Leakage is priced from exact
per-gate minterm counts, derived from one popcount per row: a 1-input
gate costs no big-int operation, a 2-input gate one AND and one
popcount, and a wider gate
:func:`~repro.simulation.values.minterm_counts`.

Two entry points share those rows:

* :func:`simulate_state` settles every line and returns a
  :class:`BigIntState` (packed words, per-sample boolean views, and the
  same transition and leakage pricing on demand);
* :func:`replay` is the one multi-cycle replay behind
  :func:`~repro.simulation.cyclesim.simulate_cycles` and every scan
  power evaluation: one fused pass in which each row is priced as soon
  as its word settles — its transition count, and its gate's leakage
  from the fan-in words — and every word is dropped once its last
  reader has run (:attr:`~repro.simulation.schedule.RowTable.releases`).
  The resident set is the live cut of the topological order instead of
  every line's whole-episode waveform: the traced peak of a 64-vector
  replay is under a quarter of the full state on mapped s5378 and
  s9234.  Kept waveforms release nothing and return every word.

Both price rows through the same helpers (:func:`_transition_count`,
:class:`_LeakagePricer`), so they agree bit for bit, dict order
included.  The frozen oracles in ``tests/`` pin words, transitions and
leakage floats.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from types import SimpleNamespace

import numpy as np

from repro.cells.library import CellLibrary, default_library
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.simulation.schedule import (
    GATE_TYPES,
    RowTable,
    cached_row_table,
    eval_row,
)
from repro.simulation.values import mask, minterm_counts, unpack_bool_array

__all__ = ["BigIntState", "replay", "require_input_word",
           "require_pattern_mask", "resolve_backend",
           "resolve_fault_backend", "simulate_state"]


def require_pattern_mask(n: int) -> int:
    """The ``n``-bit all-ones mask of an ``n``-pattern simulation.

    A negative ``n`` raises :class:`~repro.errors.SimulationError`
    (``n = 0`` is a legal, empty simulation).
    """
    if n < 0:
        raise SimulationError(
            f"packed simulation needs n >= 0 patterns, got {n}")
    return mask(n)


def require_input_word(input_words: Mapping[str, int], line: str,
                       full: int, n: int) -> int:
    """Fetch and range-check one packed input word."""
    try:
        word = input_words[line]
    except KeyError:
        raise SimulationError(
            f"missing packed input for line {line!r}") from None
    if word < 0 or word > full:
        raise SimulationError(
            f"line {line!r}: word out of range for {n} patterns")
    return word


def _transition_count(word: int, boundary: int) -> int:
    """Value changes of one ``n``-cycle word; ``boundary`` is the
    ``n - 1``-bit mask (``0`` for fewer than two cycles)."""
    return ((word ^ (word >> 1)) & boundary).bit_count()


class _LeakagePricer:
    """Per-gate leakage (nA) summed over ``n`` packed patterns.

    Each (opcode, arity) prices its minterm counts in the leakage
    table's pattern order, resolved once per pricer.  The counts start
    from every row's popcount, taken once as the row settles (``ones``),
    and are split by inclusion-exclusion: a 1-input gate needs no
    big-int operation and a 2-input gate one AND and one popcount;
    wider gates split with :func:`minterm_counts`.  The counts are
    exact, so the floats do not depend on how they were derived.
    """

    def __init__(self, library: CellLibrary, n: int):
        self._library = library
        self._n = n
        self._full = mask(n)
        self._orders: dict[tuple[int, int], list[tuple[int, float]]] = {}

    def price(self, op: int, ins: Sequence[int], values: list[int],
              ones: list[int]) -> float:
        """Leakage of one gate row from its settled fan-in rows."""
        key = (op, len(ins))
        order = self._orders.get(key)
        if order is None:
            table = self._library.leakage_table(GATE_TYPES[op], len(ins))
            order = self._orders[key] = [
                (sum(bit << pin for pin, bit in enumerate(pattern)),
                 leak_na)
                for pattern, leak_na in table.items()]
        n = self._n
        counts: Sequence[int]
        if len(ins) == 1:
            high = ones[ins[0]]
            counts = (n - high, high)
        elif len(ins) == 2:
            a, b = ins
            both = (values[a] & values[b]).bit_count()
            only_a, only_b = ones[a] - both, ones[b] - both
            counts = (n - both - only_a - only_b, only_a, only_b, both)
        else:
            counts = minterm_counts([values[src] for src in ins], n,
                                    self._full)
        total = 0.0
        for code, leak_na in order:
            cycles = counts[code]
            if cycles:
                total += cycles * leak_na
        return total


class BigIntState:
    """The settled waveforms of one packed simulation: one big-int word
    per row of the circuit's row table."""

    def __init__(self, circuit: Circuit, n: int, rows: RowTable,
                 values: list[int]):
        self.circuit = circuit
        self.n = n
        self._rows = rows
        self._values = values
        self._words = dict(zip(rows.lines, values))
        self._bool_cache: dict[str, np.ndarray] = {}

    def lines(self) -> list[str]:
        """Every simulated line: combinational inputs, then gate outputs."""
        return list(self._words)

    def words(self) -> dict[str, int]:
        """Packed big-int waveforms of all lines."""
        return dict(self._words)

    def transitions(self) -> dict[str, int]:
        """Per-line count of value changes between consecutive patterns."""
        boundary = mask(self.n) >> 1
        return {line: _transition_count(word, boundary)
                for line, word in self._words.items()}

    def leakage_sum(self, library: CellLibrary) -> dict[str, float]:
        """Per-gate-output leakage (nA) summed over all patterns, in
        topological order."""
        rows, values = self._rows, self._values
        first = rows.n_inputs
        price = _LeakagePricer(library, self.n).price
        ones = [word.bit_count() for word in values]
        return {line: price(op, ins, values, ones)
                for line, op, ins in zip(rows.lines[first:],
                                         rows.ops[first:],
                                         rows.fanin[first:])}

    def bools(self, line: str) -> np.ndarray:
        """The line's waveform as a length-``n`` boolean array (cached)."""
        cached = self._bool_cache.get(line)
        if cached is None:
            cached = self._bool_cache[line] = unpack_bool_array(
                self._words[line], self.n)
        return cached


def simulate_state(circuit: Circuit, input_words: Mapping[str, int],
                   n: int) -> BigIntState:
    """Settle ``n`` packed patterns; every line's word stays resident."""
    full = require_pattern_mask(n)
    rows = cached_row_table(circuit)
    first = rows.n_inputs
    values = [require_input_word(input_words, line, full, n)
              for line in rows.lines[:first]]
    for op, ins in zip(rows.ops[first:], rows.fanin[first:]):
        values.append(eval_row(op, ins, values, full))
    return BigIntState(circuit, n, rows, values)


def replay(circuit: Circuit, input_words: Mapping[str, int], n: int,
           library: CellLibrary | None = None,
           collect_leakage: bool = True, keep_waveforms: bool = False
           ) -> tuple[dict[str, int], dict[str, float],
                      dict[str, int] | None]:
    """The fused ``n``-cycle replay (see the module doc).

    Returns ``(transitions, leakage_sum_na, waveforms)``: per-line
    transition counts, per-gate leakage sums (empty unless
    ``collect_leakage``) and, with ``keep_waveforms``, every line's
    word (else ``None``).
    """
    full = require_pattern_mask(n)
    boundary = full >> 1
    rows = cached_row_table(circuit)
    lines = rows.lines
    releases = ((),) * len(lines) if keep_waveforms else rows.releases
    first = rows.n_inputs
    values = [require_input_word(input_words, line, full, n)
              for line in lines[:first]]
    transitions = {line: _transition_count(word, boundary)
                   for line, word in zip(lines, values)}
    # Input words stay alive in the caller either way, so only gate
    # rows release; a released slot holds the shared small int 0.
    # Popcounts are small ints and stay.
    values.extend([0] * (len(lines) - first))
    price = _LeakagePricer(library or default_library(), n).price \
        if collect_leakage else None
    ones = [word.bit_count() for word in values] \
        if collect_leakage else []
    leakage: dict[str, float] = {}
    for row in range(first, len(lines)):
        op, ins = rows.ops[row], rows.fanin[row]
        word = values[row] = eval_row(op, ins, values, full)
        line = lines[row]
        transitions[line] = _transition_count(word, boundary)
        if price is not None:
            ones[row] = word.bit_count()
            leakage[line] = price(op, ins, values, ones)
        for dead in releases[row]:
            values[dead] = 0
    waveforms = dict(zip(lines, values)) if keep_waveforms else None
    return transitions, leakage, waveforms


#: What :func:`resolve_backend` returns: the engine's name only.
_ENGINE = SimpleNamespace(name="bigint")


def resolve_backend(spec: object = None) -> SimpleNamespace:
    """An object whose ``name`` is ``"bigint"``, whatever ``spec`` is.

    Kept only because ``perfbench/workloads.py`` (``resolved_runtime``)
    imports it to record the resolved engines, like
    :func:`~repro.simulation.episode.episode_batching_enabled`; there
    is one engine, and no entry point takes an engine argument.
    """
    return _ENGINE


#: Alias of :func:`resolve_backend`, kept for the same benchmark
#: harness: fault simulation runs on the same engine.
resolve_fault_backend = resolve_backend
