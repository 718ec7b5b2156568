"""Frozen name-keyed big-int engine: an oracle for the row-space engine.

This is the big-int good machine and power pricing of
:mod:`repro.simulation.backends.bigint` kept verbatim as a test-side
oracle: a dict of words filled gate by gate with one
:func:`eval_gate_packed` call each, per-line transition counts, and
per-gate leakage priced with one :func:`pattern_count` per leakage-table
pattern (``k`` ANDs and one popcount each).

It is the denominator of the numpy-vs-bigint cycle-sim and packed-sim
ratios and of the bigint cycle-replay speedup in
``benchmarks/bench_perf.py``, so keep it byte-for-byte as it is: a
faster oracle would silently move those gates.

* :func:`simulate_packed_bigint` is the packed good machine;
* :func:`transitions`, :func:`leakage_sum` and :func:`pattern_counts`
  derive the power quantities from its words;
* :func:`simulate_cycles` is the cycle-sim pass the benches time.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.cells.library import CellLibrary
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.simulation.bitsim import eval_gate_packed
from repro.simulation.eval2 import comb_input_lines
from repro.simulation.values import count_transitions, mask

__all__ = ["leakage_sum", "pattern_count", "pattern_counts",
           "simulate_cycles", "simulate_packed_bigint", "transitions"]


def simulate_packed_bigint(circuit: Circuit,
                           input_words: Mapping[str, int],
                           n: int) -> dict[str, int]:
    """The raw big-int reference engine (no backend dispatch)."""
    full = mask(n)
    words: dict[str, int] = {}
    for line in comb_input_lines(circuit):
        try:
            word = input_words[line]
        except KeyError:
            raise SimulationError(
                f"missing packed input for line {line!r}") from None
        if word < 0 or word > full:
            raise SimulationError(
                f"line {line!r}: word out of range for {n} patterns")
        words[line] = word
    for line in circuit.topo_order():
        gate = circuit.gates[line]
        words[line] = eval_gate_packed(
            gate.gtype, [words[src] for src in gate.inputs], full)
    return words


def pattern_count(input_words: Sequence[int], pattern: Sequence[int],
                  n: int) -> int:
    """Count positions where the inputs jointly equal ``pattern``."""
    word = mask(n)
    full = word
    for in_word, bit in zip(input_words, pattern):
        word &= in_word if bit else (in_word ^ full)
        if word == 0:
            return 0
    return word.bit_count()


def transitions(words: Mapping[str, int], n: int) -> dict[str, int]:
    """Per-line count of value changes between consecutive patterns."""
    return {line: count_transitions(word, n)
            for line, word in words.items()}


def leakage_sum(circuit: Circuit, words: Mapping[str, int], n: int,
                library: CellLibrary) -> dict[str, float]:
    """Per-gate-output leakage (nA) summed over all patterns."""
    leakage: dict[str, float] = {}
    for line in circuit.topo_order():
        gate = circuit.gates[line]
        table = library.leakage_table(gate.gtype, len(gate.inputs))
        in_words = [words[src] for src in gate.inputs]
        total = 0.0
        for pattern, leak_na in table.items():
            cycles = pattern_count(in_words, pattern, n)
            if cycles:
                total += cycles * leak_na
        leakage[line] = total
    return leakage


def pattern_counts(circuit: Circuit, words: Mapping[str, int],
                   n: int) -> dict[str, np.ndarray]:
    """Exact per-gate pattern counts (pin ``j`` = bit ``j`` of a code)."""
    counts: dict[str, np.ndarray] = {}
    for line in circuit.topo_order():
        gate = circuit.gates[line]
        arity = len(gate.inputs)
        in_words = [words[src] for src in gate.inputs]
        arr = np.empty(1 << arity, dtype=np.int64)
        for code in range(1 << arity):
            pattern = tuple((code >> pin) & 1 for pin in range(arity))
            arr[code] = pattern_count(in_words, pattern, n)
        counts[line] = arr
    return counts


def simulate_cycles(circuit: Circuit, input_words: Mapping[str, int],
                    n: int, library: CellLibrary
                    ) -> tuple[dict[str, int], dict[str, float]]:
    """``(transitions, leakage sums)`` of one packed cycle simulation."""
    words = simulate_packed_bigint(circuit, input_words, n)
    return transitions(words, n), leakage_sum(circuit, words, n, library)
