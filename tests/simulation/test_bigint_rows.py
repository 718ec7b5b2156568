"""Differential tests: row-space big-int engine vs the frozen oracle.

The ``bigint`` backend evaluates a circuit over the integer rows of its
memoized :class:`~repro.simulation.schedule.RowTable` and prices leakage
from minterm-split counts.  Its words, transition counts and leakage
floats must equal those of the name-keyed engine frozen in
``bigint_reference`` exactly, entry order included (downstream float
sums follow it).  The row table and the switched-capacitance map are
derived data of one :attr:`Circuit.version`.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import bigint_reference as reference
from repro.atpg.faults import all_faults
from repro.atpg.faultsim import scalar_replay
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.cells.capacitance import load_map_ff, switched_caps_ff
from repro.cells.library import CellLibrary, default_library
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import COMBINATIONAL_TYPES, GateType
from repro.simulation import schedule
from repro.simulation.backends import get_backend
from repro.simulation.bitsim import random_input_words, simulate_packed
from repro.simulation.cyclesim import simulate_cycles
from repro.simulation.episode import EpisodePlan
from repro.simulation.eval2 import comb_input_lines
from repro.simulation.values import mask, minterm_counts, pattern_count
from repro.utils.rng import make_rng
from tests.atpg.gate_mix import sprinkle_gates
from tests.atpg.generate_podem_pins import (
    PODEM_CIRCUITS,
    mapped_circuit,
)

#: Pattern counts straddling the 64-bit word boundary, plus a long run.
SIZES = (1, 2, 63, 64, 65, 4096)


def _assert_matches_oracle(circuit, words, n, library=None):
    """Every product quantity equals the oracle's, in the same order."""
    library = library or default_library()
    state = get_backend("bigint").run(circuit, words, n)
    want = reference.simulate_packed_bigint(circuit, words, n)
    assert list(state.words().items()) == list(want.items())
    assert list(state.lines()) == list(want)
    assert list(state.transitions().items()) == \
        list(reference.transitions(want, n).items())
    assert list(state.leakage_sum(library).items()) == \
        list(reference.leakage_sum(circuit, want, n, library).items())
    return want


def _gate_mix(seed):
    stats = Iscas89Stats("mix", 5, 2, 3, 40)
    return sprinkle_gates(generate_from_stats(stats, seed), seed)


GATE_MIX_SEEDS = tuple(range(8))


class TestAgainstOracle:
    @pytest.mark.parametrize("name", PODEM_CIRCUITS)
    def test_table1_circuits(self, name):
        """s27 and the six ``table1_cold`` circuits, mapped."""
        circuit = mapped_circuit(name)
        for n, seed in ((130, 1), (1, 2)):
            words = random_input_words(circuit, n, make_rng(seed))
            _assert_matches_oracle(circuit, words, n)

    @pytest.mark.parametrize("seed", GATE_MIX_SEEDS)
    def test_gate_mix_netlists(self, seed):
        circuit = _gate_mix(seed)
        for n in SIZES:
            words = random_input_words(circuit, n, make_rng(seed + n))
            _assert_matches_oracle(circuit, words, n)

    def test_gate_mix_covers_every_kind(self):
        kinds = {gate.gtype for seed in GATE_MIX_SEEDS
                 for gate in _gate_mix(seed).combinational_gates()}
        assert kinds == set(COMBINATIONAL_TYPES)

    def test_constant_stimulus(self, s27_mapped):
        for n in SIZES:
            for value in (0, mask(n)):
                words = dict.fromkeys(comb_input_lines(s27_mapped), value)
                _assert_matches_oracle(s27_mapped, words, n)


class TestMintermCounts:
    @pytest.mark.parametrize("k", range(6))
    def test_equals_pattern_count(self, k):
        rng = make_rng(k)
        for n in (0, 1, 5, 64, 200):
            # Bits above ``n`` must be ignored, as pattern_count does.
            words = [int.from_bytes(rng.bytes(32), "little")
                     for _ in range(k)]
            counts = minterm_counts(words, n)
            assert len(counts) == 1 << k
            for code, got in enumerate(counts):
                pattern = tuple((code >> pin) & 1 for pin in range(k))
                assert got == pattern_count(words, pattern, n)
                assert got == reference.pattern_count(words, pattern, n)
            assert sum(counts) == n

    def test_zero_inputs(self):
        assert minterm_counts([], 7) == [7]
        assert minterm_counts([], 0) == [0]

    def test_pattern_count_rejects_length_mismatch(self):
        a, b = 0b0101, 0b0011
        for words, pattern in (([a, b], (1,)), ([a], (1, 0)),
                               ([], (1,))):
            with pytest.raises(ValueError, match="pattern has"):
                pattern_count(words, pattern, 4)


def _every_kind():
    """A small scan netlist holding every combinational gate type."""
    circuit = _gate_mix(0)
    circuit.add_gate("k_and", GateType.AND, ("tie0", "tie1"))
    circuit.add_gate("k_or", GateType.OR, ("k_and", "tie1"))
    circuit.add_gate("k_buf", GateType.BUFF, ("k_or",))
    circuit.add_output("k_buf")
    return circuit


class TestDerivedData:
    def test_mutation_between_runs(self):
        circuit = _every_kind()
        words = random_input_words(circuit, 65, make_rng(5))
        before = _assert_matches_oracle(circuit, words, 65)
        caps_before = switched_caps_ff(circuit)
        circuit.replace_gate("k_or", GateType.XNOR, ("k_and", "tie0"))
        circuit.replace_gate("k_buf", GateType.NOT, ("k_or",))
        after = _assert_matches_oracle(circuit, words, 65)
        assert after != before
        caps = switched_caps_ff(circuit)
        assert caps == load_map_ff(circuit, default_library())
        assert caps != caps_before

    def test_row_table_built_once_per_version(self, monkeypatch):
        """The good machine and the fault replay share one build."""
        builds = []
        build = schedule.build_row_table

        def counting(circuit):
            builds.append(circuit.version)
            return build(circuit)

        monkeypatch.setattr(schedule, "build_row_table", counting)
        circuit = _every_kind()
        faults = all_faults(circuit)
        words = random_input_words(circuit, 8, make_rng(6))
        good = simulate_packed(circuit, words, 8, backend="bigint")
        scalar_replay(circuit, faults, good, 8)
        simulate_cycles(circuit, words, 8, backend="bigint")
        assert builds == [circuit.version]

        circuit.replace_gate("k_buf", GateType.NOT, ("k_or",))
        good = simulate_packed(circuit, words, 8, backend="bigint")
        scalar_replay(circuit, faults, good, 8)
        assert builds == [builds[0], circuit.version]

    def test_row_table_does_not_keep_the_circuit_alive(self):
        circuit = _every_kind()
        simulate_packed(circuit, random_input_words(
            circuit, 4, make_rng(7)), 4, backend="bigint")
        switched_caps_ff(circuit)
        ref = weakref.ref(circuit)
        del circuit
        gc.collect()
        assert ref() is None

    def test_caps_memoized_per_library(self, s27_mapped):
        library = default_library()
        caps = switched_caps_ff(s27_mapped, library)
        assert switched_caps_ff(s27_mapped) is caps
        assert switched_caps_ff(s27_mapped, CellLibrary()) is caps
        other = CellLibrary(output_load_ff=5.0)
        assert switched_caps_ff(s27_mapped, other) == \
            load_map_ff(s27_mapped, other)
        assert switched_caps_ff(s27_mapped, other) is not caps
        assert caps == load_map_ff(s27_mapped, library)

    def test_caps_mapping_rejects_writes(self, s27_mapped):
        caps = switched_caps_ff(s27_mapped)
        line = next(iter(caps))
        with pytest.raises(TypeError):
            caps[line] = 0.0  # type: ignore[index]
        with pytest.raises(TypeError):
            del caps[line]  # type: ignore[attr-defined]
        assert switched_caps_ff(s27_mapped) == load_map_ff(s27_mapped)


@pytest.mark.parametrize("engine", ["bigint"])
def test_negative_pattern_count_raises(s27_mapped, engine):
    """``n = -1`` is a :class:`SimulationError` on the engine (passed
    by name), never a bare ``ValueError``; ``n = 0`` is an empty
    simulation."""
    backend = get_backend(engine)
    words = dict.fromkeys(comb_input_lines(s27_mapped), 0)
    for call in (lambda: backend.run(s27_mapped, words, -1),
                 lambda: simulate_packed(s27_mapped, words, -1,
                                         backend=engine),
                 lambda: simulate_cycles(s27_mapped, words, -1,
                                         backend=engine)):
        with pytest.raises(SimulationError, match="got -1"):
            call()
    empty = simulate_cycles(s27_mapped, words, 0, backend=engine)
    assert empty.n_cycles == 0
    assert set(empty.leakage_sum_na.values()) == {0.0}
    assert set(empty.transitions.values()) == {0}
    assert empty.mean_leakage_na == 0.0


def _repeated_fanin_circuit() -> Circuit:
    """Gates of arity 1-4 (and 0), several reading a line on two or
    more pins, so the shared-popcount counts meet ``a & a``."""
    c = Circuit("fanin")
    for name in ("a", "b", "c", "d"):
        c.add_input(name)
    c.add_gate("t1", GateType.CONST1, ())
    c.add_gate("inv", GateType.NOT, ("a",))
    c.add_gate("buf", GateType.BUFF, ("inv",))
    c.add_gate("and_aa", GateType.AND, ("a", "a"))
    c.add_gate("nor_ab", GateType.NOR, ("a", "b"))
    c.add_gate("xor_bt", GateType.XOR, ("b", "t1"))
    c.add_gate("nand_aba", GateType.NAND, ("a", "b", "a"))
    c.add_gate("or_cdc", GateType.OR, ("c", "d", "inv"))
    c.add_gate("mux", GateType.MUX2, ("nor_ab", "c", "nor_ab"))
    c.add_gate("nand4", GateType.NAND, ("a", "b", "c", "d"))
    c.add_gate("nor4", GateType.NOR, ("d", "and_aa", "d", "mux"))
    c.add_gate("xnor4", GateType.XNOR, ("inv", "inv", "buf", "c"))
    for out in ("nand_aba", "or_cdc", "nand4", "nor4", "xnor4",
                "xor_bt"):
        c.add_output(out)
    return c


class TestLeakagePricingPins:
    """The fused episode replay, :meth:`BigIntState.leakage_sum` and the
    frozen ``pattern_count`` pricing agree item by item, in dict order,
    on repeated fan-in, one-cycle plans and constant words."""

    @staticmethod
    def _assert_three_way(circuit, words, n):
        library = default_library()
        want = reference.simulate_packed_bigint(circuit, words, n)
        want_leak = list(reference.leakage_sum(circuit, want, n,
                                               library).items())
        want_trans = list(reference.transitions(want, n).items())
        state = get_backend("bigint").run(circuit, words, n)
        assert list(state.leakage_sum(library).items()) == want_leak
        assert list(state.transitions().items()) == want_trans
        plan = EpisodePlan(circuit=circuit, waveforms=dict(words),
                           n_cycles=n, offsets=(0,), lengths=(n,))
        batch = get_backend("bigint").simulate_episode_batch(plan, library)
        assert list(batch.leakage_sum_na.items()) == want_leak
        assert list(batch.transitions.items()) == want_trans
        assert [value.hex() for _, value in want_leak] == \
            [value.hex() for value in batch.leakage_sum_na.values()]

    @pytest.mark.parametrize("n", SIZES)
    def test_repeated_fanin_random_words(self, n):
        circuit = _repeated_fanin_circuit()
        for seed in range(3):
            words = random_input_words(circuit, n, make_rng(seed + n))
            self._assert_three_way(circuit, words, n)

    @pytest.mark.parametrize("n", SIZES)
    def test_all_zero_and_all_one_words(self, n):
        circuit = _repeated_fanin_circuit()
        lines = comb_input_lines(circuit)
        for words in (dict.fromkeys(lines, 0), dict.fromkeys(lines, mask(n)),
                      {line: mask(n) * (i % 2)
                       for i, line in enumerate(lines)}):
            self._assert_three_way(circuit, words, n)

    @pytest.mark.parametrize("seed", GATE_MIX_SEEDS[:4])
    def test_one_cycle_plans(self, seed):
        circuit = _gate_mix(seed)
        for code in range(4):
            words = random_input_words(circuit, 1, make_rng(seed * 4 + code))
            self._assert_three_way(circuit, words, 1)

    def test_table1_circuits(self):
        for name in PODEM_CIRCUITS:
            circuit = mapped_circuit(name)
            words = random_input_words(circuit, 200, make_rng(7))
            self._assert_three_way(circuit, words, 200)


def test_minterm_split_popcounts():
    """A ``k``-input gate costs ``2^k - 1`` popcounts."""

    class Counting(int):
        calls = 0

        def __and__(self, other):
            return Counting(int(self) & int(other))

        __rand__ = __and__

        def __xor__(self, other):
            return Counting(int(self) ^ int(other))

        def bit_count(self):
            Counting.calls += 1
            return int(self).bit_count()

    for k in range(5):
        Counting.calls = 0
        words = [Counting(w) for w in (0b1011, 0b0110, 0b1100, 0b0101)[:k]]
        minterm_counts(words, 4)
        assert Counting.calls == (1 << k) - 1
