"""Tests for bit-parallel fault simulation."""

import pytest

from repro.atpg.faults import Fault, all_faults, observable_lines
from repro.atpg.faultsim import detect_word, fault_simulate, scalar_replay
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.simulation.bitsim import pack_input_vectors, simulate_packed
from repro.simulation.eval2 import comb_input_lines, simulate_comb
from repro.simulation.fault_episode import FaultSimSession


def two_gate() -> Circuit:
    c = Circuit("two")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("m", GateType.AND, ("a", "b"))
    c.add_gate("y", GateType.NOT, ("m",))
    c.add_output("y")
    return c


class TestDetectWord:
    def test_and_sa1_detected_by_01_10_00(self):
        c = two_gate()
        vectors = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
        words, n = pack_input_vectors(c, vectors)
        good = simulate_packed(c, words, n)
        word = detect_word(c, Fault("m", 1), good, n)
        # m/sa1 flips y whenever the good value of m is 0: patterns
        # 00, 01, 10 -> bits 0, 1, 2.
        assert word == 0b0111

    def test_input_fault(self):
        c = two_gate()
        vectors = [{"a": a, "b": b} for a in (0, 1) for b in (0, 1)]
        words, n = pack_input_vectors(c, vectors)
        good = simulate_packed(c, words, n)
        # a/sa0: observable only when b=1 and a=1 (good m=1, faulty m=0)
        word = detect_word(c, Fault("a", 0), good, n)
        assert word == 0b1000

    def test_stuck_equal_good_undetected(self):
        c = two_gate()
        vectors = [{"a": 0, "b": 0}]
        words, n = pack_input_vectors(c, vectors)
        good = simulate_packed(c, words, n)
        assert detect_word(c, Fault("a", 0), good, n) == 0


class TestFaultSimulate:
    def test_exhaustive_patterns_detect_everything_testable(self, s27):
        universe = all_faults(s27)
        lines = comb_input_lines(s27)
        vectors = [
            {line: (code >> i) & 1 for i, line in enumerate(lines)}
            for code in range(2 ** len(lines))
        ]
        words, n = pack_input_vectors(s27, vectors)
        result = fault_simulate(s27, universe, words, n)
        # Any fault undetected under the full input space is untestable.
        for fault in result.remaining:
            again = detect_word(
                s27, fault, simulate_packed(s27, words, n), n)
            assert again == 0

    def test_detected_word_consistency(self, s27):
        """Every claimed detecting pattern must show a PO/D difference
        when re-simulated scalar with the fault injected manually."""
        universe = all_faults(s27)[:12]
        lines = comb_input_lines(s27)
        vectors = [
            {line: (code * 37 >> i) & 1 for i, line in enumerate(lines)}
            for code in range(16)
        ]
        words, n = pack_input_vectors(s27, vectors)
        result = fault_simulate(s27, universe, words, n, drop=False)
        obs = observable_lines(s27)
        for fault, word in result.detected.items():
            t = (word & -word).bit_length() - 1  # first detecting pattern
            good = simulate_comb(s27, vectors[t])
            bad = _simulate_with_fault(s27, vectors[t], fault)
            assert any(good[o] != bad[o] for o in obs), str(fault)

    def test_drop_vs_no_drop_same_detection_set(self, s27):
        universe = all_faults(s27)
        lines = comb_input_lines(s27)
        vectors = [
            {line: (code * 11 >> i) & 1 for i, line in enumerate(lines)}
            for code in range(32)
        ]
        words, n = pack_input_vectors(s27, vectors)
        dropped = fault_simulate(s27, universe, words, n, drop=True)
        full = fault_simulate(s27, universe, words, n, drop=False)
        assert set(dropped.detected) == set(full.detected)

    def test_coverage_metric(self, s27):
        universe = all_faults(s27)
        lines = comb_input_lines(s27)
        words, n = pack_input_vectors(
            s27, [{line: 0 for line in lines}])
        result = fault_simulate(s27, universe, words, n)
        assert 0.0 <= result.coverage() <= 1.0
        assert result.coverage(1000) == result.n_detected / 1000

    def test_no_drop_remaining_holds_only_undetected(self, s27):
        """Regression: drop=False used to append detected faults to
        ``remaining``, double-counting them in ``coverage()``."""
        universe = all_faults(s27)
        lines = comb_input_lines(s27)
        vectors = [
            {line: (code * 11 >> i) & 1 for i, line in enumerate(lines)}
            for code in range(32)
        ]
        words, n = pack_input_vectors(s27, vectors)
        result = fault_simulate(s27, universe, words, n, drop=False)
        assert result.n_detected > 0
        assert set(result.remaining).isdisjoint(result.detected)
        assert len(result.detected) + len(result.remaining) == len(universe)
        assert result.coverage() == result.n_detected / len(universe)
        # remaining keeps the input (universe) ordering
        undetected = [f for f in universe if f not in result.detected]
        assert result.remaining == undetected

    @pytest.mark.parametrize("drop", [True, False])
    def test_drop_flag_never_changes_the_result(self, s27, drop):
        universe = all_faults(s27)
        lines = comb_input_lines(s27)
        words, n = pack_input_vectors(
            s27, [{line: (code >> i) & 1 for i, line in enumerate(lines)}
                  for code in range(8)])
        result = fault_simulate(s27, universe, words, n, drop=drop)
        baseline = fault_simulate(s27, universe, words, n)
        assert result.detected == baseline.detected
        assert result.remaining == baseline.remaining


class TestUnknownFaultLine:
    """A fault on a line the circuit lacks is rejected the same way by
    ``fault_simulate`` and by a session, never silently left
    undetected."""

    @pytest.mark.parametrize("engine", ["bigint", "session-bigint"])
    def test_every_engine_raises_simulation_error(self, s27, engine):
        from repro.errors import SimulationError

        faults = all_faults(s27)[:3] + [Fault("zz", 0)]
        words, n = pack_input_vectors(
            s27, [{line: 0 for line in comb_input_lines(s27)}])
        with pytest.raises(SimulationError, match="'zz'"):
            if engine.startswith("session-"):
                FaultSimSession(s27).simulate(faults, words, n)
            else:
                fault_simulate(s27, faults, words, n)

    def test_detect_word_raises_simulation_error(self, s27):
        from repro.errors import SimulationError

        words, n = pack_input_vectors(
            s27, [{line: 0 for line in comb_input_lines(s27)}])
        good = simulate_packed(s27, words, n)
        with pytest.raises(SimulationError, match="'zz'"):
            detect_word(s27, Fault("zz", 1), good, n)


@pytest.mark.parametrize("engine", ["bigint"])
def test_bad_pattern_count_and_good_map_raise(s27, engine):
    """``n < 1`` and a good machine missing a line fail with a
    :class:`SimulationError`, never a word wider than ``n`` patterns,
    a bare ``ValueError`` or a ``KeyError``."""
    faults = all_faults(s27)
    words, n = pack_input_vectors(
        s27, [{line: 1 for line in comb_input_lines(s27)}] * 8)
    good = simulate_packed(s27, words, n)
    for bad_n in (0, -1):
        with pytest.raises(SimulationError, match=f"got {bad_n}"):
            fault_simulate(s27, faults, words, bad_n)
        with pytest.raises(SimulationError, match=f"got {bad_n}"):
            FaultSimSession(s27).simulate(faults, words, bad_n)
        with pytest.raises(SimulationError, match=f"got {bad_n}"):
            detect_word(s27, faults[0], good, bad_n)
        with pytest.raises(SimulationError, match=f"got {bad_n}"):
            scalar_replay(s27, faults, good, bad_n)
    partial = {line: word for line, word in good.items() if line != "G1"}
    with pytest.raises(SimulationError, match="'G1'"):
        detect_word(s27, Fault("G17", 0), partial, n)
    with pytest.raises(SimulationError, match="'G1'"):
        scalar_replay(s27, faults, partial, n)


def _simulate_with_fault(circuit, inputs, fault):
    """Scalar faulty-machine simulation (reference implementation)."""
    from repro.netlist.gates import eval_gate

    values = dict(inputs)
    if fault.line in values:
        values[fault.line] = fault.stuck_at
    for line in circuit.topo_order():
        gate = circuit.gates[line]
        value = eval_gate(gate.gtype, [values[s] for s in gate.inputs])
        values[line] = fault.stuck_at if line == fault.line else value
    return values
