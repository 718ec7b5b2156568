"""Tests for TNS/TGS transition bookkeeping.

The compiled :func:`update_tns_tgs` is diffed against the original
per-pass version in ``tns_reference.py`` on every call the six cold
Table-I rows' two pattern searches make and on generated netlists with
random line values.
"""

import random

from hypothesis import given, settings, strategies as st

import repro.core.find_pattern as find_pattern_module
import tns_reference
from repro.benchgen import generate_circuit
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.core.config import FlowConfig
from repro.core.flow import ProposedFlow
from repro.core.tns import update_tns_tgs
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType, X

#: the six rows of the cold Table-I campaign
TABLE1_ROWS = ("s344", "s382", "s444", "s510", "s641", "s713")


def _assert_matches_reference(circuit, values, sources, failed_gates=None):
    """The product analysis, checked equal to the reference one (TGS
    lists and key order included)."""
    expected = tns_reference.update_tns_tgs(
        circuit, dict(values), set(sources), set(failed_gates or ()))
    got = update_tns_tgs(circuit, values, sources, failed_gates)
    assert got == expected
    assert list(got.tgs.items()) == list(expected.tgs.items())
    return got


def blocking_chain() -> Circuit:
    """q -> NAND(q, a) -> NOT -> NOR(., b) -> PO."""
    c = Circuit("blocking")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("q", GateType.DFF, ("d",))
    c.add_gate("g1", GateType.NAND, ("q", "a"))
    c.add_gate("g2", GateType.NOT, ("g1",))
    c.add_gate("g3", GateType.NOR, ("g2", "b"))
    c.add_gate("d", GateType.NOT, ("g3",))
    c.add_output("g3")
    c.validate()
    return c


class TestUpdateTnsTgs:
    def test_unblocked_candidate(self):
        c = blocking_chain()
        values = {line: X for line in c.lines()}
        analysis = update_tns_tgs(c, values, {"q"})
        assert analysis.tns == {"q"}
        assert "g1" in analysis.tgs
        assert analysis.tgs["g1"] == ["q"]

    def test_controlling_side_input_blocks(self):
        c = blocking_chain()
        values = {line: X for line in c.lines()}
        values["a"] = 0  # controlling for NAND
        analysis = update_tns_tgs(c, values, {"q"})
        assert analysis.tns == {"q"}
        assert "g1" in analysis.blocked_at
        assert "g1" not in analysis.tgs

    def test_non_controlling_side_propagates(self):
        c = blocking_chain()
        values = {line: X for line in c.lines()}
        values["a"] = 1  # non-controlling: transition passes g1
        analysis = update_tns_tgs(c, values, {"q"})
        assert {"q", "g1", "g2"} <= analysis.tns
        # it stops at g3 only if b blocks; b is X -> candidate
        assert "g3" in analysis.tgs

    def test_transparent_gates_propagate(self):
        c = Circuit("transparent")
        c.add_input("a")
        c.add_gate("q", GateType.DFF, ("d",))
        c.add_gate("x1", GateType.XOR, ("q", "a"))
        c.add_gate("n1", GateType.NOT, ("x1",))
        c.add_gate("d", GateType.BUFF, ("n1",))
        c.add_output("n1")
        c.validate()
        values = {line: X for line in c.lines()}
        values["a"] = 0  # XOR has no controlling value: still propagates
        analysis = update_tns_tgs(c, values, {"q"})
        assert {"q", "x1", "n1"} <= analysis.tns
        assert not analysis.tgs

    def test_transitions_stop_at_flops(self):
        c = Circuit("stop")
        c.add_gate("q0", GateType.DFF, ("d0",))
        c.add_gate("q1", GateType.DFF, ("q0",))  # direct Q -> next D
        c.add_gate("d0", GateType.NOT, ("q1",))
        c.add_output("q1")
        c.validate()
        values = {line: X for line in c.lines()}
        analysis = update_tns_tgs(c, values, {"q0"})
        # q0 drives only the DFF q1: nothing propagates combinationally.
        assert analysis.tns == {"q0"}

    def test_failed_gate_forces_propagation(self):
        c = blocking_chain()
        values = {line: X for line in c.lines()}
        analysis = update_tns_tgs(c, values, {"q"}, failed_gates={"g1"})
        assert "g1" in analysis.tns
        assert "g1" not in analysis.tgs
        assert "g3" in analysis.tgs  # next blocking opportunity

    def test_multi_tn_gate(self):
        c = Circuit("multi")
        c.add_input("a")
        c.add_gate("q0", GateType.DFF, ("g",))
        c.add_gate("q1", GateType.DFF, ("g",))
        c.add_gate("g", GateType.NAND, ("q0", "q1", "a"))
        c.add_output("g")
        c.validate()
        values = {line: X for line in c.lines()}
        analysis = update_tns_tgs(c, values, {"q0", "q1"})
        assert set(analysis.tgs.get("g", [])) == {"q0", "q1"}

    def test_blocked_value_from_simulation(self):
        """When the 3-valued state already fixes a gate output to a
        binary value, no transition passes regardless of paths."""
        c = blocking_chain()
        from repro.simulation.eval3 import simulate_comb3
        values = simulate_comb3(c, {"a": 0})
        analysis = update_tns_tgs(c, values, {"q"})
        assert analysis.tns == {"q"}
        assert not analysis.tgs

    def test_mux_gate_is_conservative(self):
        c = Circuit("mux")
        c.add_input("s")
        c.add_gate("q", GateType.DFF, ("m",))
        c.add_gate("m", GateType.MUX2, ("s", "q", "s"))
        c.add_output("m")
        c.validate()
        values = {line: X for line in c.lines()}
        analysis = update_tns_tgs(c, values, {"q"})
        # MUX2 is treated as unblockable: the transition passes.
        assert "m" in analysis.tns


class TestAgainstReference:
    def test_every_call_of_the_table1_searches(self, monkeypatch):
        """Both searches of each row (the proposed pattern and the
        input-control baseline) see the reference analysis."""
        calls: list[str] = []

        def spy(circuit, values, sources, failed_gates=None):
            calls.append(circuit.name)
            return _assert_matches_reference(circuit, values, sources,
                                             failed_gates)

        monkeypatch.setattr(find_pattern_module, "update_tns_tgs", spy)
        for name in TABLE1_ROWS:
            ProposedFlow(FlowConfig(seed=1)).run(generate_circuit(name, 1))
        assert len(calls) >= 400
        assert set(calls) == set(TABLE1_ROWS)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000),
           n_inputs=st.integers(1, 6),
           n_dffs=st.integers(1, 6),
           n_gates=st.integers(10, 60))
    def test_generated_netlists_with_random_values(self, seed, n_inputs,
                                                   n_dffs, n_gates):
        circuit = generate_from_stats(
            Iscas89Stats("hyp", n_inputs, 2, n_dffs, n_gates), seed)
        rng = random.Random(seed)
        lines = list(circuit.lines())
        gates = circuit.topo_order()
        for _ in range(5):
            values = {line: rng.choice((0, 1, X)) for line in lines
                      if rng.random() < 0.9}
            sources = set(rng.sample(lines, rng.randint(1, 4)))
            failed = set(rng.sample(gates, rng.randint(0, 3)))
            _assert_matches_reference(circuit, values, sources, failed)

    def test_repeated_input_pins(self):
        """A line feeding two pins of one gate is two sinks, as in the
        fanout list: the reference appends it to the TGS twice."""
        c = Circuit("repeated")
        c.add_input("a")
        c.add_gate("q", GateType.DFF, ("g",))
        c.add_gate("g", GateType.NAND, ("q", "q", "a"))
        c.add_output("g")
        c.validate()
        analysis = _assert_matches_reference(c, {}, {"q"})
        assert analysis.tgs == {"g": ["q", "q"]}

    def test_mutation_recompiles(self):
        c = blocking_chain()
        values = {line: X for line in c.lines()}
        values["a"] = 1
        assert "g4" not in _assert_matches_reference(c, values, {"q"}).tns
        c.add_gate("g4", GateType.NOT, ("g1",))
        assert "g4" in _assert_matches_reference(c, values, {"q"}).tns
