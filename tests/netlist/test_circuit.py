"""Tests for repro.netlist.circuit."""

import pytest

from repro.errors import CombinationalLoopError, NetlistError
from repro.netlist.circuit import Circuit, Gate
from repro.netlist.gates import GateType


def small_circuit() -> Circuit:
    c = Circuit("small")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("n1", GateType.NAND, ("a", "b"))
    c.add_gate("n2", GateType.NOT, ("n1",))
    c.add_output("n2")
    return c


class TestConstruction:
    def test_repr_counts(self, s27):
        text = repr(s27)
        assert "4 PI" in text and "3 DFF" in text

    def test_duplicate_input_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.add_input("a")

    def test_duplicate_driver_rejected(self):
        c = small_circuit()
        with pytest.raises(NetlistError):
            c.add_gate("n1", GateType.NOT, ("a",))

    def test_driving_an_input_rejected(self):
        c = small_circuit()
        with pytest.raises(NetlistError):
            c.add_gate("a", GateType.NOT, ("b",))

    def test_duplicate_output_rejected(self):
        c = small_circuit()
        with pytest.raises(NetlistError):
            c.add_output("n2")

    def test_gate_validates_arity(self):
        with pytest.raises(NetlistError):
            Gate("x", GateType.NOT, ("a", "b"))

    def test_gate_str(self):
        gate = Gate("x", GateType.NAND, ("a", "b"))
        assert str(gate) == "x = NAND(a, b)"


class TestQueries:
    def test_lines_order(self):
        c = small_circuit()
        assert list(c.lines()) == ["a", "b", "n1", "n2"]

    def test_is_input_output(self):
        c = small_circuit()
        assert c.is_input("a") and not c.is_input("n1")
        assert c.is_output("n2") and not c.is_output("n1")

    def test_fanout(self):
        c = small_circuit()
        assert c.fanout("a") == [("n1", 0)]
        assert c.fanout("n1") == [("n2", 0)]
        assert c.fanout("n2") == []

    def test_fanout_count_multi(self, s27):
        # G8 feeds G15 and G16 in s27
        assert s27.fanout_count("G8") == 2

    def test_dff_lists(self, s27):
        assert sorted(s27.dff_outputs) == ["G5", "G6", "G7"]
        assert len(s27.dff_gates) == 3

    def test_len_counts_all_gates(self, s27):
        assert len(s27) == 13  # 10 combinational + 3 DFF


class TestTopology:
    def test_topo_order_respects_dependencies(self, s27):
        order = s27.topo_order()
        position = {line: i for i, line in enumerate(order)}
        for line in order:
            gate = s27.gates[line]
            for src in gate.inputs:
                if src in position:
                    assert position[src] < position[line]

    def test_levels(self):
        c = small_circuit()
        assert c.level_of("a") == 0
        assert c.level_of("n1") == 1
        assert c.level_of("n2") == 2
        assert c.depth() == 2

    def test_level_of_unknown_raises(self):
        with pytest.raises(NetlistError):
            small_circuit().level_of("zzz")

    def test_dff_outputs_are_level_zero(self, s27):
        for q in s27.dff_outputs:
            assert s27.level_of(q) == 0

    def test_combinational_loop_detected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("x", GateType.NAND, ("a", "y"))
        c.add_gate("y", GateType.NAND, ("a", "x"))
        with pytest.raises(CombinationalLoopError):
            c.topo_order()

    def test_sequential_loop_is_fine(self, s27):
        # s27 has feedback through flops only; must levelise.
        assert len(s27.topo_order()) == 10


class TestCones:
    def test_fanin_cone_stops_at_flops(self, s27):
        cone = s27.fanin_cone("G10")
        assert "G14" in cone and "G11" in cone
        # G11 is a gate output; its cone members continue, but flop Q G5
        # inside is a boundary: its D-side logic is not included.
        assert "G5" in s27.fanin_cone("G11")

    def test_fanout_cone_includes_self(self):
        c = small_circuit()
        assert c.fanout_cone("a") == {"a", "n1", "n2"}

    def test_fanout_cone_stops_at_dff(self, s27):
        cone = s27.fanout_cone("G10")
        # G10 only feeds DFF G5, so the cone is just itself.
        assert cone == {"G10"}


class TestMutation:
    def test_remove_gate(self):
        c = small_circuit()
        c.remove_gate("n2")
        assert "n2" not in c.gates
        with pytest.raises(NetlistError):
            c.remove_gate("n2")

    def test_replace_gate(self):
        c = small_circuit()
        c.replace_gate("n1", GateType.NOR, ("a", "b"))
        assert c.gates["n1"].gtype is GateType.NOR

    def test_replace_missing_raises(self):
        with pytest.raises(NetlistError):
            small_circuit().replace_gate("zzz", GateType.NOT, ("a",))

    def test_rename_line_updates_everything(self):
        c = small_circuit()
        c.rename_line("n1", "mid")
        assert "mid" in c.gates
        assert c.gates["n2"].inputs == ("mid",)
        c.rename_line("a", "alpha")
        assert "alpha" in c.inputs
        assert c.gates["mid"].inputs == ("alpha", "b")

    def test_rename_and_copy_keep_is_output(self):
        c = small_circuit()
        c.add_output("n1")
        c.rename_line("n2", "out")
        assert c.is_output("out") and not c.is_output("n2")
        assert c.outputs == ("out", "n1")
        clone = c.copy()
        clone.rename_line("n1", "mid")
        assert clone.is_output("mid") and not clone.is_output("n1")
        assert c.is_output("n1") and not c.is_output("mid")
        clone.add_output("a")
        assert clone.is_output("a") and not c.is_output("a")
        with pytest.raises(NetlistError, match="duplicate"):
            clone.add_output("out")

    def test_rename_to_existing_raises(self):
        c = small_circuit()
        with pytest.raises(NetlistError):
            c.rename_line("n1", "n2")

    def test_cache_invalidation_after_mutation(self):
        c = small_circuit()
        assert c.depth() == 2
        c.add_gate("n3", GateType.NOT, ("n2",))
        assert c.depth() == 3
        assert c.fanout("n2") == [("n3", 0)]


class TestValidation:
    def test_undriven_gate_input(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("x", GateType.NAND, ("a", "ghost"))
        with pytest.raises(NetlistError, match="ghost"):
            c.validate()

    def test_undriven_output(self):
        c = Circuit()
        c.add_input("a")
        c.add_output("ghost")
        with pytest.raises(NetlistError, match="ghost"):
            c.validate()

    def test_valid_circuit_passes(self, s27):
        s27.validate()


class TestCopyAndExport:
    def test_copy_is_independent(self, s27):
        clone = s27.copy()
        clone.remove_gate("G17")
        assert "G17" in s27.gates
        assert "G17" not in clone.gates

    def test_copy_keeps_interface(self, s27):
        clone = s27.copy("renamed")
        assert clone.name == "renamed"
        assert clone.inputs == s27.inputs
        assert clone.outputs == s27.outputs

    def test_to_networkx(self, s27):
        graph = s27.to_networkx()
        assert graph.number_of_nodes() == 4 + 13
        assert graph.nodes["G0"]["kind"] == "input"
        assert graph.nodes["G5"]["kind"] == "dff"
        assert graph.nodes["G10"]["kind"] == "gate"
        assert graph.has_edge("G14", "G10")
        assert graph.edges["G14", "G10"]["pin"] == 0

    def test_networkx_is_dag_without_flops(self, s27):
        import networkx as nx
        graph = s27.to_networkx()
        comb = graph.subgraph(
            n for n, d in graph.nodes(data=True) if d["kind"] != "dff")
        assert nx.is_directed_acyclic_graph(comb)


class TestFingerprint:
    def test_stable_across_rebuilds(self, s27):
        from repro.netlist import builders
        assert s27.fingerprint() == builders.s27().fingerprint()

    def test_hex_sha256(self, s27):
        digest = s27.fingerprint()
        assert len(digest) == 64
        int(digest, 16)

    def test_copy_preserves_content_fingerprint(self, s27):
        assert s27.copy().fingerprint() == s27.fingerprint()

    def test_name_is_part_of_the_content(self, s27):
        assert s27.copy("renamed").fingerprint() != s27.fingerprint()

    def test_mutation_changes_fingerprint(self, s27):
        clone = s27.copy()
        before = clone.fingerprint()
        gate = clone.gate("G11")          # G11 = NOR(G5, G9)
        clone.replace_gate("G11", gate.gtype, gate.inputs[::-1])
        assert clone.fingerprint() != before  # pin order matters

    def test_gate_type_is_part_of_the_content(self, s27):
        from repro.netlist.gates import GateType
        clone = s27.copy()
        before = clone.fingerprint()
        gate = clone.gate("G11")          # G11 = NOR(G5, G9)
        clone.replace_gate("G11", GateType.NAND, gate.inputs)
        assert clone.fingerprint() != before

    def test_memoized_until_mutation(self, s27):
        first = s27.fingerprint()
        assert s27.fingerprint() is first  # cached string object
        clone = s27.copy()
        clone.add_input("EXTRA")
        assert clone.fingerprint() != first
