"""Row-table construction and caching (:mod:`repro.simulation.schedule`)."""

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.simulation.eval2 import comb_input_lines
from repro.simulation.schedule import (
    OPCODES,
    build_row_table,
    cached_row_table,
)


class TestBuildSchedule:
    def test_lines_are_inputs_then_topo(self, s27_mapped):
        rows = build_row_table(s27_mapped)
        inputs = tuple(comb_input_lines(s27_mapped))
        assert rows.n_inputs == len(inputs)
        assert rows.lines[:len(inputs)] == inputs
        assert list(rows.lines[len(inputs):]) == s27_mapped.topo_order()
        assert rows.index == {line: row
                              for row, line in enumerate(rows.lines)}

    def test_covers_every_combinational_gate_once(self, s27_mapped):
        rows = build_row_table(s27_mapped)
        for row, line in enumerate(rows.lines):
            gate = s27_mapped.gates.get(line)
            if row < rows.n_inputs:
                assert rows.ops[row] == -1 and rows.fanin[row] == ()
                continue
            assert rows.ops[row] == OPCODES[gate.gtype]
            assert [rows.lines[src] for src in rows.fanin[row]] == \
                list(gate.inputs)
            for src in rows.fanin[row]:
                assert rows.sinks[src].count(row) == 1

    def test_inputs_precede_outputs(self, s27_mapped):
        # topological validity: every fanin row index is strictly smaller
        # than the gate's own row index, and every sink row larger.
        rows = build_row_table(s27_mapped)
        for row in range(len(rows.lines)):
            assert all(src < row for src in rows.fanin[row])
            assert all(sink > row for sink in rows.sinks[row])


class TestCachedSchedule:
    def test_cache_hit_and_invalidation(self):
        circuit = Circuit("cache")
        a = circuit.add_input("a")
        b = circuit.add_input("b")
        circuit.add_gate("y", GateType.AND, (a, b))
        circuit.add_output("y")

        first = cached_row_table(circuit)
        assert cached_row_table(circuit) is first

        circuit.add_gate("z", GateType.NOT, ("y",))
        second = cached_row_table(circuit)
        assert second is not first
        assert len(second.lines) == len(first.lines) + 1
        assert cached_row_table(circuit) is second

    def test_version_counter_tracks_mutations(self):
        circuit = Circuit("ver")
        v0 = circuit.version
        circuit.add_input("a")
        assert circuit.version > v0
        v1 = circuit.version
        circuit.add_gate("y", GateType.NOT, ("a",))
        assert circuit.version > v1
        v2 = circuit.version
        circuit.replace_gate("y", GateType.BUFF, ("a",))
        assert circuit.version > v2
        v3 = circuit.version
        circuit.rename_line("y", "z")
        assert circuit.version > v3
        v4 = circuit.version
        circuit.remove_gate("z")
        assert circuit.version > v4

    def test_queries_do_not_bump_version(self, s27_mapped):
        before = s27_mapped.version
        s27_mapped.topo_order()
        s27_mapped.depth()
        s27_mapped.fanout_cone(s27_mapped.inputs[0])
        assert s27_mapped.version == before
