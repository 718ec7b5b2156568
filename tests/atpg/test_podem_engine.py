"""Tests for the reusable PODEM engine."""

import pytest

from repro.atpg.faults import Fault, all_faults
from repro.atpg.podem import PodemEngine, generate_test
from repro.errors import AtpgError
from repro.netlist import builders
from repro.netlist.gates import GateType


class TestEngineReuse:
    def test_shared_engine_matches_fresh_runs(self, s27_mapped):
        """Re-targeting one engine must give byte-identical results to
        constructing a fresh engine per fault."""
        engine = PodemEngine(s27_mapped)
        for fault in all_faults(s27_mapped)[:16]:
            shared = generate_test(s27_mapped, fault, engine=engine)
            fresh = generate_test(s27_mapped, fault)
            assert shared.status == fresh.status, str(fault)
            assert shared.assignment == fresh.assignment, str(fault)

    def test_engine_state_reset_between_faults(self, s27_mapped):
        engine = PodemEngine(s27_mapped)
        generate_test(s27_mapped, Fault("G17", 0), engine=engine)
        # After a run, a second unrelated fault must start clean.
        result = generate_test(s27_mapped, Fault("G10", 1), engine=engine)
        assert result.status in ("detected", "untestable", "aborted")
        assert not engine.assignment or result.detected

    def test_wrong_circuit_rejected(self, s27_mapped, toy_mapped):
        engine = PodemEngine(s27_mapped)
        with pytest.raises(AtpgError, match="different circuit"):
            generate_test(toy_mapped, Fault("n1", 0), engine=engine)

    def test_unknown_fault_line(self, s27_mapped):
        engine = PodemEngine(s27_mapped)
        with pytest.raises(AtpgError, match="not in circuit"):
            generate_test(s27_mapped, Fault("ghost", 0), engine=engine)

    def test_fault_site_forcing_undone_on_retarget(self, s27_mapped):
        """Only the current fault site evaluates with a forced faulty
        half; retargeting restores the previous site's gate."""
        engine = PodemEngine(s27_mapped)
        gates = list(engine._gate)
        generate_test(s27_mapped, Fault("G17", 0), engine=engine)
        generate_test(s27_mapped, Fault("G10", 1), engine=engine)
        site = engine.index["G10"]
        assert engine._gate[:site] == gates[:site]
        assert engine._gate[site + 1:] == gates[site + 1:]
        assert engine._gate[site] != gates[site]


class TestStaleEngine:
    """An engine is a snapshot of its circuit's structure."""

    def test_replaced_gate_rejected(self):
        circuit = builders.s27()
        engine = PodemEngine(circuit)
        circuit.replace_gate("G13", GateType.NAND,
                             circuit.gates["G13"].inputs)
        with pytest.raises(AtpgError, match="stale"):
            generate_test(circuit, Fault("G13", 0), engine=engine)
        # a fresh engine answers for the mutated netlist
        fresh = generate_test(circuit, Fault("G13", 0))
        assert fresh.assignment == {"G2": 0}

    def test_added_gate_rejected(self):
        circuit = builders.s27()
        engine = PodemEngine(circuit)
        circuit.add_gate("newline", GateType.NOT, ("G13",))
        with pytest.raises(AtpgError, match="stale"):
            generate_test(circuit, Fault("newline", 0), engine=engine)
        assert generate_test(circuit, Fault("newline", 0)).status in (
            "detected", "untestable")

    def test_unmutated_circuit_accepted(self):
        circuit = builders.s27()
        engine = PodemEngine(circuit)
        circuit.copy().add_gate("newline", GateType.NOT, ("G13",))
        assert generate_test(circuit, Fault("G13", 0),
                             engine=engine).detected


class TestScoapIntegration:
    def test_engine_carries_scoap(self, s27_mapped):
        engine = PodemEngine(s27_mapped)
        assert len(engine.cc0) == len(engine.names)
        assert len(engine.co) == len(engine.names)
        # inputs are the cheapest lines
        for li in engine.input_idx:
            assert engine.cc0[li] == 1
            assert engine.cc1[li] == 1
