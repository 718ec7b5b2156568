"""Tests for the stuck-at fault model."""

import pytest

from repro.atpg.faults import Fault, all_faults, observable_lines
from repro.atpg.faultsim import fault_simulate
from repro.atpg.podem import PodemEngine, generate_test
from repro.atpg.sat import TESTABLE, RedundancyProver
from repro.simulation.bitsim import pack_input_vectors
from repro.simulation.eval2 import comb_input_lines


class TestFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            Fault("x", 2)

    @pytest.mark.parametrize("stuck", [1.0, True, "1", None])
    def test_stuck_value_must_be_an_exact_int(self, stuck):
        with pytest.raises(ValueError, match="stuck_at must be 0/1"):
            Fault("G17", stuck)

    def test_int_stuck_value_reaches_every_engine(self, s27_mapped):
        """Values equal to 1 that are not the int 1 once reached the
        prover and PODEM (TypeError) and fault simulation (silently
        undetected); the int 1 is detected by all three."""
        fault = Fault("G17", 1)
        assert str(fault) == "G17/sa1"
        engine = PodemEngine(s27_mapped)
        assert RedundancyProver(engine).prove(fault).status == TESTABLE
        podem = generate_test(s27_mapped, fault, engine=engine)
        assert podem.detected
        vector = {line: podem.assignment.get(line, 0)
                  for line in comb_input_lines(s27_mapped)}
        words, n = pack_input_vectors(s27_mapped, [vector])
        detected = fault_simulate(s27_mapped, [fault], words, n).detected
        assert detected.get(fault) == 1

    def test_str(self):
        assert str(Fault("G17", 0)) == "G17/sa0"

    def test_ordering_and_equality(self):
        assert Fault("a", 0) < Fault("a", 1) < Fault("b", 0)
        assert Fault("a", 0) == Fault("a", 0)

    def test_hashable(self):
        assert len({Fault("a", 0), Fault("a", 0), Fault("a", 1)}) == 2


class TestAllFaults:
    def test_counts(self, s27):
        faults = all_faults(s27)
        # lines: 4 PIs + 3 pseudo-inputs + 10 gate outputs = 17; x2
        assert len(faults) == 34

    def test_covers_pseudo_inputs(self, s27):
        lines = {f.line for f in all_faults(s27)}
        assert {"G5", "G6", "G7"} <= lines

    def test_excludes_nothing_combinational(self, s27):
        lines = {f.line for f in all_faults(s27)}
        for gate in s27.combinational_gates():
            assert gate.output in lines

    def test_both_polarities(self, s27):
        faults = all_faults(s27)
        by_line = {}
        for fault in faults:
            by_line.setdefault(fault.line, set()).add(fault.stuck_at)
        assert all(v == {0, 1} for v in by_line.values())


class TestObservableLines:
    def test_s27(self, s27):
        obs = observable_lines(s27)
        assert obs[0] == "G17"                # PO first
        assert set(obs) == {"G17", "G10", "G11", "G13"}

    def test_deduplication(self, toy):
        # toy_scan has n6 as both PO and D-feeding line
        obs = observable_lines(toy)
        assert len(obs) == len(set(obs))

    def test_pure_combinational(self, c17):
        assert observable_lines(c17) == list(c17.outputs)
