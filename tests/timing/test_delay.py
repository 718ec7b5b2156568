"""Tests for the delay models."""

import pytest
from atpg.generate_podem_pins import (
    TESTSET_CIRCUITS,
    mapped_circuit,
)
from cells import caps_reference

from repro.cells.capacitance import line_load_ff
from repro.cells.library import default_library
from repro.netlist import builders
from repro.timing.delay import LibraryDelay, UnitDelay


class TestUnitDelay:
    def test_every_gate_costs_one(self, s27):
        model = UnitDelay(s27)
        for line in s27.topo_order():
            assert model.delay_of(line) == 1.0

    def test_sources_launch_at_zero(self, s27):
        model = UnitDelay(s27)
        assert model.launch_of("G0") == 0.0
        assert model.launch_of("G5") == 0.0


class TestLibraryDelay:
    def test_delay_matches_formula(self, s27_mapped, library):
        model = LibraryDelay(s27_mapped, library)
        for line in s27_mapped.topo_order():
            gate = s27_mapped.gates[line]
            load = line_load_ff(s27_mapped, line, library,
                                include_internal=False)
            expected = library.delay_ps(gate.gtype, len(gate.inputs), load)
            assert model.delay_of(line) == pytest.approx(expected)

    @pytest.mark.parametrize("name", ("s27",) + TESTSET_CIRCUITS)
    def test_delays_equal_frozen_walk(self, name, library):
        """Every delay is IEEE-equal to one priced from the frozen
        per-line load walk (``tests/cells/caps_reference.py``)."""
        circuit = mapped_circuit(name)
        model = LibraryDelay(circuit, library)
        for line in circuit.topo_order():
            gate = circuit.gates[line]
            load = caps_reference.line_load_ff(circuit, line, library,
                                               include_internal=False)
            expected = library.delay_ps(gate.gtype, len(gate.inputs), load)
            assert model.delay_of(line).hex() == expected.hex(), line

    def test_flop_outputs_launch_at_clk_to_q(self, s27_mapped, library):
        model = LibraryDelay(s27_mapped, library)
        clk_to_q = library.spec(
            s27_mapped.dff_gates[0].gtype, 1).intrinsic_delay_ps
        for q in s27_mapped.dff_outputs:
            assert model.launch_of(q) == clk_to_q

    def test_pis_launch_at_zero(self, s27_mapped, library):
        model = LibraryDelay(s27_mapped, library)
        for pi in s27_mapped.inputs:
            assert model.launch_of(pi) == 0.0

    def test_combinational_circuit_no_launch(self, c17, library):
        model = LibraryDelay(c17, library)
        assert model.launch_of(c17.inputs[0]) == 0.0

    def test_loaded_gate_is_slower(self, library):
        """A gate driving many sinks must be slower than a copy driving
        one sink."""
        light = builders.chain_of_inverters(2, "light")
        model_light = LibraryDelay(light, library)
        heavy = builders.wide_gate_circuit(4, "heavy")
        # i0 in heavy feeds two wide gates; compare the NOT in light
        # driving a single NOT vs the same cell driving more load.
        assert model_light.delay_of("s0") < library.delay_ps(
            light.gates["s0"].gtype, 1, 50.0)
