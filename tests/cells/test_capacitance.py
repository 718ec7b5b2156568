"""Tests for load capacitance extraction."""

import pytest

import caps_reference as reference
from repro.benchgen import generate_circuit
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.cells.capacitance import line_load_ff, load_map_ff, switched_caps_ff
from repro.cells.library import CellLibrary, default_library
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from tests.atpg.gate_mix import sprinkle_gates
from tests.atpg.generate_podem_pins import (
    SEED,
    TESTSET_CIRCUITS,
    mapped_circuit,
)


@pytest.fixture(scope="module")
def lib():
    return default_library()


def fan_circuit() -> Circuit:
    c = Circuit("fan")
    c.add_input("a")
    c.add_gate("n1", GateType.NOT, ("a",))
    c.add_gate("n2", GateType.NAND, ("n1", "a"))
    c.add_gate("n3", GateType.NOR, ("n1", "a"))
    c.add_output("n2")
    return c


class TestLineLoad:
    def test_sums_fanout_pins_and_wire(self, lib):
        c = fan_circuit()
        # n1 drives one NAND2 pin and one NOR2 pin
        expected = (lib.pin_cap_ff(GateType.NAND, 2)
                    + lib.pin_cap_ff(GateType.NOR, 2)
                    + 2 * lib.wire_cap_per_fanout_ff
                    + lib.spec(GateType.NOT, 1).internal_cap_ff)
        assert line_load_ff(c, "n1", lib) == pytest.approx(expected)

    def test_primary_output_load_added(self, lib):
        c = fan_circuit()
        with_po = line_load_ff(c, "n2", lib, include_internal=False)
        assert with_po == pytest.approx(lib.output_load_ff)

    def test_internal_cap_toggle(self, lib):
        c = fan_circuit()
        with_internal = line_load_ff(c, "n1", lib, include_internal=True)
        without = line_load_ff(c, "n1", lib, include_internal=False)
        assert with_internal - without == pytest.approx(
            lib.spec(GateType.NOT, 1).internal_cap_ff)

    def test_input_line_has_no_internal_cap(self, lib):
        c = fan_circuit()
        # "a" drives the NOT, the NAND and the NOR; no internal cap since
        # it is not a gate output.
        load = line_load_ff(c, "a", lib)
        expected = (lib.pin_cap_ff(GateType.NOT, 1)
                    + lib.pin_cap_ff(GateType.NAND, 2)
                    + lib.pin_cap_ff(GateType.NOR, 2)
                    + 3 * lib.wire_cap_per_fanout_ff)
        assert load == pytest.approx(expected)

    def test_dangling_gate_load(self, lib):
        c = fan_circuit()
        # n3 drives nothing and is not a PO: internal cap only.
        assert line_load_ff(c, "n3", lib) == pytest.approx(
            lib.spec(GateType.NOR, 2).internal_cap_ff)


class TestMaps:
    def test_load_map_covers_all_lines(self, lib, s27):
        caps = load_map_ff(s27, lib)
        assert set(caps) == set(s27.lines())
        assert all(v >= 0 for v in caps.values())

    def test_switched_caps_alias(self, lib, s27):
        assert switched_caps_ff(s27, lib) == load_map_ff(
            s27, lib, include_internal=True)


def _shared_pin_circuit() -> Circuit:
    """One line on two pins of a gate, DFF sinks, a PO that also fans
    out, a PI that is a PO, and MUX2 and CONST cells."""
    c = Circuit("pins")
    for name in ("a", "b", "s"):
        c.add_input(name)
    c.add_gate("q", GateType.DFF, ("m",))
    c.add_gate("t0", GateType.CONST0, ())
    c.add_gate("t1", GateType.CONST1, ())
    c.add_gate("n1", GateType.NAND, ("a", "a"))
    c.add_gate("n2", GateType.NOR, ("n1", "b", "n1"))
    c.add_gate("m", GateType.MUX2, ("s", "n2", "t1"))
    c.add_gate("x", GateType.XOR, ("q", "t0"))
    c.add_gate("d", GateType.DFF, ("n1",))
    c.add_output("n1")
    c.add_output("x")
    c.add_output("b")
    return c


def _assert_caps_match(circuit, library):
    for internal in (True, False):
        assert list(load_map_ff(circuit, library, internal).items()) == \
            list(reference.load_map_ff(circuit, library, internal).items())
    assert list(switched_caps_ff(circuit, library).items()) == \
        list(reference.load_map_ff(circuit, library).items())


class TestAgainstFrozenWalk:
    """The per-cell-type caps map equals the frozen per-line walk item
    by item: keys, dict order and floats."""

    def test_s27(self, lib, s27, s27_mapped):
        _assert_caps_match(s27, lib)
        _assert_caps_match(s27_mapped, lib)

    @pytest.mark.parametrize("name", TESTSET_CIRCUITS)
    def test_table1_circuits(self, lib, name):
        """The six ``table1_cold`` rows, unmapped and mapped."""
        _assert_caps_match(generate_circuit(name, SEED), lib)
        _assert_caps_match(mapped_circuit(name), lib)

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_netlists(self, seed):
        circuit = sprinkle_gates(generate_from_stats(
            Iscas89Stats("mix", 5, 2, 3, 40), seed), seed)
        _assert_caps_match(circuit, CellLibrary(
            wire_cap_per_fanout_ff=0.1 * (seed + 1),
            output_load_ff=1.0 + seed))

    def test_shared_pins_dff_sinks_and_fanout_outputs(self, lib):
        c = _shared_pin_circuit()
        _assert_caps_match(c, lib)
        caps = load_map_ff(c, lib)
        assert caps["a"] == reference.line_load_ff(c, "a", lib)
        assert caps["a"] > 2 * lib.wire_cap_per_fanout_ff
