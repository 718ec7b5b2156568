"""Frozen per-line capacitance walk: an oracle for the caps map.

This is :func:`repro.cells.capacitance.load_map_ff` as it was before it
read each cell type's spec once: one :func:`line_load_ff`-style walk per
line, with a library lookup for every driven pin and every driver.
``tests/cells/test_capacitance.py`` requires the product map to equal
it item by item (keys, order and floats), and
``benchmarks/bench_perf.py::test_perf_power_pricing`` times the product
against it, so keep it byte-for-byte as it is.
"""

from __future__ import annotations

from repro.cells.library import CellLibrary
from repro.netlist.circuit import Circuit

__all__ = ["load_map_ff", "line_load_ff"]


def line_load_ff(circuit: Circuit, line: str, library: CellLibrary,
                 include_internal: bool = True) -> float:
    """Capacitance (fF) charged when ``line`` transitions."""
    outputs = set(circuit.outputs)
    total = 0.0
    for sink, _pin in circuit.fanout(line):
        gate = circuit.gates[sink]
        total += library.pin_cap_ff(gate.gtype, len(gate.inputs))
        total += library.wire_cap_per_fanout_ff
    if line in outputs:
        total += library.output_load_ff
    if include_internal and line in circuit.gates:
        gate = circuit.gates[line]
        total += library.spec(gate.gtype, len(gate.inputs)).internal_cap_ff
    return total


def load_map_ff(circuit: Circuit, library: CellLibrary,
                include_internal: bool = True) -> dict[str, float]:
    """``line -> load capacitance (fF)`` for every line in the circuit."""
    return {
        line: line_load_ff(circuit, line, library, include_internal)
        for line in circuit.lines()
    }
