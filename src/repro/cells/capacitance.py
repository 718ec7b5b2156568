"""Load capacitance extraction for a circuit under a cell library.

The dynamic-power model (paper eq. 1) weighs every transition by the
capacitance it charges: the sum of the driven input pin capacitances, a
per-fanout wire contribution, the driving cell's internal capacitance and
an external load on primary outputs.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from types import MappingProxyType

from repro.cells.library import CellLibrary, CellSpec, default_library
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType

__all__ = ["line_load_ff", "load_map_ff", "switched_caps_ff"]


def line_load_ff(circuit: Circuit, line: str,
                 library: CellLibrary | None = None,
                 include_internal: bool = True) -> float:
    """Capacitance (fF) charged when ``line`` transitions.

    Components: fanout pin caps + wire cap per fanout + (optionally) the
    internal cap of the driving cell + the external output load when the
    line is a primary output.
    """
    library = library or default_library()
    total = 0.0
    for sink, _pin in circuit.fanout(line):
        gate = circuit.gates[sink]
        total += library.pin_cap_ff(gate.gtype, len(gate.inputs))
        total += library.wire_cap_per_fanout_ff
    if circuit.is_output(line):
        total += library.output_load_ff
    if include_internal and line in circuit.gates:
        gate = circuit.gates[line]
        total += library.spec(gate.gtype, len(gate.inputs)).internal_cap_ff
    return total


def load_map_ff(circuit: Circuit, library: CellLibrary | None = None,
                include_internal: bool = True) -> dict[str, float]:
    """``line -> load capacitance (fF)`` for every line in the circuit.

    Equal to :func:`line_load_ff` per line, floats included: each cell
    type's spec is read once, and every line's components are added in
    the same order (per fanout pin its pin cap then the wire, then the
    output load, then the internal cap).
    """
    library = library or default_library()
    specs: dict[tuple[GateType, int], CellSpec] = {}
    pin_caps: dict[str, float] = {}
    internal_caps: dict[str, float] = {}
    for out, gate in circuit.gates.items():
        key = (gate.gtype, len(gate.inputs))
        spec = specs.get(key)
        if spec is None:
            spec = specs[key] = library.spec(*key)
        pin_caps[out] = spec.pin_cap_ff
        internal_caps[out] = spec.internal_cap_ff
    wire = library.wire_cap_per_fanout_ff
    output_load = library.output_load_ff
    fanout, is_output = circuit.fanout, circuit.is_output
    caps: dict[str, float] = {}
    for line in circuit.lines():
        total = 0.0
        for sink, _pin in fanout(line):
            total += pin_caps[sink]
            total += wire
        if is_output(line):
            total += output_load
        if include_internal and line in internal_caps:
            total += internal_caps[line]
        caps[line] = total
    return caps


#: Per circuit: ``(Circuit.version, {library: read-only caps})``.
_CapsEntry = tuple[int, dict[CellLibrary, Mapping[str, float]]]
_CAPS_CACHE: "weakref.WeakKeyDictionary[Circuit, _CapsEntry]" = \
    weakref.WeakKeyDictionary()


def switched_caps_ff(circuit: Circuit, library: CellLibrary | None = None
                     ) -> Mapping[str, float]:
    """:func:`load_map_ff` with internal caps included, memoized.

    Named for its role in power estimation: multiply by the per-line
    transition counts and ``0.5 * VDD^2`` to get switching energy.
    Cached per circuit, :attr:`Circuit.version` and library, and
    returned as a read-only mapping so no caller can corrupt the cache.
    """
    library = library or default_library()
    entry = _CAPS_CACHE.get(circuit)
    if entry is None or entry[0] != circuit.version:
        entry = (circuit.version, {})
        _CAPS_CACHE[circuit] = entry
    by_library = entry[1]
    caps = by_library.get(library)
    if caps is None:
        caps = MappingProxyType(
            load_map_ff(circuit, library, include_internal=True))
        by_library[library] = caps
    return caps
