"""Reference TNS/TGS update: the oracle for the compiled one.

This is the original :func:`repro.core.tns.update_tns_tgs` kept verbatim
as a test-side oracle: every pass walks ``circuit.fanout`` and
classifies each sink by its ``GateType`` afresh.  The product version
compiles each line's sinks once per circuit version and must give an
identical :class:`~repro.core.tns.TransitionAnalysis`: the same TNS,
the same TGS with its lists in the same order, and the same
``blocked_at``.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.tns import TransitionAnalysis
from repro.netlist.circuit import Circuit
from repro.netlist.gates import (
    GateType,
    SEQUENTIAL_TYPES,
    TRANSPARENT_TYPES,
    X,
    controlling_value,
)

__all__ = ["update_tns_tgs"]

_BLOCKABLE = frozenset({
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
})


def update_tns_tgs(circuit: Circuit, values: Mapping[str, int],
                   sources: set[str],
                   failed_gates: set[str] | None = None
                   ) -> TransitionAnalysis:
    """Propagate transition reachability from ``sources``."""
    failed_gates = failed_gates or set()
    tns: set[str] = set()
    tgs: dict[str, list[str]] = {}
    blocked_at: set[str] = set()

    worklist = sorted(sources)
    while worklist:
        tn = worklist.pop()
        if tn in tns:
            continue
        tns.add(tn)
        for sink, _pin in circuit.fanout(tn):
            gate = circuit.gates[sink]
            if gate.gtype in SEQUENTIAL_TYPES:
                continue  # transitions stop at flop D pins in scan mode
            out = gate.output
            if out in tns:
                continue
            if gate.gtype in TRANSPARENT_TYPES or gate.gtype not in \
                    _BLOCKABLE:
                worklist.append(out)
                continue
            if sink in failed_gates:
                worklist.append(out)
                continue
            cv = controlling_value(gate.gtype)
            side = [s for s in gate.inputs if s != tn]
            side_values = [values.get(s, X) for s in side]
            if any(v == cv for v in side_values):
                blocked_at.add(out)
                tgs.pop(out, None)
                continue
            if all(v == (1 - cv) for v in side_values):
                worklist.append(out)
                tgs.pop(out, None)
                continue
            tgs.setdefault(out, []).append(tn)

    for out in list(tgs):
        if out in tns:
            del tgs[out]
    return TransitionAnalysis(tns=tns, tgs=tgs, blocked_at=blocked_at)
