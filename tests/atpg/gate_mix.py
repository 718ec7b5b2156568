"""Netlist variants with every packed gate kind, for differential tests.

The synthetic ISCAS89-like generator only emits the AND/OR family,
NOT/BUFF and DFFs; :func:`sprinkle_gates` rewrites part of a circuit
into XOR/XNOR/MUX2 gates and CONST0/CONST1 ties so the oracles see
every gate type the engines evaluate.
"""

from __future__ import annotations

import random

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType

__all__ = ["sprinkle_gates"]


def sprinkle_gates(circuit: Circuit, seed: int) -> Circuit:
    """Rewrite some gates of ``circuit`` into XOR/XNOR/MUX2 and tie some
    inputs to CONST0/CONST1 lines; inputs are only drawn from earlier
    lines, so the result stays acyclic."""
    rng = random.Random(seed)
    out = circuit.copy()
    out.add_gate("tie0", GateType.CONST0, ())
    out.add_gate("tie1", GateType.CONST1, ())
    earlier = list(out.inputs) + list(out.dff_outputs)
    for line in circuit.topo_order():
        gate = out.gates[line]
        inputs = list(gate.inputs)
        roll = rng.random()
        if roll < 0.15:
            out.replace_gate(line, GateType.MUX2,
                             (rng.choice(earlier), inputs[0],
                              rng.choice(earlier)))
        elif roll < 0.25 and len(inputs) >= 2:
            out.replace_gate(line, rng.choice([GateType.XOR,
                                               GateType.XNOR]), inputs)
        elif roll < 0.35 and len(inputs) >= 2:
            inputs[rng.randrange(len(inputs))] = rng.choice(["tie0", "tie1"])
            out.replace_gate(line, gate.gtype, inputs)
        earlier.append(line)
    return out
