"""Frozen per-sample leakage pricing: an oracle for the product.

This is :func:`repro.leakage.estimator.state_sample_leakage` as it was
before it unpacked each line once and built each cell type's LUT once:
every gate re-reads its fan-in bits, converts them and builds its own
LUT.  ``tests/leakage/test_estimator.py`` requires the product arrays
to equal it byte for byte, so keep it as it is.
"""

from __future__ import annotations

import numpy as np

from repro.cells.library import CellLibrary
from repro.netlist.circuit import Circuit
from repro.simulation.backends import SimState

__all__ = ["state_sample_leakage"]


def state_sample_leakage(state: SimState, circuit: Circuit,
                         library: CellLibrary) -> np.ndarray:
    """Per-sample total leakage (nA) from an existing simulation state."""
    n = state.n
    totals = np.zeros(n, dtype=np.float64)
    for gate in circuit.combinational_gates():
        table = library.leakage_table(gate.gtype, len(gate.inputs))
        in_bits = [state.bools(src) for src in gate.inputs]
        index = np.zeros(n, dtype=np.int64)
        for bit_pos, bits in enumerate(in_bits):
            index += bits.astype(np.int64) << bit_pos
        lut = np.zeros(1 << len(in_bits), dtype=np.float64)
        for pattern, leak in table.items():
            code = 0
            for bit_pos, bit in enumerate(pattern):
                code |= bit << bit_pos
            lut[code] = leak
        totals += lut[index]
    return totals
