"""Bit-parallel two-valued simulation over packed pattern words.

Each combinational input gets an N-bit word (bit ``t`` = value in pattern
``t``); every line's waveform is computed with big-int bitwise operations.
This backs fault simulation, Monte-Carlo leakage observability and the
scan-shift power evaluation.

This module holds the per-gate packed evaluator and the stimulus
helpers; the public :func:`simulate_packed` runs the logic engine
(:mod:`repro.simulation.backends`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.simulation.backends import simulate_state
from repro.simulation.eval2 import comb_input_lines
from repro.simulation.values import mask, pack_bits

__all__ = ["simulate_packed", "pack_input_vectors", "random_input_words",
           "eval_gate_packed"]


def eval_gate_packed(gtype: GateType, words: Sequence[int],
                     full: int) -> int:
    """Evaluate one gate over packed waveforms; ``full`` is the N-bit mask."""
    if gtype is GateType.AND or gtype is GateType.NAND:
        acc = full
        for w in words:
            acc &= w
        return acc if gtype is GateType.AND else acc ^ full
    if gtype is GateType.OR or gtype is GateType.NOR:
        acc = 0
        for w in words:
            acc |= w
        return acc if gtype is GateType.OR else acc ^ full
    if gtype is GateType.NOT:
        return words[0] ^ full
    if gtype in (GateType.BUFF, GateType.DFF):
        return words[0]
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        acc = 0
        for w in words:
            acc ^= w
        return acc if gtype is GateType.XOR else acc ^ full
    if gtype is GateType.MUX2:
        sel, d0, d1 = words
        return ((sel ^ full) & d0) | (sel & d1)
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return full
    raise SimulationError(f"cannot evaluate {gtype} in packed mode")


def simulate_packed(circuit: Circuit, input_words: Mapping[str, int],
                    n: int) -> dict[str, int]:
    """Simulate ``n`` packed patterns; returns a word for every line.

    ``input_words`` must assign a word to every combinational input
    (primary inputs and DFF outputs); bits above position ``n-1`` must be
    zero (checked cheaply via the mask).
    """
    return simulate_state(circuit, input_words, n).words()


def pack_input_vectors(circuit: Circuit,
                       vectors: Sequence[Mapping[str, int]]
                       ) -> tuple[dict[str, int], int]:
    """Pack per-pattern input dicts into per-line words.

    Returns ``(input_words, n)`` ready for :func:`simulate_packed`.
    """
    lines = comb_input_lines(circuit)
    words = {
        line: pack_bits(vec[line] for vec in vectors) for line in lines
    }
    return words, len(vectors)


def random_input_words(circuit: Circuit, n: int,
                       rng: np.random.Generator) -> dict[str, int]:
    """Uniform random packed stimulus for every combinational input."""
    full = mask(n)
    n_bytes = (n + 7) // 8
    words: dict[str, int] = {}
    for line in comb_input_lines(circuit):
        raw = rng.bytes(n_bytes)
        words[line] = int.from_bytes(raw, "little") & full
    return words
