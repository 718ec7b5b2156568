"""Circuit-level static power estimation from per-cell leakage tables.

Three evaluation modes, all summing paper eq. (5)
(``P = sum_i I_sub,i * VDD``) over the combinational gates:

* :func:`circuit_leakage_na` — one full 0/1 assignment;
* :func:`expected_leakage_na` — a three-valued assignment, X lines treated
  as independent Bernoulli(p) signals (used while the control pattern is
  still partial);
* :func:`per_sample_leakage` — packed multi-sample evaluation returning a
  numpy vector (backs Monte-Carlo observability and random-search IVC).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping

import numpy as np

from repro.cells.library import CellLibrary, default_library
from repro.netlist.circuit import Circuit
from repro.netlist.gates import X
from repro.simulation.backends import Backend, SimState, resolve_backend
from repro.simulation.values import unpack_bool_array

__all__ = [
    "circuit_leakage_na",
    "expected_leakage_na",
    "per_sample_leakage",
    "state_sample_leakage",
    "leakage_power_uw",
    "per_episode_leakage",
]


def leakage_power_uw(leak_na: float, vdd: float) -> float:
    """Convert a leakage current (nA) into static power (uW) at ``vdd``."""
    return leak_na * vdd * 1e-3


def circuit_leakage_na(circuit: Circuit, values: Mapping[str, int],
                       library: CellLibrary | None = None) -> float:
    """Total combinational leakage (nA) under a full 0/1 assignment."""
    library = library or default_library()
    total = 0.0
    for gate in circuit.combinational_gates():
        pattern = tuple(values[src] for src in gate.inputs)
        total += library.leakage_na(gate.gtype, pattern)
    return total


def expected_leakage_na(circuit: Circuit, values: Mapping[str, int],
                        library: CellLibrary | None = None,
                        p_one: float = 0.5) -> float:
    """Expected leakage (nA) under a three-valued assignment.

    Every X input of a gate is treated as an independent Bernoulli
    (``p_one``) variable.  Exact for gates with 0 X inputs; for the rest
    this ignores spatial correlation, which is the standard first-order
    approximation (and only used to steer searches, never to report
    results — reported numbers always come from full simulations).
    """
    library = library or default_library()
    total = 0.0
    for gate in circuit.combinational_gates():
        in_values = [values.get(src, X) for src in gate.inputs]
        unknown = [i for i, v in enumerate(in_values) if v == X]
        table = library.leakage_table(gate.gtype, len(gate.inputs))
        if not unknown:
            total += table[tuple(in_values)]
            continue
        acc = 0.0
        for combo in itertools.product((0, 1), repeat=len(unknown)):
            pattern = list(in_values)
            weight = 1.0
            for idx, bit in zip(unknown, combo):
                pattern[idx] = bit
                weight *= p_one if bit else (1.0 - p_one)
            acc += weight * table[tuple(pattern)]
        total += acc
    return total


def _word_to_bool_array(word: int, n: int) -> np.ndarray:
    """Low ``n`` bits of ``word`` as a boolean numpy array (bit 0 first).

    Kept as an alias of :func:`repro.simulation.values.unpack_bool_array`
    for the modules that import it from here.
    """
    return unpack_bool_array(word, n)


def state_sample_leakage(state: SimState, circuit: Circuit,
                         library: CellLibrary) -> np.ndarray:
    """Per-sample total leakage (nA) from an existing simulation state.

    The vectorized LUT pricing behind :func:`per_sample_leakage`, usable
    on any backend's :class:`~repro.simulation.backends.SimState` without
    re-simulating.
    """
    n = state.n
    totals = np.zeros(n, dtype=np.float64)
    # Each line's bits unpacked once (as int64, ready to shift) and
    # each cell type's LUT built once; gates still add in order.
    bits: dict[str, np.ndarray] = {}
    luts: dict[tuple, np.ndarray] = {}
    for gate in circuit.combinational_gates():
        key = (gate.gtype, len(gate.inputs))
        lut = luts.get(key)
        if lut is None:
            lut = luts[key] = np.zeros(1 << key[1], dtype=np.float64)
            for pattern, leak in library.leakage_table(*key).items():
                code = 0
                for bit_pos, bit in enumerate(pattern):
                    code |= bit << bit_pos
                lut[code] = leak
        index = np.zeros(n, dtype=np.int64)
        for bit_pos, src in enumerate(gate.inputs):
            line_bits = bits.get(src)
            if line_bits is None:
                line_bits = bits[src] = state.bools(src).astype(np.int64)
            index += line_bits << bit_pos
        totals += lut[index]
    return totals


def per_episode_leakage(plan, library: CellLibrary | None = None,
                        backend: str | Backend | None = None
                        ) -> np.ndarray:
    """Mean leakage (nA) of every episode, sliced from one batch.

    ``plan`` is a compiled :class:`~repro.simulation.episode.
    EpisodePlan`; the whole test set's replay is priced in a single
    packed simulation and each episode's mean is sliced out via the
    plan's offsets — no per-episode re-simulation.
    """
    leaks = per_sample_leakage(plan.circuit, plan.waveforms,
                               plan.n_cycles, library, backend=backend)
    return np.array([leaks[start:stop].mean()
                     for start, stop in plan.episode_bounds()],
                    dtype=np.float64)


def per_sample_leakage(circuit: Circuit, input_words: Mapping[str, int],
                       n: int, library: CellLibrary | None = None,
                       backend: str | Backend | None = None
                       ) -> np.ndarray:
    """Per-sample total leakage (nA) for ``n`` packed input samples.

    Returns a float64 array of length ``n``; entry ``t`` is the circuit
    leakage under sample ``t``.  Also used with *cycles* as samples to get
    per-cycle leakage profiles.
    """
    library = library or default_library()
    state = resolve_backend(backend).run(circuit, input_words, n)
    return state_sample_leakage(state, circuit, library)
