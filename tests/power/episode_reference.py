"""Reference scan-episode replay: the oracle for the batched engine.

This is the original serial path of :mod:`repro.power.scanpower` kept
verbatim as a test-side oracle: per test vector it walks every shift
cycle and every line in Python, runs one scalar
:meth:`~repro.scan.testview.ScanDesign.capture` per vector, and replays
the assembled waveforms with the plain cycle simulation
(:func:`~repro.simulation.cyclesim.simulate_cycles`).  It is slow and
obviously correct.

* :func:`episode_waveforms` is the serial waveform builder;
* :func:`evaluate_scan_power` and :func:`per_cycle_energy_fj` replay it
  and price the result exactly like the product entry points;
* :func:`evaluate_multichain_power` replays the multi-chain waveforms
  with the plain cycle simulation instead of
  :func:`~repro.simulation.episode.simulate_episode_batch`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cells.library import CellLibrary, default_library
from repro.errors import ScanError
from repro.power.scanpower import (
    ScanPowerReport,
    ShiftPolicy,
    energy_profile_fj,
)
from repro.scan.multichain import MultiChainDesign, multichain_waveforms
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.cyclesim import simulate_cycles
from repro.simulation.values import pack_bits

__all__ = ["episode_waveforms", "evaluate_scan_power",
           "per_cycle_energy_fj", "evaluate_multichain_power"]


def _policy_pi_bit(policy: ShiftPolicy, pi: str, vector: TestVector) -> int:
    if policy.pi_values is not None and pi in policy.pi_values:
        return policy.pi_values[pi]
    return vector.pi_values[pi]


def episode_waveforms(design: ScanDesign, vectors: Sequence[TestVector],
                      policy: ShiftPolicy | None = None,
                      include_capture: bool = True,
                      initial_state: Sequence[int] | None = None
                      ) -> tuple[dict[str, int], int]:
    """Per-line packed waveforms of the whole scan episode (serial path).

    Shift cycles present the policy's constants (PIs, MUX ties) and the
    live chain state on non-muxed pseudo-inputs; capture cycles present
    the test vector itself (MUXes transparent in normal mode).
    """
    policy = policy or ShiftPolicy()
    circuit = design.circuit
    chain = design.chain
    if not vectors:
        raise ScanError("empty test set")
    unknown_mux = set(policy.mux_ties) - set(chain.q_lines)
    if unknown_mux:
        raise ScanError(f"mux ties on unknown cells: {sorted(unknown_mux)}")

    state = tuple(initial_state) if initial_state is not None \
        else (0,) * chain.length
    if len(state) != chain.length:
        raise ScanError("initial state length mismatch")

    pi_bits: dict[str, list[int]] = {pi: [] for pi in circuit.inputs}
    q_bits: dict[str, list[int]] = {q: [] for q in chain.q_lines}
    for vector in vectors:
        if len(vector.scan_state) != chain.length:
            raise ScanError("test vector scan state length mismatch")
        shift_states = chain.load_states(state, vector.scan_state)
        for cycle_state in shift_states:
            for pi in circuit.inputs:
                pi_bits[pi].append(_policy_pi_bit(policy, pi, vector))
            for cell, bit in zip(chain.cells, cycle_state):
                tie = policy.mux_ties.get(cell.q)
                q_bits[cell.q].append(bit if tie is None else tie)
        if shift_states[-1] != vector.scan_state:
            raise ScanError("shift protocol failed to load the vector")
        if include_capture:
            for pi in circuit.inputs:
                pi_bits[pi].append(vector.pi_values[pi])
            for cell, bit in zip(chain.cells, vector.scan_state):
                q_bits[cell.q].append(bit)
        state, _po_values = design.capture(vector)

    all_bits = {**pi_bits, **q_bits}
    n_cycles = len(next(iter(all_bits.values())))
    waveforms = {line: pack_bits(bits) for line, bits in all_bits.items()}
    return waveforms, n_cycles


def evaluate_scan_power(design: ScanDesign,
                        vectors: Sequence[TestVector],
                        policy: ShiftPolicy | None = None,
                        library: CellLibrary | None = None,
                        include_capture: bool = True,
                        initial_state: Sequence[int] | None = None
                        ) -> ScanPowerReport:
    """Serial replay of :func:`repro.power.scanpower.evaluate_scan_power`."""
    policy = policy or ShiftPolicy()
    library = library or default_library()
    waveforms, n_cycles = episode_waveforms(
        design, vectors, policy, include_capture, initial_state)
    result = simulate_cycles(design.circuit, waveforms, n_cycles, library,
                             collect_leakage=True)
    return ScanPowerReport.from_replay(design.circuit, policy.name,
                                       len(vectors), result, library)


def per_cycle_energy_fj(design: ScanDesign,
                        vectors: Sequence[TestVector],
                        policy: ShiftPolicy | None = None,
                        library: CellLibrary | None = None,
                        include_capture: bool = True
                        ) -> np.ndarray:
    """Serial replay of :func:`repro.power.scanpower.per_cycle_energy_fj`."""
    library = library or default_library()
    waveforms, n_cycles = episode_waveforms(
        design, vectors, policy, include_capture, None)
    sim = simulate_cycles(design.circuit, waveforms, n_cycles, library,
                          collect_leakage=False, keep_waveforms=True)
    assert sim.waveforms is not None
    return energy_profile_fj(design.circuit, sim.waveforms, n_cycles,
                             library)


def evaluate_multichain_power(design: MultiChainDesign,
                              vectors: Sequence[TestVector],
                              policy: ShiftPolicy | None = None,
                              library: CellLibrary | None = None,
                              include_capture: bool = True
                              ) -> ScanPowerReport:
    """Plain cycle-simulation replay of
    :func:`repro.scan.multichain.evaluate_multichain_power`."""
    policy = policy or ShiftPolicy()
    library = library or default_library()
    waveforms, n_cycles = multichain_waveforms(design, vectors, policy,
                                               include_capture)
    result = simulate_cycles(design.circuit, waveforms, n_cycles, library,
                             collect_leakage=True)
    return ScanPowerReport.from_replay(
        design.circuit, f"{policy.name}@{design.n_chains}chains",
        len(vectors), result, library)
