"""Scan-shift power evaluation — the measurement behind Table I.

Given a full-scan design, a test set and a *shift policy* (how primary
inputs and muxed pseudo-inputs are driven while shifting), this module
replays the entire scan episode cycle by cycle:

* per test vector: ``L`` shift cycles (the response of the previous
  vector shifts out while the new one shifts in), then one capture cycle
  in normal mode (multiplexers transparent, PIs at their test values);
* the settled combinational state of every cycle is simulated in one
  packed pass; transitions are weighted by switched capacitance (dynamic,
  eq. 1) and each cycle's gate input patterns are priced with the leakage
  tables (static, eq. 5).

Reported metrics mirror Table I exactly: dynamic as energy/cycle in uW/Hz
(multiply by the shift frequency for watts), static as the mean leakage
power in uW, both for the **combinational part** of the circuit.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cells.capacitance import switched_caps_ff
from repro.cells.library import CellLibrary, default_library
from repro.leakage.estimator import _word_to_bool_array, leakage_power_uw
from repro.netlist.circuit import Circuit
from repro.power.dynamic import (
    energy_per_cycle_uw_per_hz,
    switching_energy_fj,
)
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.episode import (
    compile_episode_plan,
    simulate_episode_batch,
)

if TYPE_CHECKING:
    from repro.simulation.cyclesim import CycleSimResult

__all__ = ["ShiftPolicy", "ScanPowerReport", "evaluate_scan_power",
           "per_cycle_energy_fj", "energy_profile_fj", "episode_waveforms"]


@dataclasses.dataclass(frozen=True)
class ShiftPolicy:
    """How controlled inputs are driven during shift mode.

    Attributes
    ----------
    name:
        Label for reports ("traditional", "input_control", "proposed").
    pi_values:
        Constant values applied to primary inputs while shifting; ``None``
        leaves the PIs at each test vector's own values (traditional
        scan).  May cover a subset of PIs (the rest hold test values).
    mux_ties:
        Constant presented by the inserted MUX on each muxed pseudo-input
        during shift (empty when no MUXes exist).
    """

    name: str = "traditional"
    pi_values: Mapping[str, int] | None = None
    mux_ties: Mapping[str, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ScanPowerReport:
    """Power measured over one full scan episode (one Table I row cell)."""

    circuit_name: str
    policy_name: str
    n_vectors: int
    n_cycles: int
    dynamic_uw_per_hz: float
    static_uw: float
    total_transitions: int
    mean_leakage_na: float

    @classmethod
    def from_replay(cls, circuit: Circuit, policy_name: str,
                    n_vectors: int,
                    replay: "CycleSimResult",
                    library: CellLibrary) -> "ScanPowerReport":
        """Price one replay's transitions and mean leakage (eq. 1, 5)."""
        energy_fj = switching_energy_fj(circuit, replay.transitions,
                                        library)
        return cls(
            circuit_name=circuit.name,
            policy_name=policy_name,
            n_vectors=n_vectors,
            n_cycles=replay.n_cycles,
            dynamic_uw_per_hz=energy_per_cycle_uw_per_hz(
                energy_fj, replay.n_cycles),
            static_uw=leakage_power_uw(replay.mean_leakage_na,
                                       library.vdd),
            total_transitions=replay.total_transitions,
            mean_leakage_na=replay.mean_leakage_na,
        )

    def improvement_vs(self, baseline: "ScanPowerReport"
                       ) -> tuple[float, float]:
        """(dynamic %, static %) improvement relative to ``baseline``."""
        def pct(base: float, ours: float) -> float:
            if base == 0:
                return 0.0
            return (base - ours) / base * 100.0
        return (pct(baseline.dynamic_uw_per_hz, self.dynamic_uw_per_hz),
                pct(baseline.static_uw, self.static_uw))


def episode_waveforms(design: ScanDesign, vectors: Sequence[TestVector],
                      policy: ShiftPolicy | None = None,
                      include_capture: bool = True,
                      initial_state: Sequence[int] | None = None
                      ) -> tuple[dict[str, int], int]:
    """Public wrapper over the episode waveform builder.

    Returns ``(per-line packed waveforms, n_cycles)`` for the whole scan
    episode — useful for custom analyses (spectra, peak windows, VCD-ish
    dumps) on top of the same shift semantics the evaluator uses.
    """
    policy = policy or ShiftPolicy()
    plan = compile_episode_plan(
        design, vectors, pi_values=policy.pi_values,
        mux_ties=policy.mux_ties, include_capture=include_capture,
        initial_state=initial_state)
    return plan.waveforms, plan.n_cycles


def evaluate_scan_power(design: ScanDesign,
                        vectors: Sequence[TestVector],
                        policy: ShiftPolicy | None = None,
                        library: CellLibrary | None = None,
                        include_capture: bool = True,
                        initial_state: Sequence[int] | None = None
                        ) -> ScanPowerReport:
    """Replay a scan test set and measure combinational power.

    Parameters
    ----------
    design:
        The full-scan circuit plus chain.
    vectors:
        Test set in application order; each supplies PI values and the
        chain load state.
    policy:
        Shift-mode drive policy (default: traditional scan).
    include_capture:
        Include each vector's capture cycle in the episode (the mode
        switch transitions are real and are charged to the method causing
        them).
    initial_state:
        Chain contents before the first shift (default all zeros).
    """
    policy = policy or ShiftPolicy()
    library = library or default_library()
    plan = compile_episode_plan(
        design, vectors, pi_values=policy.pi_values,
        mux_ties=policy.mux_ties, include_capture=include_capture,
        initial_state=initial_state)
    batch = simulate_episode_batch(plan, library, collect_leakage=True)
    return ScanPowerReport.from_replay(design.circuit, policy.name,
                                       len(vectors), batch, library)


def per_cycle_energy_fj(design: ScanDesign,
                        vectors: Sequence[TestVector],
                        policy: ShiftPolicy | None = None,
                        library: CellLibrary | None = None,
                        include_capture: bool = True
                        ) -> np.ndarray:
    """Per-cycle-boundary switching energy profile (peak-power studies).

    Memory/time scale with lines x cycles; intended for the smaller
    circuits (ablation benches use it, Table I does not need it).
    """
    policy = policy or ShiftPolicy()
    library = library or default_library()
    plan = compile_episode_plan(
        design, vectors, pi_values=policy.pi_values,
        mux_ties=policy.mux_ties, include_capture=include_capture,
        initial_state=None)
    batch = simulate_episode_batch(
        plan, library, collect_leakage=False, keep_waveforms=True)
    assert batch.waveforms is not None
    return energy_profile_fj(design.circuit, batch.waveforms,
                             batch.n_cycles, library)


def energy_profile_fj(circuit: Circuit, line_waveforms: Mapping[str, int],
                      n_cycles: int, library: CellLibrary) -> np.ndarray:
    """Switching energy (fJ) at each of the ``n_cycles - 1`` boundaries.

    ``line_waveforms`` holds every line's packed value over the replay
    (bit ``t`` = cycle ``t``); each toggle is priced by the line's
    switched capacitance.
    """
    caps = switched_caps_ff(circuit, library)
    profile = np.zeros(max(n_cycles - 1, 0), dtype=np.float64)
    boundary_mask = (1 << max(n_cycles - 1, 0)) - 1
    for line, word in line_waveforms.items():
        toggles = (word ^ (word >> 1)) & boundary_mask
        if toggles == 0:
            continue
        bits = _word_to_bool_array(toggles, n_cycles - 1)
        profile += bits * library.switching_energy_fj(caps.get(line, 0.0))
    return profile
