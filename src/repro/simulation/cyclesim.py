"""Multi-cycle waveform simulation with transition and leakage accounting.

This is the engine behind the paper's Table I measurements: given the
per-cycle waveforms of the combinational inputs over a whole scan episode
(every shift clock of every test vector), it computes

* the waveform of every internal line (packed words, one bit per cycle),
* per-line transition counts (for dynamic energy, paper eq. 1),
* per-gate leakage accumulated over all cycles via per-pattern cycle
  counts (for average static power) — exact minterm counts from one
  popcount per line (one AND and one popcount more per 2-input gate,
  :func:`~repro.simulation.values.minterm_counts` for wider gates)
  instead of a per-cycle table walk.

Zero-delay (cycle-accurate) semantics: within a cycle the combinational
logic settles instantly; transitions are counted between consecutive
settled states.  This matches the transition-count power model used by the
paper and its baseline [8].

The heavy lifting (waveform evaluation, popcounts) is delegated to the
simulation backend (:mod:`repro.simulation.backends`).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro.cells.library import CellLibrary, default_library
from repro.netlist.circuit import Circuit
from repro.simulation.backends import Backend, resolve_backend

__all__ = ["CycleSimResult", "simulate_cycles"]


@dataclasses.dataclass
class CycleSimResult:
    """Outcome of a multi-cycle simulation.

    Attributes
    ----------
    n_cycles:
        Number of simulated cycles.
    transitions:
        Per-line transition count across consecutive cycles.
    leakage_sum_na:
        Per-gate-output sum over cycles of the cell's leakage (nA); divide
        by ``n_cycles`` for the average.  Only combinational gates appear.
    waveforms:
        Per-line packed waveforms (kept only when requested).
    """

    n_cycles: int
    transitions: dict[str, int]
    leakage_sum_na: dict[str, float]
    waveforms: dict[str, int] | None = None

    @property
    def total_transitions(self) -> int:
        """Sum of transitions over all lines."""
        return sum(self.transitions.values())

    @property
    def mean_leakage_na(self) -> float:
        """Average total leakage current (nA) over the episode."""
        if self.n_cycles == 0:
            return 0.0
        return sum(self.leakage_sum_na.values()) / self.n_cycles


def simulate_cycles(circuit: Circuit, input_waveforms: Mapping[str, int],
                    n_cycles: int, library: CellLibrary | None = None,
                    collect_leakage: bool = True,
                    keep_waveforms: bool = False,
                    backend: str | Backend | None = None) -> CycleSimResult:
    """Simulate ``n_cycles`` consecutive combinational states.

    Parameters
    ----------
    circuit:
        Circuit whose combinational part is simulated.
    input_waveforms:
        Packed per-cycle waveform for every primary input and DFF output
        (constant inputs are ``0`` or ``mask(n_cycles)``).
    library:
        Cell library supplying the leakage tables.
    collect_leakage:
        Skip the (comparatively expensive) per-pattern popcounts when the
        caller only needs transitions.
    keep_waveforms:
        Retain all line waveforms on the result (memory proportional to
        lines x cycles / 8 bytes).
    backend:
        Simulation backend (name, instance or ``None`` for the big-int
        engine).
    """
    library = library or default_library()
    state = resolve_backend(backend).run(circuit, input_waveforms, n_cycles)

    transitions = state.transitions()
    leakage_sum: dict[str, float] = {}
    if collect_leakage:
        leakage_sum = state.leakage_sum(library)

    return CycleSimResult(
        n_cycles=n_cycles,
        transitions=transitions,
        leakage_sum_na=leakage_sum,
        waveforms=state.words() if keep_waveforms else None,
    )
