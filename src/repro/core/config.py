"""Configuration for the proposed flow and its baselines."""

from __future__ import annotations

import dataclasses
import math
import numbers

from repro.atpg.generate import AtpgConfig
from repro.cells.library import CellLibrary, default_library
from repro.errors import ConfigError

__all__ = ["FlowConfig"]


@dataclasses.dataclass(frozen=True)
class FlowConfig:
    """All knobs of the proposed method (defaults follow the paper).

    Attributes
    ----------
    seed:
        Master seed; every stochastic sub-step derives its own stream.
    observability_samples:
        Monte-Carlo sample count for leakage observability.
    ivc_trials:
        Random vectors tried when filling don't-care controlled inputs
        (ref [14]: "far less than the total possible vectors").
    ivc_noise_samples:
        Transition-source samples averaged per IVC trial (the non-muxed
        pseudo-inputs keep toggling; candidate completions are scored by
        their mean leakage over this many source states).
    max_backtracks:
        Backtrack budget per justification call.
    reorder_inputs:
        Apply the commutative-gate input reordering step.
    use_observability_directive:
        Direct backtrace/candidate choices by leakage observability
        (turning this off is ablation A1; decisions fall back to a
        deterministic structural order).
    mux_delay_margin_ps:
        Extra slack demanded before accepting a MUX (0 = paper's "critical
        path delay unchanged"); finite and >= 0.
    include_capture_cycles:
        Include capture cycles in the power episode.
    atpg:
        Test generation configuration (seed is derived from ``seed`` when
        left at the sentinel -1).
    """

    seed: int = 0
    observability_samples: int = 512
    ivc_trials: int = 64
    ivc_noise_samples: int = 8
    max_backtracks: int = 50
    reorder_inputs: bool = True
    use_observability_directive: bool = True
    mux_delay_margin_ps: float = 0.0
    include_capture_cycles: bool = True
    atpg: AtpgConfig | None = None

    def __post_init__(self) -> None:
        for name in ("seed", "observability_samples", "ivc_trials",
                     "ivc_noise_samples", "max_backtracks"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if isinstance(self.mux_delay_margin_ps, bool) or \
                not isinstance(self.mux_delay_margin_ps, numbers.Real):
            raise ConfigError("mux_delay_margin_ps must be a real number, "
                              f"got {self.mux_delay_margin_ps!r}")
        if self.observability_samples < 2:
            raise ConfigError("observability_samples must be >= 2")
        if self.ivc_trials < 1:
            raise ConfigError("ivc_trials must be >= 1")
        if self.ivc_noise_samples < 1:
            raise ConfigError("ivc_noise_samples must be >= 1")
        if self.max_backtracks < 0:
            raise ConfigError("max_backtracks must be >= 0")
        if not 0 <= self.mux_delay_margin_ps < math.inf:  # NaN fails too
            raise ConfigError("mux_delay_margin_ps must be finite and >= 0, "
                              f"got {self.mux_delay_margin_ps!r}")

    def config_hash(self) -> str:
        """Canonical content hash of the result-relevant configuration.

        Properties: stable across processes and dict orderings (keys
        are sorted before hashing); resolves the ATPG sub-config
        through :meth:`atpg_config` so a config with an explicitly
        spelled-out default ATPG hashes equal to one relying on the
        implicit default.  The campaign result cache keys artefacts on
        this hash.
        """
        from repro.utils.hashing import stable_digest
        payload = dataclasses.asdict(self)
        payload["atpg"] = dataclasses.asdict(self.atpg_config())
        return stable_digest(payload)

    def atpg_config(self) -> AtpgConfig:
        """The ATPG configuration, seeded from the master seed by default."""
        if self.atpg is not None:
            return self.atpg
        return AtpgConfig(seed=self.seed)

    def library(self) -> CellLibrary:
        """The cell library used throughout the flow."""
        return default_library()
