"""Configuration for the proposed flow and its baselines."""

from __future__ import annotations

import dataclasses
import numbers
from typing import ClassVar

from repro.atpg.generate import AtpgConfig
from repro.cells.library import CellLibrary, default_library
from repro.errors import ConfigError
from repro.runtime import check_runtime_fields, resolve

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
        path delay unchanged").
    include_capture_cycles:
        Include capture cycles in the power episode.
    atpg:
        Test generation configuration (seed is derived from ``seed`` when
        left at the sentinel -1).
    backend:
        Simulation backend name used by the flow's packed simulations
        (``None`` = session default).  Numerically irrelevant — every
        backend is bit-identical — so results never depend on it.
    fault_backend:
        Backend name for the flow's fault simulations specifically
        (``None`` = the session / ``$REPRO_FAULT_BACKEND`` default,
        else ``backend``).  Like ``backend`` it only
        affects speed; ``"sharded"`` fans the collapsed fault list out
        over worker processes.
    shards:
        Worker-process count for the ``sharded`` fault backend; setting
        it implies ``fault_backend="sharded"`` when that is unset.
    stream_budget:
        Out-of-core streaming budget for the flow's plan evaluations
        (``uint64`` elements of one window's state matrix): a positive
        value streams any plan that exceeds it, ``0`` forces streaming
        off, ``None`` defers to the session /
        ``$REPRO_STREAM_BUDGET`` default (off).  Streamed and resident
        paths are bit-identical; only peak memory changes.
    """

    #: Fields that only affect execution speed, never results (every
    #: backend is bit-identical by contract); excluded from
    #: :meth:`config_hash` so cache keys are engine-independent.
    RUNTIME_FIELDS: ClassVar[tuple[str, ...]] = (
        "backend", "fault_backend", "shards", "stream_budget")

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
    backend: str | None = None
    fault_backend: str | None = None
    shards: int | None = None
    stream_budget: int | None = None

    def __post_init__(self) -> None:
        check_runtime_fields(self)
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
        if self.mux_delay_margin_ps < 0:
            raise ConfigError("mux_delay_margin_ps must be >= 0")

    def config_hash(self) -> str:
        """Canonical content hash of the result-relevant configuration.

        Properties: stable across processes and dict orderings (keys
        are sorted before hashing); excludes the runtime-only engine
        fields (:attr:`RUNTIME_FIELDS` — backends are bit-identical,
        so results never depend on them); resolves the ATPG sub-config
        through :meth:`atpg_config` so a config with an explicitly
        spelled-out default ATPG hashes equal to one relying on the
        implicit default.  The campaign result cache keys artefacts on
        this hash.
        """
        from repro.utils.hashing import stable_digest
        payload = dataclasses.asdict(self)
        for field in self.RUNTIME_FIELDS:
            payload.pop(field)
        payload["atpg"] = dataclasses.asdict(self.atpg_config())
        return stable_digest(payload)

    def atpg_config(self) -> AtpgConfig:
        """The ATPG configuration, seeded from the master seed by default."""
        if self.atpg is not None:
            return self.atpg
        return AtpgConfig(seed=self.seed)

    def fault_simulation_backend(self):
        """The backend spec the flow's fault simulations should use.

        An explicit ``fault_backend`` wins, then ``shards`` (implying
        ``sharded``), then the resolved ``fault_backend`` knob of
        :mod:`repro.runtime` (session default, then
        ``$REPRO_FAULT_BACKEND``), else the plain ``backend`` (``None``
        = session default).  Returns a fresh :class:`ShardedBackend`
        instance when a shard count is pinned, so concurrent flows with
        different configs never fight over the registry singleton.
        """
        name = self.fault_backend
        if name is None and self.shards is not None:
            name = "sharded"
        if name == "sharded" and self.shards is not None:
            from repro.simulation.backends import ShardedBackend
            return ShardedBackend(shards=self.shards)
        if name is None:
            name = resolve("fault_backend")
        return self.backend if name is None else name

    def library(self) -> CellLibrary:
        """The cell library used throughout the flow."""
        return default_library()
