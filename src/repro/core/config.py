"""Configuration for the proposed flow and its baselines."""

from __future__ import annotations

import dataclasses
from typing import ClassVar

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
        (``None`` = same as ``backend``).  Like ``backend`` it only
        affects speed; ``"sharded"`` fans the collapsed fault list out
        over worker processes.
    shards:
        Worker-process count for the ``sharded`` fault backend; setting
        it implies ``fault_backend="sharded"`` when that is unset.
    stream_budget:
        Out-of-core streaming budget for the flow's plan evaluations
        (``uint64`` elements of one window's state matrix): a positive
        value streams any plan that exceeds it, ``0`` forces streaming
        off, ``None`` defers to ``$REPRO_STREAM_BUDGET`` (default
        off).  Streamed and resident paths are bit-identical; only
        peak memory changes.
    trace:
        Span-trace output directory for the flow's instrumented
        phases (``None`` = session default / ``$REPRO_TRACE``, ``""``
        pins off).  Purely observational — spans record timings, never
        results — so like the other runtime fields it is excluded from
        :meth:`config_hash`.
    array_namespace:
        Array namespace (importable module name) for the ``array_api``
        backend's shared kernels (``None`` = session default /
        ``$REPRO_ARRAY_NAMESPACE``, built-in ``numpy``).  The flow
        installs it as a scoped session default for the duration of a
        run; bit-identical by contract, so it is excluded from
        :meth:`config_hash`.
    """

    #: Fields that only affect execution speed, never results (every
    #: backend is bit-identical by contract); excluded from
    #: :meth:`config_hash` so cache keys are engine-independent.
    RUNTIME_FIELDS: ClassVar[tuple[str, ...]] = (
        "backend", "fault_backend", "shards", "stream_budget", "trace",
        "array_namespace")

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
    trace: str | None = None
    array_namespace: str | None = None

    def __post_init__(self) -> None:
        from repro.simulation.backends import available_backends
        for which, name in (("simulation", self.backend),
                            ("fault simulation", self.fault_backend)):
            if name is not None and name not in available_backends():
                raise ConfigError(
                    f"unknown {which} backend {name!r}; "
                    f"available: {', '.join(available_backends())}")
        if self.shards is not None:
            if self.shards < 1:
                raise ConfigError("shards must be >= 1")
            if self.fault_backend not in (None, "sharded"):
                raise ConfigError(
                    "shards only applies to the 'sharded' fault backend, "
                    f"not {self.fault_backend!r}")
        if self.stream_budget is not None and self.stream_budget < 0:
            raise ConfigError("stream_budget must be >= 0")
        if self.array_namespace is not None:
            if not self.array_namespace:
                raise ConfigError("array_namespace must be a non-empty "
                                  "module name")
            import importlib.util
            try:
                spec = importlib.util.find_spec(self.array_namespace)
            except (ImportError, ValueError):
                spec = None
            if spec is None:
                raise ConfigError(
                    f"array namespace {self.array_namespace!r} is not "
                    f"importable")
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

        Precedence mirrors :mod:`repro.simulation.backends`: an explicit
        ``fault_backend``/``shards`` wins, else ``$REPRO_FAULT_BACKEND``,
        else the plain ``backend`` (``None`` = session default).  Returns
        a fresh :class:`ShardedBackend` instance when a shard count is
        pinned, so concurrent flows with different configs never fight
        over the registry singleton.
        """
        name = self.fault_backend
        if name is None and self.shards is not None:
            name = "sharded"
        if name == "sharded" and self.shards is not None:
            from repro.simulation.backends import ShardedBackend
            return ShardedBackend(shards=self.shards)
        if name is None:
            import os

            from repro.simulation.backends import DEFAULT_FAULT_BACKEND_ENV
            name = os.environ.get(DEFAULT_FAULT_BACKEND_ENV, "") or None
        if name is None:
            return self.backend
        return name

    def library(self) -> CellLibrary:
        """The cell library used throughout the flow."""
        return default_library()
