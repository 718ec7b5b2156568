"""Unified runtime-options surface: one session-default store.

The runtime knobs — simulation backend, fault backend, shard count,
streaming budget, tracing, array namespace and chaos injection — each
have an environment variable and live in one frozen
:class:`RuntimeOptions` session record.  Every knob is *runtime-only*:
it changes speed, peak memory or observability, never results (all
engines are bit-identical by contract), so none participates in
:meth:`~repro.core.config.FlowConfig.config_hash`.

Three entry points manage the record:

* :func:`set_session_defaults` — install session defaults (wholesale
  via a :class:`RuntimeOptions`, or patch single fields via kwargs);
* :func:`session_defaults` — the currently installed options;
* :func:`using` — a context manager installing options temporarily.

The per-knob resolvers keep their documented precedence — explicit
per-call argument > session default > environment variable > built-in
default — and all read the *session* level from the one store here, so
a server resolving per-request options, the CLI and library callers
share one surface.

Session defaults are process-global and do **not** cross process
boundaries (pool/shard workers re-resolve from their own environment,
exactly as before).
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections.abc import Iterator

from repro.errors import ConfigError

__all__ = [
    "RuntimeOptions",
    "session_defaults",
    "set_session_defaults",
    "using",
]


@dataclasses.dataclass(frozen=True)
class RuntimeOptions:
    """Session-level runtime knobs (speed/memory only, never results).

    Every field defaults to ``None`` — *defer to the environment /
    built-in default* — so an all-``None`` record is the neutral
    element and installing it resets the session.

    Attributes
    ----------
    backend:
        Packed-simulation backend name (``$REPRO_SIM_BACKEND``,
        built-in ``bigint``).
    fault_backend:
        Backend for fault simulation specifically
        (``$REPRO_FAULT_BACKEND``, else the ``backend`` chain).
    shards:
        Worker-process count for the ``sharded`` backend
        (``$REPRO_SIM_SHARDS``, else CPU count).
    stream_budget:
        Out-of-core streaming budget in ``uint64`` elements
        (``$REPRO_STREAM_BUDGET``, default off; ``0`` pins off).
    trace:
        Span-trace output directory (``$REPRO_TRACE``, default off;
        ``""`` pins off).  When set, :mod:`repro.obs.trace` records
        every instrumented phase as JSONL span files under the
        directory; like every other knob it never changes results.
    array_namespace:
        Array namespace (importable module name) for the ``array_api``
        backend's shared kernels (``$REPRO_ARRAY_NAMESPACE``, built-in
        ``numpy``; e.g. ``cupy`` for the GPU path).  Bit-identical by
        contract — like every other knob it only changes where the
        arithmetic runs.
    chaos:
        Fault-injection spec (``$REPRO_CHAOS``, default off; ``""``
        pins off).  When set, :mod:`repro.chaos` fires seeded faults
        at the named injection sites (see the spec grammar there).
        Failures are injected *and survived* — retries, respawns and
        re-queues converge on results bit-identical to a clean run —
        so like every other knob it never changes results; unlike the
        others it deliberately changes how often the recovery paths
        run.
    """

    backend: str | None = None
    fault_backend: str | None = None
    shards: int | None = None
    stream_budget: int | None = None
    trace: str | None = None
    array_namespace: str | None = None
    chaos: str | None = None

    def __post_init__(self) -> None:
        # Validate eagerly, mirroring FlowConfig: a bad session default
        # must fail at install time, not deep inside a flow.  (The
        # backends import stays conditional so the neutral all-``None``
        # record constructed at module import never recurses into the
        # backend registry.)
        if self.backend is not None or self.fault_backend is not None:
            from repro.simulation.backends import available_backends
            for which, name in (("simulation", self.backend),
                                ("fault simulation", self.fault_backend)):
                if name is not None and name not in available_backends():
                    raise ConfigError(
                        f"unknown {which} backend {name!r}; "
                        f"available: {', '.join(available_backends())}")
        for name in ("shards", "stream_budget"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if self.shards is not None:
            if self.shards < 1:
                raise ConfigError("shards must be >= 1")
            if self.fault_backend not in (None, "sharded"):
                raise ConfigError(
                    "shards only applies to the 'sharded' fault "
                    f"backend, not {self.fault_backend!r}")
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
        if self.chaos:
            # Parse eagerly: a bad --chaos spec must fail at install
            # time, not at the first injection site deep in a worker.
            from repro.chaos import ChaosPolicy
            ChaosPolicy.parse(self.chaos)

    def replace(self, **changes) -> "RuntimeOptions":
        """A copy with ``changes`` applied (validated).

        A name that is not a field raises :class:`ConfigError` listing
        the valid ones.
        """
        names = [field.name for field in dataclasses.fields(self)]
        unknown = sorted(set(changes) - set(names))
        if unknown:
            raise ConfigError(
                f"unknown runtime option(s): {', '.join(unknown)}; "
                f"valid: {', '.join(names)}")
        return dataclasses.replace(self, **changes)

    def to_flow_kwargs(self) -> dict:
        """The non-``None`` fields as :class:`FlowConfig` kwargs.

        Campaign/server code folds the session options into a per-job
        config in one call.  Fields that are session-scoped only
        (``chaos`` — injection is ambient process state, not a per-job
        knob) are filtered out by introspecting ``FlowConfig``.
        """
        from repro.core.config import FlowConfig
        known = {field.name for field in dataclasses.fields(FlowConfig)}
        return {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)
                if field.name in known
                and getattr(self, field.name) is not None}


#: The installed session defaults (all-``None`` = neutral).
_session = RuntimeOptions()


def session_defaults() -> RuntimeOptions:
    """The currently installed session-default options."""
    return _session


def set_session_defaults(options: RuntimeOptions | None = None,
                         **kwargs) -> RuntimeOptions:
    """Install session-default runtime options; returns the result.

    ``set_session_defaults(options)`` installs ``options`` wholesale
    (an all-``None`` :class:`RuntimeOptions` — or plain
    ``set_session_defaults()`` — resets the session).  Keyword form
    ``set_session_defaults(stream_budget=0)`` patches only the
    named fields of the current session.  Mixing both applies the
    kwargs on top of ``options``.  An unknown field name raises
    :class:`~repro.errors.ConfigError`.
    """
    global _session
    base = options if options is not None else \
        (_session if kwargs else RuntimeOptions())
    _session = base.replace(**kwargs) if kwargs else base
    # The trace and chaos knobs drive process-wide state, not a
    # per-call resolver — align them with the new session immediately
    # so ``using(trace=...)`` / ``using(chaos=...)`` scope like any
    # other knob.
    from repro.obs import trace as obs_trace
    obs_trace.sync_from_session()
    import repro.chaos as chaos
    chaos.sync_from_session()
    return _session


@contextlib.contextmanager
def using(options: RuntimeOptions | None = None,
          **kwargs) -> Iterator[RuntimeOptions]:
    """Temporarily install session defaults (restored on exit).

    ::

        with using(backend="numpy", stream_budget=1 << 20):
            run_table1(...)
    """
    previous = _session
    try:
        yield set_session_defaults(options, **kwargs)
    finally:
        set_session_defaults(previous)

