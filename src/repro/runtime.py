"""Runtime options: one knob table, one resolver, one session store.

The runtime knobs — simulation backend, fault backend, shard count,
streaming budget, tracing and chaos injection — are the rows of
:data:`KNOBS` (field, env var, value type, built-in default, off
value) and the fields of the frozen :class:`RuntimeOptions` session
record.  Every knob is runtime-only: it changes speed, peak memory or
observability, never results (all engines are bit-identical by
contract), so none is part of
:meth:`~repro.core.config.FlowConfig.config_hash`.

:func:`resolve` gives every knob one precedence: explicit argument (a
per-call argument or ``FlowConfig`` field) > session default
(:func:`set_session_defaults` / :func:`using`, which the CLI flags
install) > environment variable (empty = unset) > built-in default.
A knob's off value pins it off at any level and resolves to ``None``.
Every level passes the same per-knob check, so a bad value raises
:class:`~repro.errors.RuntimeOptionError` naming the field, its flag
and its env var wherever it comes from.

Session defaults are process-global and do **not** cross process
boundaries (pool/shard workers re-resolve from their own environment).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING, Any, NoReturn

from repro.errors import ConfigError, RuntimeOptionError

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.config import FlowConfig

__all__ = [
    "KNOBS",
    "Knob",
    "RuntimeOptions",
    "check_runtime_fields",
    "resolve",
    "session_defaults",
    "set_session_defaults",
    "using",
]


def _registered_backend(name: str) -> str | None:
    # Imported on use: the registry imports the engines, and the
    # neutral records built at import time never get here.
    from repro.simulation.backends import available_backends
    if name in available_backends():
        return None
    return (f"names an unknown simulation backend {name!r}; "
            f"available: {', '.join(available_backends())}")


def _at_least(low: int) -> Callable[[int], str | None]:
    return lambda value: None if value >= low else \
        f"must be >= {low}, got {value}"


def _directory(value: str) -> str | None:
    # The nearest existing ancestor must be a directory, or creating
    # the trace directory fails later, deep inside the recorder.
    for path in (Path(value), *Path(value).parents):
        if path.exists():
            return None if path.is_dir() else \
                f"must be a directory path, but {str(path)!r} is a file"
    return None


def _chaos_spec(spec: str) -> str | None:
    from repro.chaos import ChaosPolicy
    from repro.errors import ChaosError
    try:
        ChaosPolicy.parse(spec)
    except ChaosError as exc:
        return f"is not a valid spec: {exc}"
    return None


_TYPE_NAMES = {int: "an int", str: "a str"}


@dataclasses.dataclass(frozen=True)
class Knob:
    """One runtime knob.  ``default`` applies when no level sets it
    (``None``: the caller's own fallback); ``off`` pins it off;
    ``validate`` returns a problem description or ``None``."""

    name: str
    env: str
    type: type
    default: Any = None
    off: Any = None
    validate: Callable[[Any], str | None] = lambda value: None

    @property
    def flag(self) -> str:
        """The CLI flag setting this knob's session default."""
        return "--" + self.name.replace("_", "-")

    def fail(self, problem: str) -> NoReturn:
        raise RuntimeOptionError(
            f"{self.name} {problem} ({self.flag}, ${self.env})")

    def check(self, value: Any) -> None:
        """Raise :class:`RuntimeOptionError` unless ``value`` is valid."""
        if isinstance(value, bool) or not isinstance(value, self.type):
            self.fail(f"must be {_TYPE_NAMES[self.type]}, got {value!r}")
        problem = None if value == self.off else self.validate(value)
        if problem is not None:
            self.fail(problem)

    def from_env(self) -> Any:
        """The environment's value, parsed and checked (``None`` when
        the variable is unset or empty)."""
        raw = os.environ.get(self.env, "")
        if not raw:
            return None
        value: Any = raw
        if self.type is int:
            try:
                value = int(raw)
            except ValueError:
                raise RuntimeOptionError(
                    f"${self.env} must be an integer, got {raw!r} "
                    f"({self.name}, {self.flag})") from None
        try:
            self.check(value)
        except RuntimeOptionError as exc:
            raise RuntimeOptionError(f"${self.env}={raw!r}: {exc}") \
                from None
        return value


#: Every runtime knob, keyed by its :class:`RuntimeOptions` field.
KNOBS: dict[str, Knob] = {knob.name: knob for knob in (
    Knob("backend", "REPRO_SIM_BACKEND", str, default="bigint",
         validate=_registered_backend),
    Knob("fault_backend", "REPRO_FAULT_BACKEND", str,
         validate=_registered_backend),
    Knob("shards", "REPRO_SIM_SHARDS", int, validate=_at_least(1)),
    Knob("stream_budget", "REPRO_STREAM_BUDGET", int, off=0,
         validate=_at_least(0)),
    Knob("trace", "REPRO_TRACE", str, off="", validate=_directory),
    Knob("chaos", "REPRO_CHAOS", str, off="", validate=_chaos_spec),
)}


@dataclasses.dataclass(frozen=True)
class RuntimeOptions:
    """Session-level runtime knobs, one field per :data:`KNOBS` row.

    Every field defaults to ``None`` — *defer to the environment /
    built-in default* — so an all-``None`` record is the neutral
    element and installing it resets the session.  ``trace`` names a
    span-trace directory (:mod:`repro.obs.trace`); ``chaos`` is a
    fault-injection spec (:mod:`repro.chaos`) whose injected failures
    are survived, so it changes how often the recovery paths run but
    never results.
    """

    backend: str | None = None
    fault_backend: str | None = None
    shards: int | None = None
    stream_budget: int | None = None
    trace: str | None = None
    chaos: str | None = None

    def __post_init__(self) -> None:
        # Validate eagerly, like FlowConfig: a bad session default must
        # fail at install time, not deep inside a flow or a worker.
        check_runtime_fields(self)

    def replace(self, **changes) -> "RuntimeOptions":
        """A copy with ``changes`` applied (validated).

        A name that is not a field raises :class:`ConfigError` listing
        the valid ones.
        """
        unknown = sorted(set(changes) - set(KNOBS))
        if unknown:
            raise ConfigError(
                f"unknown runtime option(s): {', '.join(unknown)}; "
                f"valid: {', '.join(KNOBS)}")
        return dataclasses.replace(self, **changes)


def check_runtime_fields(options: "RuntimeOptions | FlowConfig") -> None:
    """Validate the knob fields of ``RuntimeOptions`` or ``FlowConfig``.

    Each set field passes its knob's check (type, registered backend
    name, range, directory path, chaos spec); a shard count also needs
    the ``sharded`` fault backend or none.  Raises
    :class:`~repro.errors.RuntimeOptionError`.
    """
    for knob in KNOBS.values():
        value = getattr(options, knob.name, None)
        if value is not None:
            knob.check(value)
    if options.shards is not None and \
            options.fault_backend not in (None, "sharded"):
        KNOBS["shards"].fail(
            "only applies to the 'sharded' fault backend, not "
            f"{options.fault_backend!r}")


def resolve(name: str, explicit: Any = None) -> Any:
    """Knob ``name``'s effective value: explicit > session > env >
    built-in default.

    ``explicit`` is checked like every other level.  The knob's off
    value resolves to ``None``, as does an unset knob without a
    built-in default.
    """
    knob = KNOBS[name]
    if explicit is not None:
        knob.check(explicit)
        value = explicit
    else:
        value = getattr(_session, name)
        if value is None:
            value = knob.from_env()
    if value is None:
        return knob.default
    return None if value == knob.off else value


#: The installed session defaults (all-``None`` = neutral).
_session = RuntimeOptions()


def session_defaults() -> RuntimeOptions:
    """The currently installed session-default options."""
    return _session


def _sync_process_state() -> None:
    # The trace and chaos knobs drive process-wide state, not a
    # per-call resolver — align them with the session immediately so
    # ``using(trace=...)`` / ``using(chaos=...)`` scope like any other
    # knob.
    import repro.chaos as chaos
    from repro.obs import trace
    trace.sync_from_session()
    chaos.sync_from_session()


def set_session_defaults(options: RuntimeOptions | None = None,
                         **kwargs) -> RuntimeOptions:
    """Install session-default runtime options; returns the result.

    ``set_session_defaults(options)`` installs ``options`` wholesale
    (an all-``None`` :class:`RuntimeOptions` — or plain
    ``set_session_defaults()`` — resets the session).  Keyword form
    ``set_session_defaults(stream_budget=0)`` patches only the
    named fields of the current session.  Mixing both applies the
    kwargs on top of ``options``.  An unknown field name raises
    :class:`~repro.errors.ConfigError`.  The install is atomic: when
    it fails (say, the trace directory cannot be created), the
    previous session stays installed.
    """
    global _session
    base = options if options is not None else \
        (_session if kwargs else RuntimeOptions())
    installed = base.replace(**kwargs) if kwargs else base
    previous, _session = _session, installed
    try:
        _sync_process_state()
    except BaseException:
        _session = previous
        _sync_process_state()
        raise
    return installed


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
