"""Runtime options: one knob table, one resolver, one session store.

The runtime knobs — tracing and chaos injection — are the rows of
:data:`KNOBS` (field, env var, validator) and the fields of the frozen
:class:`RuntimeOptions` session record.  Both are strings.  Every knob
is runtime-only: it changes observability or how often the recovery
paths run, never results, so none is a
:class:`~repro.core.config.FlowConfig` field or part of its
:meth:`~repro.core.config.FlowConfig.config_hash`.

:func:`resolve` gives every knob one precedence: explicit argument >
session default (:func:`set_session_defaults` / :func:`using`, which
the CLI flags install) > environment variable (empty = unset); a knob
no level sets is off.  The empty string pins a knob off at any level
and resolves to ``None``.  Every level passes the same per-knob check, so a bad
value raises :class:`~repro.errors.RuntimeOptionError` naming the
field, its flag and its env var wherever it comes from.

Session defaults are process-global and do **not** cross process
boundaries (pool workers re-resolve from their own environment).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any, NoReturn

from repro.errors import ConfigError, RuntimeOptionError

__all__ = [
    "KNOBS",
    "Knob",
    "RuntimeOptions",
    "resolve",
    "session_defaults",
    "set_session_defaults",
    "using",
]


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


@dataclasses.dataclass(frozen=True)
class Knob:
    """One string-valued runtime knob.  ``""`` pins it off;
    ``validate`` returns a problem description or ``None``."""

    name: str
    env: str
    validate: Callable[[str], str | None] = lambda value: None

    @property
    def flag(self) -> str:
        """The CLI flag setting this knob's session default."""
        return "--" + self.name.replace("_", "-")

    def fail(self, problem: str) -> NoReturn:
        raise RuntimeOptionError(
            f"{self.name} {problem} ({self.flag}, ${self.env})")

    def check(self, value: Any) -> None:
        """Raise :class:`RuntimeOptionError` unless ``value`` is valid."""
        if not isinstance(value, str):
            self.fail(f"must be a str, got {value!r}")
        problem = self.validate(value) if value else None
        if problem is not None:
            self.fail(problem)

    def from_env(self) -> str | None:
        """The environment's value, checked (``None`` when the variable
        is unset or empty)."""
        raw = os.environ.get(self.env, "")
        if not raw:
            return None
        try:
            self.check(raw)
        except RuntimeOptionError as exc:
            raise RuntimeOptionError(f"${self.env}={raw!r}: {exc}") \
                from None
        return raw


#: Every runtime knob, keyed by its :class:`RuntimeOptions` field.
KNOBS: dict[str, Knob] = {knob.name: knob for knob in (
    Knob("trace", "REPRO_TRACE", validate=_directory),
    Knob("chaos", "REPRO_CHAOS", validate=_chaos_spec),
)}


@dataclasses.dataclass(frozen=True)
class RuntimeOptions:
    """Session-level runtime knobs, one field per :data:`KNOBS` row.

    Every field defaults to ``None`` — *defer to the environment* — so
    an all-``None`` record is the neutral element and installing it
    resets the session.  ``trace`` names a
    span-trace directory (:mod:`repro.obs.trace`); ``chaos`` is a
    fault-injection spec (:mod:`repro.chaos`) whose injected failures
    are survived, so it changes how often the recovery paths run but
    never results.
    """

    trace: str | None = None
    chaos: str | None = None

    def __post_init__(self) -> None:
        # Validate eagerly: a bad session default must fail at install
        # time, not deep inside a flow or a worker.
        for knob in KNOBS.values():
            value = getattr(self, knob.name)
            if value is not None:
                knob.check(value)

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


def resolve(name: str, explicit: Any = None) -> Any:
    """Knob ``name``'s effective value: explicit > session > env.

    ``explicit`` is checked like every other level.  The empty string
    (off) resolves to ``None``, as does a knob no level sets.
    """
    knob = KNOBS[name]
    if explicit is not None:
        knob.check(explicit)
        value = explicit
    else:
        value = getattr(_session, name)
        if value is None:
            value = knob.from_env()
    return value or None


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
    ``set_session_defaults(chaos="")`` patches only the
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

        with using(trace="traces"):
            run_table1(...)
    """
    previous = _session
    try:
        yield set_session_defaults(options, **kwargs)
    finally:
        set_session_defaults(previous)
