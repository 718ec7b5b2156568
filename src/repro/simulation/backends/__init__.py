"""Pluggable packed-simulation backends.

Three engines ship with the library:

* ``bigint`` — the reference engine (Python big-int bitwise ops);
* ``numpy`` — levelized, type-batched ``uint64`` matrix engine, with a
  fused batched fault-simulation kernel
  (:mod:`repro.simulation.backends.fault_kernel`);
* ``sharded`` — meta-backend partitioning fault lists, pattern windows
  and episode cycle ranges over worker processes (``numpy`` inside
  each worker); plain packed simulation delegates to ``numpy``.

All backends produce bit-identical packed words, fault-detection words
and IEEE-identical derived floats; the choice only affects speed.
An explicit ``backend=`` argument (name or instance) on the public
entry points wins; ``None`` resolves the ``backend`` knob through
:func:`repro.runtime.resolve` (session default, e.g. ``--backend``, >
``$REPRO_SIM_BACKEND`` > ``bigint``).

Fault simulation resolves one extra level: an explicit fault-engine spec
(``fault_simulate(backend=...)``, ``FlowConfig.fault_backend``/
``.shards``) wins; otherwise the ``fault_backend`` knob (session
default, e.g. ``--fault-backend``, > ``$REPRO_FAULT_BACKEND``) — a
targeted knob so e.g. CI can force sharded fault simulation across a
run regardless of how the plain backend was chosen; otherwise the
``backend`` knob.

Third-party engines register with :func:`register_backend` and become
addressable by name everywhere.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.runtime import KNOBS, resolve, set_session_defaults
from repro.simulation.backends.base import Backend, SimState
from repro.simulation.backends.bigint import BigIntBackend, BigIntState
from repro.simulation.backends.numpy_backend import NumpyBackend, NumpyState
from repro.simulation.backends.sharded import ShardedBackend

__all__ = [
    "Backend",
    "SimState",
    "BigIntBackend",
    "BigIntState",
    "NumpyBackend",
    "NumpyState",
    "ShardedBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "resolve_fault_backend",
    "set_default_backend",
    "default_backend_name",
    "default_fault_backend_name",
    "DEFAULT_BACKEND_ENV",
    "DEFAULT_FAULT_BACKEND_ENV",
]

#: Environment variable consulted for the session default backend.
DEFAULT_BACKEND_ENV = KNOBS["backend"].env

#: Environment variable overriding the default backend for *fault
#: simulation* only (falls back to the session default when unset).
DEFAULT_FAULT_BACKEND_ENV = KNOBS["fault_backend"].env

_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, overwrite: bool = False) -> Backend:
    """Register ``backend`` under its :attr:`~Backend.name`.

    Raises :class:`SimulationError` on a duplicate name unless
    ``overwrite`` is set.
    """
    if not backend.name:
        raise SimulationError("backend has no name")
    if backend.name in _REGISTRY and not overwrite:
        raise SimulationError(
            f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> Backend:
    """Look a backend up by name; raises :class:`SimulationError` when
    unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown simulation backend {name!r}; "
            f"available: {', '.join(available_backends())}") from None


def set_default_backend(name: str | None) -> None:
    """Install the session-default backend (``None`` resets to the env/
    built-in default).  The name is validated immediately.

    Equivalent to ``repro.runtime.set_session_defaults(backend=name)``.
    """
    set_session_defaults(backend=name)


def default_backend_name() -> str:
    """The resolved ``backend`` knob (session, env, ``bigint``)."""
    return resolve("backend")


def resolve_backend(backend: str | Backend | None) -> Backend:
    """Turn a backend spec (name, instance or ``None``) into an instance."""
    if backend is None:
        return get_backend(default_backend_name())
    if isinstance(backend, Backend):
        return backend
    return get_backend(backend)


def default_fault_backend_name() -> str:
    """Default engine for fault simulation: the resolved
    ``fault_backend`` knob (session, then ``$REPRO_FAULT_BACKEND``),
    else :func:`default_backend_name`.  Results are bit-identical
    either way; only speed changes."""
    return resolve("fault_backend") or default_backend_name()


def resolve_fault_backend(backend: str | Backend | None) -> Backend:
    """Like :func:`resolve_backend`, but ``None`` resolves through
    :func:`default_fault_backend_name`."""
    if backend is None:
        return get_backend(default_fault_backend_name())
    return resolve_backend(backend)


register_backend(BigIntBackend())
register_backend(NumpyBackend())
register_backend(ShardedBackend())
