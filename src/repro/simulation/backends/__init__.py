"""Pluggable packed-simulation backends.

Two engines ship with the library:

* ``bigint`` — the reference engine (Python big-int bitwise ops);
* ``numpy`` — levelized, type-batched ``uint64`` matrix engine.

Both fault-simulate through the base :class:`Backend` methods: the
big-int row-space event replay of :mod:`repro.atpg.faultsim` over the
engine's own fault-free pass.

All backends produce bit-identical packed words, fault-detection words
and IEEE-identical derived floats; the choice only affects speed.
An explicit ``backend=`` argument (name or instance) on the public
entry points wins; ``None`` resolves the ``backend`` knob through
:func:`repro.runtime.resolve` (session default, e.g. ``--backend``, >
``$REPRO_SIM_BACKEND`` > ``bigint``).

Third-party engines register with :func:`register_backend` and become
addressable by name everywhere.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.runtime import KNOBS, resolve, set_session_defaults
from repro.simulation.backends.base import Backend, SimState
from repro.simulation.backends.bigint import BigIntBackend, BigIntState
from repro.simulation.backends.numpy_backend import NumpyBackend, NumpyState

__all__ = [
    "Backend",
    "SimState",
    "BigIntBackend",
    "BigIntState",
    "NumpyBackend",
    "NumpyState",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "resolve_fault_backend",
    "set_default_backend",
    "default_backend_name",
    "DEFAULT_BACKEND_ENV",
]

#: Environment variable consulted for the session default backend.
DEFAULT_BACKEND_ENV = KNOBS["backend"].env

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


#: Alias of :func:`resolve_backend`: fault simulation has no engine knob
#: of its own; the name stays for the benchmark harness and the frozen
#: compaction oracle in ``tests/`` that import it.
resolve_fault_backend = resolve_backend


register_backend(BigIntBackend())
register_backend(NumpyBackend())
