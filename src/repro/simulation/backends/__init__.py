"""Packed-simulation backends.

One engine ships with the library: ``bigint``, Python big-int bitwise
simulation over the circuit's integer row table
(:class:`BigIntBackend`).  It fault-simulates through the base
:class:`Backend` methods: the big-int row-space event replay of
:mod:`repro.atpg.faultsim` over its own fault-free pass.

The :class:`Backend` / :class:`SimState` protocol stays, so callers
and tests may pass their own engine instance as ``backend=`` to the
public entry points.  ``None`` (the default everywhere) and the name
``"bigint"`` resolve to the one shared :class:`BigIntBackend`.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.simulation.backends.base import Backend, SimState
from repro.simulation.backends.bigint import BigIntBackend, BigIntState

__all__ = [
    "Backend",
    "SimState",
    "BigIntBackend",
    "BigIntState",
    "get_backend",
    "resolve_backend",
    "resolve_fault_backend",
]

_BIGINT = BigIntBackend()


def get_backend(name: str) -> Backend:
    """The engine named ``name``; raises :class:`SimulationError` for any
    name but ``"bigint"``."""
    if name != _BIGINT.name:
        raise SimulationError(
            f"unknown simulation backend {name!r}; "
            f"available: {_BIGINT.name}")
    return _BIGINT


def resolve_backend(backend: str | Backend | None) -> Backend:
    """Turn a backend spec (name, instance or ``None``) into an instance."""
    if backend is None:
        return _BIGINT
    if isinstance(backend, Backend):
        return backend
    return get_backend(backend)


#: Alias of :func:`resolve_backend`: fault simulation has no engine knob
#: of its own; the name stays for the benchmark harness and the frozen
#: compaction oracle in ``tests/`` that import it.
resolve_fault_backend = resolve_backend
