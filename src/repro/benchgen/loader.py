"""Benchmark circuit loader with real-netlist override.

Resolution order for :func:`load_circuit`:

1. a real ``.bench`` file named ``<name>.bench`` in ``$REPRO_ISCAS89_DIR``
   (or an explicit ``search_dir``), parsed verbatim;
2. circuits embedded verbatim in the library (currently the real ``s27``);
3. the seeded synthetic generator matching the published statistics.

:func:`circuit_provenance` reports which source would be used — the
experiment harnesses print it so reproduction reports are explicit about
running on substitutes.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.benchgen.generator import generate_circuit
from repro.benchgen.iscas89 import ISCAS89_STATS, TABLE1_CIRCUITS, stats_for
from repro.netlist import builders
from repro.netlist.bench import parse_bench_file
from repro.netlist.circuit import Circuit

__all__ = ["load_circuit", "check_circuit", "circuit_provenance",
           "available_circuits", "ENV_BENCH_DIR"]

ENV_BENCH_DIR = "REPRO_ISCAS89_DIR"

_BUILTIN = {"s27": builders.s27}


def _real_bench_path(name: str,
                     search_dir: str | Path | None) -> Path | None:
    directory = search_dir if search_dir is not None \
        else os.environ.get(ENV_BENCH_DIR)
    if not directory:
        return None
    path = Path(directory) / f"{name}.bench"
    return path if path.is_file() else None


def circuit_provenance(name: str,
                       search_dir: str | Path | None = None) -> str:
    """One of "real-file", "embedded", "synthetic"."""
    if _real_bench_path(name, search_dir) is not None:
        return "real-file"
    if name in _BUILTIN:
        return "embedded"
    return "synthetic"


def load_circuit(name: str, seed: int = 1,
                 search_dir: str | Path | None = None) -> Circuit:
    """Load benchmark ``name`` (see module docstring for resolution).

    ``seed`` only affects the synthetic fallback.
    """
    path = _real_bench_path(name, search_dir)
    if path is not None:
        return parse_bench_file(path, name)
    if name in _BUILTIN:
        return _BUILTIN[name]()
    return generate_circuit(name, seed)


def check_circuit(name: str,
                  search_dir: str | Path | None = None) -> None:
    """Raise :class:`~repro.errors.UnknownCircuitError` unless
    :func:`load_circuit` can resolve ``name``, without building it."""
    if name not in _BUILTIN and _real_bench_path(name, search_dir) is None:
        stats_for(name)


def available_circuits() -> list[str]:
    """Names resolvable without external files (embedded + synthetic)."""
    names = set(ISCAS89_STATS) | set(_BUILTIN)
    return sorted(names, key=lambda n: (len(n), n))


def table1_circuits() -> list[str]:
    """The paper's Table I circuit list, in row order."""
    return list(TABLE1_CIRCUITS)
