"""Tooling guard: one logic engine, no engine seam.

The packed simulation, the scan replay and fault simulation all run on
the one big-int engine of ``repro/simulation/backends.py``.  An engine
argument on a function, or the retired engine protocol names coming
back as exports, would reopen a seam no second engine fills.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Names of the retired engine protocol and fault-plan surface.
RETIRED = ("Backend", "SimState", "get_backend", "FaultEpisodePlan",
           "compile_fault_episode_plan")


def _backend_parameters(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            names = [arg.arg for arg in (args.posonlyargs + args.args
                                         + args.kwonlyargs)]
            names += [arg.arg for arg in (args.vararg, args.kwarg) if arg]
            if "backend" in names:
                found.append(f"{path.relative_to(SRC).as_posix()}:"
                             f"{node.lineno}")
    return found


def test_no_function_takes_a_backend():
    offenders = [where for path in sorted(SRC.rglob("*.py"))
                 for where in _backend_parameters(path)]
    assert not offenders, (
        "there is one logic engine; drop the backend parameter: "
        + ", ".join(offenders))


@pytest.mark.parametrize("module", ["repro", "repro.simulation"])
def test_retired_engine_names_not_exported(module):
    package = importlib.import_module(module)
    assert not set(dir(package)) & set(RETIRED)
    assert not [name for name in RETIRED if hasattr(package, name)]


def test_retired_engine_names_gone():
    backends = importlib.import_module("repro.simulation.backends")
    fault_episode = importlib.import_module(
        "repro.simulation.fault_episode")
    faultsim = importlib.import_module("repro.atpg.faultsim")
    for module, name in [(backends, "Backend"), (backends, "SimState"),
                         (backends, "get_backend"),
                         (backends, "BigIntBackend"),
                         (fault_episode, "FaultEpisodePlan"),
                         (fault_episode, "compile_fault_episode_plan"),
                         (faultsim, "scalar_fault_simulate")]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
