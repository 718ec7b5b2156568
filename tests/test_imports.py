"""Every ``repro`` subpackage must import as the first ``repro`` import.

An import cycle only shows when the import starts at the "wrong" end,
e.g. ``import repro.power`` before anything has imported
``repro.scan``.  One fresh interpreter imports each subpackage and
top-level module in turn, purging every ``repro`` module from
``sys.modules`` before each, so each import starts from nothing.

A second fresh interpreter imports the flow's entry points and runs one
flow, and must never load scipy or networkx (both optional on the flow
path, and slow to import).
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

_PROBE = """
import importlib, json, sys, traceback
failures = {}
for name in json.loads(sys.argv[1]):
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures[name] = traceback.format_exc(limit=-3)
print(json.dumps(failures))
"""


def _first_level_modules() -> list[str]:
    return sorted(f"repro.{info.name}"
                  for info in pkgutil.iter_modules(repro.__path__)
                  if info.name != "__main__")


def test_first_level_modules_are_discovered():
    names = _first_level_modules()
    assert {"repro.power", "repro.scan", "repro.atpg",
            "repro.campaign"} <= set(names)


def test_each_subpackage_imports_first():
    names = _first_level_modules() + ["repro.power.scanpower",
                                      "repro.scan.multichain"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(names)],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    failures = json.loads(done.stdout.strip().splitlines()[-1])
    assert failures == {}, "\n".join(failures.values())


_HEAVY_PROBE = """
import contextlib, importlib, io, json, sys
def heavy():
    return sorted(m for m in ("scipy", "networkx") if m in sys.modules)
for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
loaded = {"import": heavy()}
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["--seed", "1", "run", "s27"]) == 0
loaded["run s27"] = heavy()
print(json.dumps(loaded))
"""


def test_flow_loads_neither_scipy_nor_networkx():
    """The flow solves its leakage stacks without scipy and never builds
    a networkx graph, so neither may load with the CLI, the Table-I
    experiment or the campaign runner, nor while a flow runs (each
    would add hundreds of milliseconds to a cold start)."""
    names = ["repro.cli", "repro.experiments.table1",
             "repro.campaign.runner"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _HEAVY_PROBE, json.dumps(names)],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert loaded == {"import": [], "run s27": []}
