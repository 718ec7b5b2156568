"""Tooling guard: engine knobs read the environment in one place.

Every runtime knob resolves through the table in ``repro/runtime.py``;
a module reading ``os.environ``/``os.getenv`` itself would bring back a
private precedence and error type.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Modules that may read the environment, relative to ``src/repro``.
ALLOWED = {
    # The runtime-knob table and its one resolver.
    "runtime.py",
    # $REPRO_ISCAS89_DIR: where real netlist files live — a data path,
    # not an engine knob.
    "benchgen/loader.py",
    # $REPRO_FULL_TABLE1: changes the circuit set, and so the results —
    # not a runtime-only knob.
    "experiments/table1.py",
}


def _env_reads(path: Path) -> list[int]:
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) \
                and node.attr in ("environ", "getenv") \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(alias.name in ("environ", "getenv")
                        for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_environment_read_only_where_allowed():
    reads = {path.relative_to(SRC).as_posix(): _env_reads(path)
             for path in sorted(SRC.rglob("*.py"))}
    offenders = [f"{module}:{line}" for module, lines in reads.items()
                 if module not in ALLOWED for line in lines]
    assert not offenders, (
        "read runtime knobs through repro.runtime, not os.environ: "
        + ", ".join(offenders))
    stale = sorted(module for module in ALLOWED if not reads.get(module))
    assert not stale, f"allow-listed modules no longer read the env: {stale}"


#: Environment variables of retired engine knobs: no module may name
#: them, so setting one changes nothing.
RETIRED = ("REPRO_SIM_BACKEND", "REPRO_FAULT_BACKEND", "REPRO_SIM_SHARDS",
           "REPRO_ARRAY_NAMESPACE", "REPRO_EPISODE_BATCH",
           "REPRO_FAULT_PLAN", "REPRO_STREAM_BUDGET")


def test_retired_engine_variables_are_not_read():
    from repro.runtime import KNOBS

    named = [f"{path.relative_to(SRC).as_posix()}: {variable}"
             for path in sorted(SRC.rglob("*.py"))
             for variable in RETIRED if variable in path.read_text()]
    assert not named, f"retired variables named in the source: {named}"
    assert not {knob.env for knob in KNOBS.values()} & set(RETIRED)
