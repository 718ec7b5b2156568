"""Every third-party package the product code imports is declared.

``pip install -e .[test]`` installs only ``[project].dependencies`` (and
the test extras), so a module-level import of an undeclared package
works on a developer box that happens to have it and fails on a clean
install.  The scan is syntactic: every ``import`` / absolute ``from``
statement under ``src/repro``, wherever it sits (module level, function
body or ``TYPE_CHECKING`` block).
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages() -> dict[str, set[str]]:
    """Top-level third-party package -> files importing it."""
    found: dict[str, set[str]] = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in sys.stdlib_module_names or top == "repro":
                    continue
                found.setdefault(top, set()).add(
                    str(path.relative_to(ROOT)))
    return found


def _declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            .replace("-", "_") for spec in project["dependencies"]}


def test_every_third_party_import_is_a_declared_dependency():
    imported = _imported_packages()
    assert imported, "the scan found no third-party import at all"
    missing = {name: sorted(files)
               for name, files in imported.items()
               if name.lower() not in _declared_dependencies()}
    assert missing == {}, (
        f"imported but not in [project].dependencies: {missing}")
