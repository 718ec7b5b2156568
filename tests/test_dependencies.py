"""Every third-party package the product code imports is declared.

``pip install -e .`` installs only ``[project].dependencies``, so a
module-level import of an undeclared package works on a developer box
that happens to have it and fails on a clean install.  The scan is
syntactic: every ``import`` / absolute ``from`` statement under
``src/repro``, wherever it sits (module level, function body or
``TYPE_CHECKING`` block).

A package may instead be declared in a user-facing extra of
``[project.optional-dependencies]`` (``scipy`` in ``calibrate``).  Then
only the code that needs it may import it, inside a function body, so
importing any ``repro`` module still works without it.  The dev-only
extras (``test``, ``lint``) do not count: a user never installs them.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

# Extras for developing the package, not for running it.
_DEV_EXTRAS = frozenset({"test", "lint"})


def _third_party_imports(tree: ast.AST, in_function: bool = False):
    """Yield ``(top-level package, inside a function body)`` per import."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            yield from _third_party_imports(
                node, in_function or isinstance(node, _FUNCTIONS))
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top != "repro":
                yield top, in_function


def _imported_packages() -> dict[str, dict[str, bool]]:
    """Top-level third-party package -> {file: imported at module level}."""
    found: dict[str, dict[str, bool]] = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for top, in_function in _third_party_imports(tree):
            files = found.setdefault(top, {})
            relative = str(path.relative_to(ROOT))
            files[relative] = files.get(relative, False) or not in_function
    return found


def _names(specs: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            .replace("-", "_") for spec in specs}


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def _core_dependencies() -> set[str]:
    return _names(_project()["dependencies"])


def _extra_dependencies() -> dict[str, set[str]]:
    return {extra: _names(specs) for extra, specs
            in _project().get("optional-dependencies", {}).items()}


def _user_extra_dependencies() -> set[str]:
    return set().union(*(names for extra, names
                         in _extra_dependencies().items()
                         if extra not in _DEV_EXTRAS))


def test_every_third_party_import_is_a_declared_dependency():
    imported = _imported_packages()
    assert imported, "the scan found no third-party import at all"
    declared = _core_dependencies() | _user_extra_dependencies()
    missing = {name: sorted(files)
               for name, files in imported.items()
               if name.lower() not in declared}
    assert missing == {}, (
        "imported but declared neither in [project].dependencies nor in "
        f"a user-facing extra: {missing}")


def test_extra_only_packages_are_imported_inside_functions():
    core = _core_dependencies()
    extra_only = _user_extra_dependencies() - core
    module_level = {}
    for name, files in _imported_packages().items():
        at_module = sorted(f for f, top in files.items() if top)
        if name.lower() in extra_only and at_module:
            module_level[name] = at_module
    assert module_level == {}, (
        "packages declared only in an extra must be imported inside the "
        f"function that needs them, not at module level: {module_level}")


def test_scipy_is_an_extra_not_a_core_dependency():
    extras = _extra_dependencies()
    assert "scipy" not in _core_dependencies()
    assert "scipy" in extras["calibrate"]
    assert "scipy" in extras["test"]
    # Dev-only extras do not license an import in product code.
    assert "hypothesis" not in _user_extra_dependencies()


def test_module_level_scan_sees_function_nesting():
    tree = ast.parse("import numpy\n"
                     "def f():\n    import scipy.optimize\n"
                     "class C:\n    def g(self):\n"
                     "        from networkx import DiGraph\n"
                     "import os\n")
    assert list(_third_party_imports(tree)) == [
        ("numpy", False), ("scipy", True), ("networkx", True)]
