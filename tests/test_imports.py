"""Every name a module imports is used in it, and every package it imports is declared.

A stale import survives refactors silently (the project has no linter), so each
`src/lslkit/*.py` is parsed with `ast` and its imported names are checked
against the names its code reads. `__init__.py` is skipped: its imports
are the package's re-exports, and `lslkit.__all__` must list exactly those.
Every third-party top-level package imported anywhere in `src/lslkit` must
be listed in `[project].dependencies` of `pyproject.toml`.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import lslkit

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lslkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def imported_names(source: str) -> list[str]:
    tree = ast.parse(source)
    return [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def third_party_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    tops = {name.split(".")[0] for name in names}
    return tops - set(sys.stdlib_module_names) - {"__future__"}


def test_exports_are_the_package_imports():
    names = imported_names((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(lslkit.__all__) == sorted(names + ["__version__"])
    assert len(set(lslkit.__all__)) == len(lslkit.__all__)


def test_detects_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .core import Grid2D, Potential\nnp.ones(Grid2D)\n"
    assert unused_imports(source) == ["os (line 1)", "Potential (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_a_third_party_import():
    source = "import os.path\nimport scipy.linalg\nfrom numpy import fft\nfrom .core import Grid2D\n"
    assert third_party_imports(source) == {"numpy", "scipy"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_imports_are_declared_dependencies():
    import tomllib

    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8"))
                             for p in PACKAGE.glob("*.py")))
    assert imported <= declared, f"undeclared: {sorted(imported - declared)}"
