"""Every name a module imports is used in it.

A stale import survives refactors silently (the project has no linter), so each
`src/lslkit/*.py` is parsed with `ast` and its imported names are checked
against the names its code reads. `__init__.py` is skipped: its imports
are the package's re-exports, and `lslkit.__all__` must list exactly those.
"""

import ast
from pathlib import Path

import pytest

import lslkit

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lslkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
