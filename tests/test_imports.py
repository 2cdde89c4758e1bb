"""Every name a module imports is used in it, every package it imports is
declared, and every public name it defines is read by the package.

A stale import survives refactors silently (the project has no linter),
so each `src/lslkit/*.py` is parsed with `ast` and its imported names are
checked against the names its code reads. `__init__.py` re-exports
nothing: it holds the package docstring and `__version__`, every caller
imports a name from the module that defines it, and an import added there
reads as unused. Every third-party top-level package imported anywhere in
`src/lslkit` must be listed in `[project].dependencies` of
`pyproject.toml`.

`src/` holds what the command line runs: each public function and class
defined in a module must be read, as a name or an attribute, somewhere
in the package, and each public method, property and dataclass or
NamedTuple field as an attribute: a local variable or a keyword argument
of the same name does not read it. Oracles that only tests need live in
`tests/reference.py`.

Input is refused at the boundaries (config validation, the artifact
loaders, `pipeline`'s gate) and nowhere behind them, so `rom` and
`lippmann` read no `errors.ConfigurationError`, the exit-2 class: they
can only fail numerically. The ROM works on plain arrays, so `rom`
imports nothing from `core`.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

from lslkit.errors import ConfigurationError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lslkit"
MODULES = sorted(PACKAGE.glob("*.py"))
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"

#: public names no code in the package reads, each kept for a reason
UNREAD_ALLOWED = {
    "bundled_config_path": "README's entry point to the shipped configs",
    **dict.fromkeys(
        ("RegularizationRecord.applied", "RegularizationRecord.eps0",
         "Regularized.regularization"),
        "perfbench's tracer reads .regularization.applied; ROADMAP item 3 will report them",
    ),
}


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


def third_party_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    tops = {name.split(".")[0] for name in names}
    return tops - set(sys.stdlib_module_names) - {"__future__"}


def _is_record(node: ast.ClassDef) -> bool:
    """A `@dataclass` or a `NamedTuple`: its annotated names are fields."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    names = {n.id for n in decorators + node.bases if isinstance(n, ast.Name)}
    return bool(names & {"dataclass", "NamedTuple"})


def public_definitions(source: str) -> list[str]:
    """Public top-level functions and classes, and the public methods,
    properties and fields of public classes, as `name` or `Class.name`."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        found.append(node.name)
        if isinstance(node, ast.ClassDef):
            members = [item.name for item in node.body if isinstance(item, kinds)]
            if _is_record(node):
                members += [item.target.id for item in node.body
                            if isinstance(item, ast.AnnAssign)]
            found += [f"{node.name}.{name}" for name in members if not name.startswith("_")]
    return found


def read_names(source: str) -> tuple[set[str], set[str]]:
    """The names read as an `ast.Name`, and those read as the attribute of
    an `ast.Attribute`."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)},
            {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unread_definitions(sources: list[str]) -> list[str]:
    """Public definitions no source reads: a top-level name counts as read
    as a name or an attribute, a `Class.member` only as an attribute."""
    names, attributes = (set().union(*kind) for kind in zip(*map(read_names, sources)))
    return [name for source in sources for name in public_definitions(source)
            if name.rsplit(".", 1)[-1] not in attributes
            and ("." in name or name not in names)]


def test_detects_an_unread_definition():
    source = (
        "class Box:\n"
        "    def used(self): return self.size\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def spare(self): pass\n"
        "    def shadowed(self): pass\n"
        "    def _private(self): pass\n"
        "def make(): return Box().used()\n"
        "def orphan(): pass\n"
        "def _helper(): pass\n"
        "@dataclass(frozen=True)\n"
        "class Row:\n"
        "    key: str\n"
        "    stale: int\n"
        "    _cache: int\n"
        "class Pair(NamedTuple):\n"
        "    left: int\n"
        "    right: int\n"
        "class Plain:\n"
        "    label: str\n"
    )
    # a local variable named like a member, or a keyword argument named
    # like a field, does not read it; a plain class's annotation is no field
    caller = (
        "from .box import make\nshadowed = make()\nprint(shadowed)\n"
        "row = Row(key='a', stale=1)\nprint(row.key, Pair(1, right=2).left, Plain)\n"
    )
    assert unread_definitions([source, caller]) == [
        "Box.spare", "Box.shadowed", "orphan", "Row.stale", "Pair.right"
    ]


def test_every_public_definition_is_read():
    unread = unread_definitions([path.read_text(encoding="utf-8") for path in MODULES])
    assert sorted(unread) == sorted(UNREAD_ALLOWED)


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
                             for p in MODULES))
    assert imported <= declared, f"undeclared: {sorted(imported - declared)}"


def input_errors_read(source: str) -> set[str]:
    """The exit-2 error class, if a module imports it or reads it as an attribute."""
    tree = ast.parse(source)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return (imported | read_names(source)[1]) & {ConfigurationError.__name__}


def test_detects_an_input_error():
    for source in ("from .errors import ConfigurationError\n",
                   "from . import errors\nerrors.ConfigurationError\n"):
        assert input_errors_read(source) == {"ConfigurationError"}
    assert input_errors_read("from .errors import DegenerateDataError, LslError\n") == set()


@pytest.mark.parametrize("name", ["rom.py", "lippmann.py"])
def test_numerical_layers_refuse_no_input(name):
    assert input_errors_read((PACKAGE / name).read_text(encoding="utf-8")) == set()


def names_imported_from(source: str, module: str) -> set[str]:
    """The names a module imports from the package's `module`, and `module`
    itself where the whole module is imported."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"lslkit.{module}"):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names
                      if alias.name in (module, f"lslkit.{module}")}
    return names


def test_detects_a_name_imported_from_core():
    source = ("from .core import Grid2D\nfrom . import core, errors\n"
              "import lslkit.core\nfrom .errors import LslError\n")
    assert names_imported_from(source, "core") == {"Grid2D", "core", "lslkit.core"}


def test_rom_imports_nothing_from_core():
    # the ROM reads a record's (K, K, T) values, never the record
    assert names_imported_from((PACKAGE / "rom.py").read_text(encoding="utf-8"), "core") == set()
