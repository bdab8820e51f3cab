"""The package import graph is a DAG: each ``repro`` package imports, at
module level, only packages below it in :data:`LAYERS`.

Function-level (lazy) imports and ``__main__`` entry points are exempt:
they run after every module is loaded, so they cannot form an import
cycle.  A new package must be given its place here.
"""

import ast
import functools
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Bottom to top; ``repro`` is the package facade (``repro/__init__.py``).
LAYERS = [
    "common", "obs", "storage", "txn", "sql", "catalog", "cc", "engine",
    "optimizer", "plan", "replication", "cache", "session", "semantics",
    "shard", "fleet", "workloads", "history", "chaos", "cli", "repro",
]


def _package(path):
    """The layer a file belongs to: its top-level package or module."""
    first = path.relative_to(SRC).parts[0]
    return "repro" if first == "__init__.py" else first.removesuffix(".py")


@functools.cache
def module_level_imports():
    """``(importing file, importing package, imported package)`` triples."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__main__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    found.append((path.relative_to(SRC).as_posix(), _package(path), parts[1]))
    return found


def test_every_package_has_a_layer():
    assert {_package(path) for path in SRC.rglob("*.py")} <= set(LAYERS)


@pytest.mark.parametrize("package", LAYERS)
def test_package_imports_only_layers_below(package):
    level = LAYERS.index(package)
    upward = sorted(
        f"{where} imports repro.{target}"
        for where, source, target in module_level_imports()
        if source == package and target != package and LAYERS.index(target) > level
    )
    assert not upward, upward
