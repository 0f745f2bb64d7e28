"""Every name a package module imports, or defines as private, is used in that module."""

import ast
from pathlib import Path

import pytest

import graspforce

MODULES = sorted(
    p for p in Path(graspforce.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import math\nfrom json import dumps\nmath.pi\n") == ["dumps (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(source: str) -> list[str]:
    """Module-level _-prefixed functions, classes and constants never read in the module."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [f"{name} (line {line})" for name, line in defined.items() if name not in read]


def test_detects_an_unreferenced_private_name():
    source = (
        "def _used():\n"
        "    return _LIMIT\n"
        "\n"
        "class _Dead:\n"
        "    pass\n"
        "\n"
        "_LIMIT = 3\n"
        "_SPARE = 4\n"
        "_used()\n"
    )
    assert unreferenced_private_names(source) == ["_Dead (line 4)", "_SPARE (line 8)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_names(path):
    assert unreferenced_private_names(path.read_text(encoding="utf-8")) == []
