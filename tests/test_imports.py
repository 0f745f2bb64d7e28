"""Every name a package module imports, or defines as private, is used in that module.

Every public function or class a package module defines is read somewhere in
the package or in perfbench. The control stack (sensor, controller, plant)
imports nothing from the package but checks. A dataclass that checks its
fields is frozen, so that nothing can change them after the check.
"""

import ast
from pathlib import Path

import pytest

import graspforce

PACKAGE = sorted(Path(graspforce.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def read_names(source: str) -> set[str]:
    """Loaded names, attribute names, imported names and identifier strings in a source.

    Strings count because perfbench wraps functions by attribute name.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def unread_public_names(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Public module-level functions and classes in sources that no source or reader reads.

    Module constants are left out.
    """
    read = set().union(*map(read_names, [*sources.values(), *readers]))
    return [
        f"{module}.{node.name} (line {node.lineno})"
        for module, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def test_detects_an_unread_public_name():
    sources = {
        "a": "def used():\n    return 1\n\ndef wrapped():\n    pass\n\nclass Dead:\n    pass\n",
        "b": "from .a import used\n\ndef dead_too():\n    return used()\n",
    }
    readers = ['setattr(a, "wrapped", None)\n']
    assert unread_public_names(sources, readers) == ["a.Dead (line 7)", "b.dead_too (line 3)"]


def test_no_unread_public_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert unread_public_names(sources, readers) == []


def package_imports(source: str) -> set[str]:
    """The graspforce modules a source imports, relatively or by absolute name."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["graspforce" if node.level else "", node.module]))
            dotted = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        modules.update(d.split(".")[1] for d in dotted if d.startswith("graspforce."))
    return modules


def test_detects_a_package_import():
    source = (
        "import math\n"
        "import graspforce.sensor\n"
        "from graspforce import plant\n"
        "from graspforce.harness import run_trial\n"
        "from . import scenarios\n"
        "from .checks import check_fields\n"
    )
    assert package_imports(source) == {"sensor", "plant", "harness", "scenarios", "checks"}


@pytest.mark.parametrize("name", ["sensor", "controller", "plant"])
def test_control_stack_imports_only_checks(name):
    path = Path(graspforce.__file__).parent / f"{name}.py"
    assert package_imports(path.read_text(encoding="utf-8")) <= {"checks"}


def unfrozen_checked_dataclasses(source: str) -> list[str]:
    """Dataclasses whose __post_init__ calls check_fields but that are not frozen."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorator = next((
            d for d in node.decorator_list
            if ast.unparse(d.func if isinstance(d, ast.Call) else d).endswith("dataclass")
        ), None)
        post_init = next((f for f in node.body
                          if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"), None)
        if decorator is None or post_init is None:
            continue
        checks = any(isinstance(n, ast.Call) and ast.unparse(n.func) == "check_fields"
                     for n in ast.walk(post_init))
        frozen = isinstance(decorator, ast.Call) and any(
            k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in decorator.keywords
        )
        if checks and not frozen:
            found.append(node.name)
    return found


def test_detects_an_unfrozen_checked_dataclass():
    source = (
        "@dataclass(frozen=True)\n"
        "class Kept:\n"
        "    def __post_init__(self):\n"
        "        check_fields(self)\n"
        "\n"
        "@dataclass\n"
        "class Bare:\n"
        "    def __post_init__(self):\n"
        "        check_fields(self)\n"
        "\n"
        "@dataclasses.dataclass(frozen=False, slots=True)\n"
        "class Thawed:\n"
        "    def __post_init__(self):\n"
        "        if True:\n"
        "            check_fields(self)\n"
        "\n"
        "@dataclass\n"
        "class Unchecked:\n"
        "    def __post_init__(self):\n"
        "        self.x = 1\n"
    )
    assert unfrozen_checked_dataclasses(source) == ["Bare", "Thawed"]


def test_checked_dataclasses_are_frozen():
    found = {name for path in PACKAGE
             for name in unfrozen_checked_dataclasses(path.read_text(encoding="utf-8"))}
    assert found == set()
