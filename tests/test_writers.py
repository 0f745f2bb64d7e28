"""The package has one CSV writer and one directory maker.

Only harness._write_table opens a file for writing, and only
harness.make_out_dir makes a directory.
"""

import ast
from pathlib import Path

import graspforce

PACKAGE = Path(graspforce.__file__).parent
_WRITE_MODES = set("wax+")


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call writes a file; an open whose mode is not a literal counts as writing."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(file, mode) takes the mode second; a method such as Path.open(mode) first.
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(
        not (isinstance(m, ast.Constant) and isinstance(m.value, str))
        or _WRITE_MODES & set(m.value)
        for m in modes
    )


def _makes_directory(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in ("mkdir", "makedirs")


def callers(source: str, module: str, matches=_opens_for_writing) -> list[str]:
    """module.function for each function (or the module itself) making a matching call.

    By default the matching calls are those that open a file to write.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_one_csv_writer():
    writers = [
        writer
        for path in sorted(PACKAGE.glob("*.py"))
        for writer in callers(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert writers == ["harness._write_table"]


def test_one_directory_maker():
    makers = [
        maker
        for path in sorted(PACKAGE.glob("*.py"))
        for maker in callers(path.read_text(encoding="utf-8"), path.stem, _makes_directory)
    ]
    assert makers == ["harness.make_out_dir"]


def test_detects_a_second_directory_maker():
    source = "import os\ndef save(out):\n    os.makedirs(out)\nPath('x').mkdir()\n"
    assert callers(source, "m", _makes_directory) == ["m.save", "m"]


def test_detects_a_second_writer():
    source = (PACKAGE / "harness.py").read_text(encoding="utf-8")
    second = (
        "\n\ndef write_json(path, text):\n"
        "    with open(path, mode='w', encoding='utf-8') as fh:\n"
        "        fh.write(text)\n"
    )
    assert callers(source + second, "harness") == [
        "harness._write_table", "harness.write_json"
    ]


def test_modes_and_methods():
    source = (
        "open(p)\n"
        "open(p, 'rb')\n"
        "Path(p).read_text()\n"
        "def append():\n    open(p, 'a')\n"
        "def update():\n    open(p, 'r+')\n"
        "def chosen(mode):\n    open(p, mode)\n"
        "class Log:\n    def save(self):\n        self.path.open('wb')\n"
        "def text():\n    Path(p).write_text('x')\n"
    )
    assert callers(source, "m") == [
        "m.append", "m.update", "m.chosen", "m.Log.save", "m.text"
    ]
