"""sawlab writes every file fresh, through one helper.

A static pass over the source with the standard library's ast finds every
write-mode `open` (the builtin, `io.open`, or a method such as `Path.open`),
every `write_text` and every `write_bytes`, and names the function it sits
in. Only `scan.fresh_file` may write; it unlinks the old file first, so no
artifact is truncated in place under a reader of the last run. Two opens of
the scan journal are named exceptions: the append that resumes it and the
cut of a torn last line.
"""

import ast
from pathlib import Path

import pytest

import sawlab

MODULES = sorted(Path(sawlab.__file__).parent.glob("*.py"))

ALLOWED = {
    ("scan.py", "fresh_file", "w"),
    ("scan.py", "run_scan", "a"),
    ("scan.py", "_resume_entries", "r+b"),
}


def _mode(call: ast.Call) -> str | None:
    """The mode of an open call as text, None when it is not a literal. The
    builtin and io.open take it second, a method such as Path.open first."""
    func = call.func
    first = isinstance(func, ast.Name) or (
        isinstance(func.value, ast.Name) and func.value.id in ("io", "builtins")
    )
    args = call.args[1:] if first else call.args
    node = next((k.value for k in call.keywords if k.arg == "mode"), args[0] if args else None)
    if node is None:
        return "r"
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def writes(source: str) -> list[tuple[int, str, str | None]]:
    """(line, enclosing function, mode) of each call that may write a file;
    the mode is None for write_text, write_bytes and a mode that is not a
    literal."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
                found.append((node.lineno, function, None))
            elif name == "open":
                mode = _mode(node)
                if mode is None or set(mode) & set("wax+"):
                    found.append((node.lineno, function, mode))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_pass_sees_every_way_to_write_a_file():
    source = (
        "import io\n"
        "def a(p, m):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='ab')\n"
        "    io.open(p, 'x')\n"
        "    p.open('r+b')\n"
        "    p.open(mode='w')\n"
        "    p.write_text('')\n"
        "    p.write_bytes(b'')\n"
        "    open(p, m)\n"
        "def b(p):\n"
        "    open(p)\n"
        "    open(p, 'rb')\n"
        "    io.open(p)\n"
        "    p.open()\n"
        "    p.open('r')\n"
        "    p.read_text()\n"
        "x = open('log', 'a')\n"
    )
    assert writes(source) == [
        (3, "a", "w"),
        (4, "a", "ab"),
        (5, "a", "x"),
        (6, "a", "r+b"),
        (7, "a", "w"),
        (8, "a", None),
        (9, "a", None),
        (10, "a", None),
        (18, "<module>", "a"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_writes_only_through_the_fresh_file_helper(path):
    found = [(line, fn, mode) for line, fn, mode in writes(path.read_text())
             if (path.name, fn, mode) not in ALLOWED]
    assert found == []


def test_every_named_exception_still_exists():
    found = {(p.name, fn, mode) for p in MODULES for _, fn, mode in writes(p.read_text())}
    assert ALLOWED <= found
