"""Every member of the map and interval classes is read somewhere in sawlab.

A static pass over the source with the standard library's ast, as in
test_imports. A method, property, field or slot of PiecewiseLinearMap or Ivl
that no module of the package reads as an attribute serves only the tests,
and belongs in tests/oracles.py with the other Fraction references.
"""

import ast
from pathlib import Path

import pytest

import sawlab

PACKAGE = Path(sawlab.__file__).parent


def _members(tree: ast.Module, name: str) -> list[str]:
    """The non-dunder methods, fields and slots of class name."""
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)
    out = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            out.append(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
        elif isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__slots__"]:
            out += [e.value for e in node.value.elts]
    return [m for m in out if not m.startswith("__")]


def unread_members(class_source: str, name: str, sources: list[str]) -> list[str]:
    read = {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(m for m in _members(ast.parse(class_source), name) if m not in read)


def test_the_pass_sees_an_unread_member():
    source = (
        "class Box:\n    __slots__ = ('a', 'b')\n\n    def get(self):\n        return self.a\n\n"
        "    def put(self, x):\n        self.b = x\n\n\nprint(Box().get())\n"
    )
    assert unread_members(source, "Box", [source]) == ["b", "put"]


@pytest.mark.parametrize("name", ["PiecewiseLinearMap", "Ivl"])
def test_every_member_is_read_in_the_package(name):
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_members((PACKAGE / "plmap.py").read_text(), name, sources) == []
