"""No sawlab cache grows without bound.

A static pass over the source with the standard library's ast finds every
functools.cache and every functools.lru_cache with maxsize None, however
functools or the name was imported, decorators and plain calls alike. A
second pass imports each module and reads the parameters of every cached
function it defines, class attributes included.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import sawlab

MODULES = sorted(Path(sawlab.__file__).parent.glob("*.py"))


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def unbounded_caches(source: str) -> list[int]:
    """Lines that make a cache with no size bound."""
    tree = ast.parse(source)
    modules, names = set(), {}  # names bound to functools, and to its members
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name: a.name for a in node.names}

    def member(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if node.value.id in modules else None
        return None

    lines = set()
    for node in ast.walk(tree):
        if member(node) == "cache":
            lines.add(node.lineno)
        elif isinstance(node, ast.Call) and member(node.func) == "lru_cache":
            size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            if any(_is_none(v) for v in size):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_pass_sees_every_spelling_of_an_unbounded_cache():
    source = (
        "import functools\n"
        "import functools as ft\n"
        "from functools import cache, lru_cache as memo\n"
        "@functools.lru_cache(maxsize=None)\ndef a(x): pass\n"
        "@ft.cache\ndef b(x): pass\n"
        "@cache\ndef c(x): pass\n"
        "d = memo(None)(len)\n"
        "@memo(maxsize=8)\ndef e(x): pass\n"
        "@functools.lru_cache\ndef f(x): pass\n"
        "@functools.cached_property\ndef g(self): pass\n"
    )
    assert unbounded_caches(source) == [4, 6, 8, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_makes_no_unbounded_cache(path):
    assert unbounded_caches(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cached_function_of_a_module_has_a_size_bound(path):
    module = importlib.import_module(f"sawlab.{path.stem}".removesuffix(".__init__"))
    objects = list(vars(module).values())
    objects += [v for c in objects if inspect.isclass(c) for v in vars(c).values()]
    for obj in objects:
        if hasattr(obj, "cache_parameters"):
            assert obj.cache_parameters()["maxsize"] is not None, obj
