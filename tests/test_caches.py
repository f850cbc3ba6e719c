"""No sawlab cache grows without bound, and the type cache keeps no map's numbers.

A static pass over the source with the standard library's ast finds every
functools.cache and every functools.lru_cache with maxsize None, however
functools or the name was imported, decorators and plain calls alike. A
second pass imports each module and reads the parameters of every cached
function it defines, class attributes included. A third walks the objects
the combinatorial-type cache (markov._combinatorics) holds, after a mixed
set of classifies, and finds nothing of any one map in them.
"""

import ast
import gc
import importlib
import inspect
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import sawlab
from sawlab import Budgets, PiecewiseLinearMap, Shape, StuntedSawtoothMap, classify
from sawlab.entropy import EntropyEstimate
from sawlab.markov import Combinatorics, MarkovSystem, Recurrence, _combinatorics, build_markov_system
from sawlab.orbits import WalkCounts, WalkTable

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


def _held(roots) -> list:
    """Every object reachable from roots through gc.get_referents, without
    entering a type, module, function or code object or a module's namespace:
    the data the roots hold, not the program that reads it."""
    program = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.CodeType)
    namespaces = {id(vars(m)) for m in list(sys.modules.values()) if hasattr(m, "__dict__")}
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in namespaces or isinstance(obj, program):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_the_type_cache_holds_no_number_of_any_one_map():
    # classify a mixed set, chaotic, finite and boundary members of three
    # shapes, two of them one combinatorial type, keeping every graph alive
    # so that its objects keep their ids
    members = [
        ("+-", ["83/100"]), ("+-", ["207/250"]), ("+-", ["4/5"]), ("+-", ["9/10"]), ("+-", ["1"]),
        ("+-+", ["9/10", "1/10"]), ("+-+-", ["1/2", "0", "9/10"]), ("+-+-", ["7/10", "3/10", "1"]),
    ]
    build_markov_system.cache_clear()
    _combinatorics.cache_clear()
    graphs = []
    for word, w in members:
        m = StuntedSawtoothMap(Shape.from_string(word), [Fraction(x) for x in w])
        classify(m)
        graphs.append(build_markov_system(m.map, Budgets().partition_budget))
    entries = [r for r in gc.get_referents(_combinatorics) if isinstance(r, Combinatorics)]
    assert len(entries) == _combinatorics.cache_info().currsize == 7
    held = _held(entries)
    kinds = {type(x) for x in held}
    assert {WalkCounts, EntropyEstimate, Recurrence} <= kinds  # the walk reached every half
    assert not kinds & {Fraction, MarkovSystem, PiecewiseLinearMap, WalkTable}
    # nor any container a graph holds of its own map, a cell's branch pair
    # or the walk table's solved orbits among them; the table's shape is the
    # type's WalkCounts, shared by design
    own = []
    for sys_ in graphs:
        own += [sys_.nums, sys_.image, sys_.slopes, sys_.nonflat, sys_.branches]
        own += sys_.branches
        if "walks" in vars(sys_):
            own += _held([v for k, v in vars(sys_.walks).items() if k != "shape"])
    mine = {id(x) for x in own if isinstance(x, (tuple, list, dict, set, frozenset)) and x}
    assert not [x for x in held if id(x) in mine]
