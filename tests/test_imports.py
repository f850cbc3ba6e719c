"""Every name a sawlab module imports is used in that module, and importing
the package loads no numpy.

A static pass over the source with the standard library's ast: no linter is
assumed. The package __init__ is exempt, because it imports names to export
them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sawlab

MODULES = sorted(
    p for p in Path(sawlab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(name for name in _imported(tree) if name not in used)


def test_the_pass_sees_an_unused_import():
    source = "from fractions import Fraction\nimport json\n\ndef f() -> 'Fraction':\n    pass\n"
    assert unused_imports(source) == ["json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_importing_sawlab_loads_no_numpy():
    # numpy serves the Bowen route alone, which imports it when it runs
    src = str(Path(sawlab.__file__).parent.parent)
    code = "import sys, sawlab, sawlab.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "False\n"
