"""Every name the benchmark tracer wraps exists in sawlab.

bench/spans.py names each traced function by module and qualified name, and
the tracer looks them up only when a traced run installs it. The table is
read here with the standard library's ast, without importing the benchmark,
so a deleted or renamed target fails this test instead of a traced run.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets() -> dict[str, tuple[str, str]]:
    """Metric prefix -> (module, qualified name), from the TARGETS literal."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {
                key.value: (value.elts[0].value, value.elts[1].value)
                for key, value in zip(node.value.keys, node.value.values)
            }
    raise AssertionError(f"no TARGETS table in {SPANS}")


def test_every_traced_target_resolves_in_sawlab():
    targets = _targets()
    assert targets
    for prefix, (module_name, qualname) in targets.items():
        module = importlib.import_module(module_name)
        if "." in qualname:
            # methods are wrapped through the class __dict__, as the tracer does
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(module, cls_name)), prefix
        else:
            assert callable(getattr(module, qualname, None)), prefix
