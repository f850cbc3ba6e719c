"""Every name the benchmark wraps exists in sawlab.

bench/spans.py names each traced function by module and qualified name, and
the tracer looks them up only when a traced run installs it. The workloads
in bench/workloads.py time single classifies by rebinding a module's
`classify` with `tap(module, "name", ...)`. Both are read here with the
standard library's ast, without importing the benchmark, so a deleted or
renamed target fails this test instead of a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import sawlab.scan
from sawlab import ConstraintViolation, ScanConfig, run_scan

import oracles

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"
WORKLOADS = BENCH / "workloads.py"


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


def _taps() -> set[tuple[str, str]]:
    """(module, name) of every tap(module, "name", ...) call."""
    return {
        (ast.unparse(node.args[0]), node.args[1].value)
        for node in ast.walk(ast.parse(WORKLOADS.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tap"
    }


def test_every_tapped_name_resolves_in_sawlab():
    taps = _taps()
    assert taps == {("sawlab.scan", "classify"), ("sawlab.explore", "classify")}
    for module_name, name in taps:
        assert callable(getattr(importlib.import_module(module_name), name, None))


def test_a_scan_calls_its_classify_once_per_admissible_cell(tmp_path, monkeypatch):
    # the scan workload counts these calls against the admissible cells
    config = ScanConfig.from_json({
        "shape": "+-+",
        "grid": {"kind": "product", "axes": [[f"{k}/4" for k in range(5)]] * 2},
        "output": {"csv": str(tmp_path / "g.csv"), "manifest": str(tmp_path / "g.jsonl")},
    })
    calls = []
    classify = sawlab.scan.classify

    def counted(m, budgets):
        calls.append(m.w)
        return classify(m, budgets)

    monkeypatch.setattr(sawlab.scan, "classify", counted)
    run_scan(config)
    admissible = []
    for w in config.cells:
        try:
            oracles.validate_heights(config.shape, w)
        except ConstraintViolation:
            continue
        admissible.append(w)
    assert 0 < len(admissible) < len(config.cells)
    assert calls == admissible
