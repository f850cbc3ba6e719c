"""tools/wire_diff.py forgives the declared keys and nothing else."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "wire_diff.py"


def _run(old, new, *keys):
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), *keys],
        capture_output=True,
        text=True,
        check=False,
    )


def _snapshot(root: Path, record: dict, rows: str) -> Path:
    root.mkdir()
    (root / "classify.json").write_text(json.dumps({"classification": record}, indent=2))
    (root / "certs.jsonl").write_text(
        "".join(json.dumps({"index": i, "record": record}) + "\n" for i in range(2))
    )
    (root / "grid.csv").write_text(rows)
    return root


RECORD = {"detail": {"tower_depth": 6}, "certificates": {"tower": {"depth": 6}}}
EXTRA = {
    "detail": {"tower_depth": 6, "semiconjugacy_ok": True},
    "certificates": {"tower": {"depth": 6}, "semiconjugacy": {"ok": True}},
}


def test_a_declared_key_is_the_only_difference(tmp_path):
    old = _snapshot(tmp_path / "old", EXTRA, "index,label\n0,Finite(2)\n")
    new = _snapshot(tmp_path / "new", RECORD, "index,label\n0,Finite(2)\n")
    assert _run(old, new, "semiconjugacy", "semiconjugacy_ok").returncode == 0
    # undeclared, the same keys fail both JSON files
    run = _run(old, new, "semiconjugacy")
    assert run.returncode == 1
    assert run.stdout.splitlines() == ["differs: certs.jsonl", "differs: classify.json"]


def test_an_undeclared_difference_names_its_file(tmp_path):
    old = _snapshot(tmp_path / "old", EXTRA, "index,label\n0,Finite(2)\n")
    moved = {**RECORD, "detail": {"tower_depth": 5}}
    new = _snapshot(tmp_path / "new", moved, "index,label\n0,Finite(4)\n")
    (old / "exit_codes.txt").write_text("renorm 0\n")
    run = _run(old, new, "semiconjugacy", "semiconjugacy_ok")
    assert run.returncode == 1
    assert run.stdout.splitlines() == [
        "differs: certs.jsonl",
        "differs: classify.json",
        "differs: exit_codes.txt",
        "differs: grid.csv",
    ]
