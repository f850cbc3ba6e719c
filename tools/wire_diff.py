"""Compare two wire snapshots, forgiving only the keys a change declares.

    python tools/wire_diff.py OLD NEW KEY...

OLD and NEW are directories written by tools/wire_snapshot.py. A file passes
when it is byte-identical in both, or when both copies parse as JSON (one
document) or as JSONL (one document a line) and agree once every object key
named KEY is removed at any depth. Exits 0 when every file passes, and 1
after naming each file that differs in some other way, or that only one of
the two directories holds. Uses the standard library only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _strip(value, keys: frozenset[str]):
    """value with every object key in keys removed, at any depth."""
    if isinstance(value, dict):
        return {k: _strip(v, keys) for k, v in value.items() if k not in keys}
    if isinstance(value, list):
        return [_strip(v, keys) for v in value]
    return value


def _documents(data: bytes) -> list | None:
    """The file as a list of JSON documents: the whole file as one, else
    each non-empty line as one; None when it is neither."""
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return None
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        pass
    try:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return None


def same(old: bytes, new: bytes, keys: frozenset[str]) -> bool:
    if old == new:
        return True
    a, b = _documents(old), _documents(new)
    return a is not None and b is not None and _strip(a, keys) == _strip(b, keys)


def differing(old_dir: Path, new_dir: Path, keys: frozenset[str]) -> list[str]:
    """Relative paths of the files that fail, in sorted order."""
    names = {
        p.relative_to(root).as_posix()
        for root in (old_dir, new_dir)
        for p in root.rglob("*")
        if p.is_file()
    }
    out = []
    for name in sorted(names):
        a, b = old_dir / name, new_dir / name
        if not (a.is_file() and b.is_file() and same(a.read_bytes(), b.read_bytes(), keys)):
            out.append(name)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_dir, new_dir = Path(argv[0]), Path(argv[1])
    for d in (old_dir, new_dir):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    bad = differing(old_dir, new_dir, frozenset(argv[2:]))
    for name in bad:
        print(f"differs: {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
