"""Parameter scans over height grids.

Deterministic by construction: cells are enumerated in row-major index
order, the CSV and certificate files are regenerated in index order after
all cells finish, floats use one fixed format, and neither artifact contains
a timestamp. Reruns with the same config produce byte-identical CSV and
certificate files. The manifest is different on purpose: an append-only
JSONL journal written as cells complete, which is what makes --resume work;
its line order is not part of the deterministic surface.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConstraintViolation, SawlabError
from .explore import Budgets, classify
from .family import Shape, StuntedSawtoothMap
from .rational import Rat, Wire, format_rat, parse_rat

FLOAT_FMT = "{:.12g}"


@dataclass(frozen=True)
class ScanConfig:
    shape: Shape
    cells: tuple[tuple[Rat, ...], ...]
    budgets: Budgets
    csv_path: str
    manifest_path: str
    certificates_path: str | None

    @staticmethod
    def from_json(obj: dict) -> "ScanConfig":
        try:
            shape = Shape.from_string(obj["shape"])
            grid = obj["grid"]
            kind = grid["kind"]
            if kind == "line":
                start = [parse_rat(x) for x in _rat_list(grid["start"], "start")]
                stop = [parse_rat(x) for x in _rat_list(grid["stop"], "stop")]
                steps = grid["steps"]
                if type(steps) is not int:
                    raise ConstraintViolation(f"steps must be an integer, got {steps!r}")
                if len(start) != shape.d or len(stop) != shape.d:
                    raise ConstraintViolation("grid endpoints must match the shape arity")
                if steps < 1:
                    raise ConstraintViolation("steps must be positive")
                cells = []
                for i in range(steps):
                    t = Fraction(i, steps - 1) if steps > 1 else Fraction(0)
                    cells.append(
                        tuple(a + (b - a) * t for a, b in zip(start, stop))
                    )
            elif kind == "product":
                axes = [[parse_rat(x) for x in _rat_list(axis, "axis")]
                        for axis in _rat_list(grid["axes"], "axes")]
                if len(axes) != shape.d:
                    raise ConstraintViolation("need one axis per turning point")
                cells = [()]
                for axis in axes:
                    cells = [c + (v,) for c in cells for v in axis]
            else:
                raise ConstraintViolation(f"unknown grid kind {kind!r}")
            out = obj["output"]
            certificates = out.get("certificates")
            paths = (out["csv"], out["manifest"], "" if certificates is None else certificates)
            if not all(isinstance(p, str) for p in paths):
                raise ConstraintViolation("scan output paths must be strings")
            return ScanConfig(
                shape=shape,
                cells=tuple(tuple(c) for c in cells),
                budgets=Budgets.from_json(obj.get("budgets", {})),
                csv_path=out["csv"],
                manifest_path=out["manifest"],
                certificates_path=certificates,
            )
        except KeyError as e:
            raise ConstraintViolation(f"scan config missing key {e}") from e
        except (TypeError, ValueError, AttributeError) as e:
            # a list where an object belongs, a number where a list belongs
            raise ConstraintViolation(f"malformed scan config: {e}") from e


def _rat_list(value, name: str) -> list:
    """A grid entry that must be a JSON list: a string or an object would
    iterate as its characters or keys."""
    if not isinstance(value, list):
        raise ConstraintViolation(f"grid {name} must be a list, got {value!r}")
    return value


CSV_FIELDS = (
    "index",
    "w",
    "verdict",
    "label",
    "entropy",
    "max_period",
    "tower_depth",
    "homoclinic",
    "reason",
)


def _blank_row(verdict: str, reason: str) -> dict:
    """The row of a cell that has no classification record."""
    return {
        "verdict": verdict,
        "label": verdict,
        "entropy": "",
        "max_period": "",
        "tower_depth": "",
        "homoclinic": "",
        "reason": reason,
    }


def _classify_cell(args) -> dict:
    """Worker: one cell to a manifest entry. Must stay picklable/top-level."""
    index, shape_word, w_strs, budgets_json, want_record = args
    shape = Shape.from_string(shape_word)
    w = tuple(parse_rat(x) for x in w_strs)
    entry: dict = {
        "index": index,
        "w": [format_rat(x) for x in w],
        "shape": shape_word,
        "budgets": budgets_json,
    }
    try:
        m = StuntedSawtoothMap(shape, w)
    except ConstraintViolation as e:
        entry["row"] = _blank_row("Skipped", str(e))
        entry["record"] = None
        return entry
    try:
        record = classify(m, Budgets.from_json(budgets_json))
    except ConstraintViolation:
        raise
    except SawlabError as e:
        # one cell's failure is that cell's row, not the end of the scan
        entry["row"] = _blank_row("Error", f"{type(e).__name__}: {e}")
        entry["record"] = None
        return entry
    detail = record.detail
    row = {
        "verdict": record.verdict,
        "label": record.label,
        "entropy": FLOAT_FMT.format(record.entropy.value) if record.entropy else "",
        "max_period": str(detail.get("max_period", "")),
        "tower_depth": str(detail.get("tower_depth", "")),
        "homoclinic": {True: "yes", False: "no"}.get(detail.get("homoclinic_found"), ""),
        "reason": "; ".join(record.notes),
    }
    entry["row"] = row
    entry["record"] = record.to_json() if want_record else None
    return entry


@dataclass(frozen=True)
class ScanSummary(Wire):
    cells: int
    computed: int
    resumed: int
    verdict_counts: dict
    csv_path: str
    manifest_path: str
    certificates_path: str | None

    def to_json(self) -> dict:
        """The paths go on the wire without their attribute suffix."""
        out = super().to_json()
        for key in ("csv", "manifest", "certificates"):
            out[key] = out.pop(f"{key}_path")
        return out


def _resume_entries(manifest: Path, config: ScanConfig) -> dict[int, dict]:
    """Finished cells of an earlier run, by index.

    A crash can tear the last journal line (bytes after the last newline, or
    a last line that is not JSON); that line is cut off the file and its cell
    computed again. Any other unreadable line, or an entry whose heights are
    not the config's cell at its index, or whose shape or budgets are not the
    config's, is a ConstraintViolation: the manifest belongs to another run
    or config, and its rows do not answer this one.
    """
    expected = {"shape": config.shape.to_string(), "budgets": config.budgets.to_json()}
    data = manifest.read_bytes()
    *lines, torn = data.split(b"\n")  # torn: whatever follows the last newline
    done: dict[int, dict] = {}
    kept = 0  # bytes of the lines read
    for n, line in enumerate(lines):
        if line.strip():
            try:
                entry = json.loads(line)
            except ValueError as e:
                if n == len(lines) - 1 and not torn:
                    break
                raise ConstraintViolation(f"{manifest} line {n + 1} is not JSON") from e
            index = entry.get("index") if isinstance(entry, dict) else None
            if not isinstance(index, int) or not 0 <= index < len(config.cells):
                raise ConstraintViolation(f"{manifest} line {n + 1}: no cell {index!r} in the config")
            want = {"w": [format_rat(x) for x in config.cells[index]], **expected}
            for key, value in want.items():
                if entry.get(key) != value:
                    raise ConstraintViolation(
                        f"{manifest} line {n + 1}: cell {index} has {key} "
                        f"{entry.get(key)!r}, the config has {value!r}"
                    )
            done[index] = entry
        kept += len(line) + 1
    if kept < len(data):
        with manifest.open("r+b") as fh:
            fh.truncate(kept)
    return done


def run_scan(config: ScanConfig, resume: bool = False, workers: int = 0) -> ScanSummary:
    if workers < 0:
        raise ConstraintViolation(f"workers must be >= 0, got {workers}")
    done: dict[int, dict] = {}
    manifest = Path(config.manifest_path)
    if resume and manifest.exists():
        done = _resume_entries(manifest, config)
    elif manifest.exists():
        manifest.unlink()

    want_record = config.certificates_path is not None
    todo = [
        (
            i,
            config.shape.to_string(),
            [format_rat(x) for x in cell],
            config.budgets.to_json(),
            want_record,
        )
        for i, cell in enumerate(config.cells)
        if i not in done
    ]
    manifest.parent.mkdir(parents=True, exist_ok=True)
    computed = 0
    with manifest.open("a") as journal, ExitStack() as stack:
        if workers and workers > 1 and todo:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            entries = pool.map(_classify_cell, todo)
        else:
            entries = map(_classify_cell, todo)
        for entry in entries:
            done[entry["index"]] = entry
            journal.write(json.dumps(entry, sort_keys=True) + "\n")
            journal.flush()
            computed += 1

    ordered = [done[i] for i in range(len(config.cells))]
    csv_path = Path(config.csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with csv_path.open("w", newline="") as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for entry in ordered:
            row = entry["row"]
            cells = [
                str(entry["index"]),
                ";".join(entry["w"]),
                row["verdict"],
                row["label"],
                row["entropy"],
                row["max_period"],
                row["tower_depth"],
                row["homoclinic"],
                row["reason"].replace(",", ";"),
            ]
            fh.write(",".join(cells) + "\n")

    if config.certificates_path is not None:
        cert_path = Path(config.certificates_path)
        cert_path.parent.mkdir(parents=True, exist_ok=True)
        with cert_path.open("w") as fh:
            for entry in ordered:
                fh.write(
                    json.dumps(
                        {"index": entry["index"], "record": entry["record"]},
                        sort_keys=True,
                    )
                    + "\n"
                )

    counts: dict[str, int] = {}
    for entry in ordered:
        v = entry["row"]["verdict"]
        counts[v] = counts.get(v, 0) + 1
    return ScanSummary(
        cells=len(config.cells),
        computed=computed,
        resumed=len(config.cells) - computed,
        verdict_counts=counts,
        csv_path=str(csv_path),
        manifest_path=str(manifest),
        certificates_path=config.certificates_path,
    )
