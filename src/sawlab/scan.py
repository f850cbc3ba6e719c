"""Parameter scans over height grids.

Deterministic by construction: cells are enumerated in row-major index
order, the CSV and certificate lines are streamed in that order as the
cells finish, floats use one fixed format, and neither artifact contains a
timestamp. Reruns with the same config produce byte-identical CSV and
certificate files. The manifest is different on purpose: an append-only
JSONL journal written as cells complete, which is what makes --resume work;
its line order is not part of the deterministic surface.

Every artifact is written into a fresh file (`fresh_file`): the old file at
its path is unlinked before the first cell, never truncated in place. A
reader holding the last run's file keeps reading all of it, and an
interrupted run leaves the rows it reached, not the last run's. It is also
faster: ext4 writes a file truncated and rewritten back to disk as it
closes, and freeing those blocks at the next run waits tens of
milliseconds, where a fresh file rerun soon after is unlinked before it is
ever allocated. A path that cannot be written is bad input, found before
any cell is classified.

Each record is encoded once: the worker dumps it to JSON text with sorted
keys, and the journal line and the certificate line both carry that text.
A journal line is exactly `json.dumps(entry, sort_keys=True)` of its entry
(keys budgets, index, record, row, shape, w), with the record and the
scan's budgets and shape, encoded once per scan, spliced in. Resumed
records are dumped again the same way, so a resumed row writes the same
certificate bytes as a computed one.
"""

from __future__ import annotations

import json
import os
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
            # a height too long to write as text would end the scan mid-run
            for index, cell in enumerate(cells):
                try:
                    for x in cell:
                        format_rat(x)
                except ValueError:
                    raise ConstraintViolation(f"cell {index} has a height too long to write") from None
            out = obj["output"]
            certificates = out.get("certificates")
            paths = (out["csv"], out["manifest"], "" if certificates is None else certificates)
            if not all(isinstance(p, str) for p in paths):
                raise ConstraintViolation("scan output paths must be strings")
            # two outputs on one file would interleave into it or truncate
            # each other, so they are refused before any file is opened
            named: dict[str, str] = {}
            for key in ("csv", "manifest", "certificates"):
                if out.get(key) is None:
                    continue
                real = os.path.realpath(out[key])
                if real in named:
                    raise ConstraintViolation(f"scan outputs {named[real]} and {key} name one file: {real}")
                named[real] = key
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
# the text fields of a row; index and w come from the cell
ROW_FIELDS = CSV_FIELDS[2:]


def _blank_row(verdict: str, reason: str) -> dict:
    """The row of a cell that has no classification record."""
    return {**dict.fromkeys(ROW_FIELDS, ""), "verdict": verdict, "label": verdict, "reason": reason}


def _classify_cell(args) -> tuple[int, list[str], dict, str]:
    """Worker: one cell, as the config holds it (Shape, Fractions, Budgets
    pickle as they are), to its index, heights as text, CSV row and record.
    The record is JSON text dumped once with sorted keys, "null" when there
    is none; it is journaled whether or not the scan writes certificates.
    Must stay picklable/top-level."""
    index, shape, w, budgets = args
    w_text = [format_rat(x) for x in w]
    try:
        m = StuntedSawtoothMap(shape, w)
    except ConstraintViolation as e:
        return index, w_text, _blank_row("Skipped", str(e)), "null"
    try:
        record = classify(m, budgets)
    except ConstraintViolation:
        raise
    except SawlabError as e:
        # one cell's failure is that cell's row, not the end of the scan
        return index, w_text, _blank_row("Error", f"{type(e).__name__}: {e}"), "null"
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
    return index, w_text, row, json.dumps(record.to_json(), sort_keys=True)


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


def _resume_entries(manifest: Path, config: ScanConfig) -> dict[int, tuple]:
    """Finished cells of an earlier run, by index, as `_classify_cell`
    returns them: the record is dumped again with sorted keys, so a resumed
    row writes the same certificate bytes as a computed one.

    A crash can tear the last journal line (bytes after the last newline, or
    a last line that is not JSON); that line is cut off the file and its cell
    computed again. Any other unreadable line, or an entry whose heights are
    not the config's cell at its index, or whose shape or budgets are not the
    config's, is a ConstraintViolation: the manifest belongs to another run
    or config, and its rows do not answer this one. So is an entry without
    its record, or whose row lacks a CSV field or holds one that is not
    text, and, when the config writes certificates, a classified entry
    whose record is null, which an earlier version journaled.
    """
    expected = {"shape": config.shape.to_string(), "budgets": config.budgets.to_json()}
    try:
        data = manifest.read_bytes()
    except OSError as e:
        raise ConstraintViolation(f"cannot read {manifest}: {e.strerror}") from e
    *lines, torn = data.split(b"\n")  # torn: whatever follows the last newline
    done: dict[int, tuple] = {}
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
            row = entry.get("row")
            if "record" not in entry or not (
                isinstance(row, dict) and all(isinstance(row.get(k), str) for k in ROW_FIELDS)
            ):
                raise ConstraintViolation(
                    f"{manifest} line {n + 1}: cell {index} lacks its record or a row field"
                )
            classified = row["verdict"] not in ("Skipped", "Error")
            if classified and entry["record"] is None and config.certificates_path is not None:
                raise ConstraintViolation(
                    f"{manifest} line {n + 1}: cell {index} was journaled without its record, "
                    "which the certificates need; rerun without --resume"
                )
            done[index] = index, entry["w"], row, json.dumps(entry["record"], sort_keys=True)
        kept += len(line) + 1
    if kept < len(data):
        with manifest.open("r+b") as fh:
            fh.truncate(kept)
    return done


def fresh_file(path: str | Path, parents: bool = False, **open_kw):
    """A new file at path, open for writing text, with its parent directory
    made first if `parents`. The old file (or the symlink) at path is
    unlinked, not truncated, so the old file's readers keep its bytes; a
    path that is neither a file nor absent, such as /dev/null, is opened as
    it is. A path that cannot be written is a ConstraintViolation."""
    path = Path(path)
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_file() or not path.exists():
            path.unlink(missing_ok=True)
        return path.open("w", **open_kw)
    except OSError as e:
        raise ConstraintViolation(f"cannot write {path}: {e.strerror}") from e


def run_scan(config: ScanConfig, resume: bool = False, workers: int = 0) -> ScanSummary:
    if workers < 0:
        raise ConstraintViolation(f"workers must be >= 0, got {workers}")
    manifest = Path(config.manifest_path)
    done = _resume_entries(manifest, config) if resume and manifest.exists() else {}
    want_record = config.certificates_path is not None
    todo = [
        (i, config.shape, cell, config.budgets)
        for i, cell in enumerate(config.cells)
        if i not in done
    ]
    # what every entry shares, encoded once per scan
    budgets = json.dumps(config.budgets.to_json(), sort_keys=True)
    shape = json.dumps(config.shape.to_string())
    counts: dict[str, int] = {}
    with ExitStack() as stack:
        if done:
            try:
                journal = stack.enter_context(manifest.open("a"))
            except OSError as e:
                raise ConstraintViolation(f"cannot write {manifest}: {e.strerror}") from e
        else:
            journal = stack.enter_context(fresh_file(manifest, parents=True))
        csv = stack.enter_context(fresh_file(config.csv_path, parents=True, newline=""))
        if want_record:
            certs = stack.enter_context(fresh_file(config.certificates_path, parents=True))
        if workers > 1 and todo:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_classify_cell, todo)
        else:
            results = map(_classify_cell, todo)
        csv.write(",".join(CSV_FIELDS) + "\n")
        # both sources yield in index order, so each line streams out as its
        # cell is reached
        for i in range(len(config.cells)):
            resumed = done.get(i)
            index, w, row, record = resumed or next(results)
            if not resumed:
                # the entry as json.dumps(entry, sort_keys=True) writes it
                journal.write(
                    f'{{"budgets": {budgets}, "index": {index}, "record": {record}, '
                    f'"row": {json.dumps(row, sort_keys=True)}, "shape": {shape}, '
                    f'"w": {json.dumps(w)}}}\n'
                )
                journal.flush()
            # a comma inside a field would split its column
            cells = [str(index), ";".join(w), *(row[k].replace(",", ";") for k in ROW_FIELDS)]
            csv.write(",".join(cells) + "\n")
            if want_record:
                certs.write(f'{{"index": {index}, "record": {record}}}\n')
            counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    return ScanSummary(
        cells=len(config.cells),
        computed=len(todo),
        resumed=len(done),
        verdict_counts=counts,
        csv_path=str(Path(config.csv_path)),
        manifest_path=str(manifest),
        certificates_path=config.certificates_path,
    )
