"""Command line interface.

Every subcommand reads a family from --shape/--w or --family, runs one
operation, and writes a JSON report to stdout (or --out). Exit codes: 0 on
success, 2 for bad input or a failed precondition, 3 when a budget ran out
or the classifier returned Inconclusive, 1 for internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .entropy import entropy
from .errors import (
    BudgetExceeded,
    ConstraintViolation,
    DomainError,
    KneadingNotRealizable,
    SawlabError,
)
from .explore import (
    Budgets,
    bisect_boundary,
    classify,
    refine_to_boundary,
    two_sided_perturbation_experiment,
)
from .family import Shape, StuntedSawtoothMap, build_sawtooth
from .kneading import KneadingData, compare_kneading, kneading_data, realize_kneading
from .orbits import period_set, periodic_points
from .rational import parse_rat
from .renorm import build_tower, gap_fixed_point, semiconjugacy_check
from .scan import ScanConfig, run_scan


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", help="lap direction word, e.g. +- or +-+")
    p.add_argument("--w", help="comma-separated heights, e.g. 3/5 or 7/10,3/10")
    p.add_argument("--family", help="path to a family JSON file with shape and w")


def _read_json(path: str):
    """Parse a JSON input file; an unreadable or malformed file is bad input."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConstraintViolation(f"cannot read {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ConstraintViolation(f"{path} is not JSON: {e}") from e


def _family(args) -> StuntedSawtoothMap:
    if args.family:
        return StuntedSawtoothMap.from_json(_read_json(args.family))
    if not args.shape or args.w is None:
        raise ConstraintViolation("provide --shape and --w, or --family")
    shape = Shape.from_string(args.shape)
    w = [parse_rat(tok) for tok in args.w.split(",")]
    return StuntedSawtoothMap(shape, w)


def _budgets(args) -> Budgets:
    obj = {}
    if getattr(args, "budgets", None):
        obj = _read_json(args.budgets)
    b = Budgets.from_json(obj)
    if getattr(args, "k", None) is not None:
        b = Budgets.from_json({**b.to_json(), "k": args.k})
    return b


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_describe(args) -> int:
    m = _family(args)
    saw = build_sawtooth(m.shape)
    payload = {
        "family": m.to_json(),
        "plateaus": [p.to_json() for p in m.plateaus],
        "lap_count": m.map.lap_count(),
        "sawtooth": saw.to_json(),
    }
    _emit(payload, args)
    return 0


def _cmd_orbits(args) -> int:
    m = _family(args)
    if args.period is not None:
        orbits = periodic_points(m.map, args.period, args.piece_budget)
        _emit({"period": args.period, "orbits": [o.to_json() for o in orbits]}, args)
        return 0
    if args.start is not None:
        rec = m.map.orbit_eventually_periodic(parse_rat(args.start), args.max_steps)
        _emit({"orbit": rec.to_json()}, args)
        return 0
    report = period_set(
        m.map, args.n_max, piece_budget=args.piece_budget
    )
    _emit({"period_set": report.to_json()}, args)
    return 0 if report.complete else 3


def _cmd_entropy(args) -> int:
    m = _family(args)
    kw = {}
    if args.method == "lap":
        kw["n_max"] = args.n_max
    est = entropy(m.map, method=args.method, **kw)
    _emit({"entropy": est.to_json()}, args)
    return 0


def _kneading_target(obj) -> KneadingData:
    """A --realize file: d rows of depth sign vectors, each d signs in -1, 0, 1."""
    if not isinstance(obj, dict):
        raise ConstraintViolation("kneading JSON must be an object")
    try:
        shape, depth, signs = Shape.from_string(obj["shape"]), obj["depth"], obj["signs"]
    except KeyError as e:
        raise ConstraintViolation(f"kneading JSON missing key {e}") from e
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
        raise ConstraintViolation(f"kneading depth must be a positive integer, got {depth!r}")

    def is_list(x, n):
        return isinstance(x, list) and len(x) == n

    d = shape.d
    if not (
        is_list(signs, d)
        and all(is_list(row, depth) for row in signs)
        and all(is_list(v, d) for row in signs for v in row)
        and all(s in (-1, 0, 1) and type(s) is int for row in signs for v in row for s in v)
    ):
        raise ConstraintViolation(
            f"kneading signs must be {d} rows of {depth} vectors of {d} signs in -1, 0, 1"
        )
    return KneadingData(shape, depth, tuple(tuple(tuple(v) for v in row) for row in signs))


def _cmd_kneading(args) -> int:
    if args.realize:
        target = _kneading_target(_read_json(args.realize))
        m = StuntedSawtoothMap(target.shape, realize_kneading(target))
        _emit(
            {
                "family": m.to_json(),
                "kneading": kneading_data(m, target.depth).to_json(),
            },
            args,
        )
        return 0
    m = _family(args)
    data = kneading_data(m, args.depth)
    payload = {"kneading": data.to_json()}
    if args.sequence is not None:
        payload["sequence"] = data.sequence(args.sequence).to_json()
    if args.compare:
        other = StuntedSawtoothMap.from_json(_read_json(args.compare))
        other_data = kneading_data(other, args.depth)
        cmp_result = compare_kneading(data, other_data)
        payload["compare"] = {"other": other.to_json()["w"], "order": cmp_result}
    _emit(payload, args)
    return 0


def _cmd_renorm(args) -> int:
    m = _family(args)
    tower = build_tower(m, max_depth=args.depth)
    payload = {
        "tower": tower.to_json(),
        "gap_fixed_point": gap_fixed_point(m).to_json(),
    }
    if tower.depth >= 1:
        payload["semiconjugacy"] = semiconjugacy_check(m, tower.depth).to_json()
    _emit(payload, args)
    return 0


def _cmd_classify(args) -> int:
    m = _family(args)
    record = classify(m, _budgets(args))
    _emit({"classification": record.to_json()}, args)
    return 3 if record.verdict == "Inconclusive" else 0


def _cmd_bisect(args) -> int:
    shape = Shape.from_string(args.shape)
    lo = [parse_rat(t) for t in args.lo.split(",")]
    hi = [parse_rat(t) for t in args.hi.split(",")]
    b = _budgets(args)
    bracket = bisect_boundary(shape, lo, hi, parse_rat(args.width), b)
    if args.refine_level is not None:
        refined = refine_to_boundary(bracket, b, target_level=args.refine_level)
        _emit({"refined": refined.to_json()}, args)
        return 0
    _emit({"bracket": bracket.to_json()}, args)
    return 0


def _cmd_theorem1(args) -> int:
    m = _family(args)
    eps_values = [parse_rat(t) for t in args.eps.split(",")]
    report = two_sided_perturbation_experiment(m, eps_values, _budgets(args))
    _emit({"experiment": report.to_json()}, args)
    return 0 if report.ok else 3


def _cmd_scan(args) -> int:
    config = ScanConfig.from_json(_read_json(args.config))
    summary = run_scan(config, resume=args.resume, workers=args.workers)
    _emit({"scan": summary.to_json()}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sawlab",
        description="Exact dynamics of stunted sawtooth maps on [0, 1].",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="family data, plateaus, lap count")
    _add_family_args(p)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_describe)

    p = sub.add_parser("orbits", help="orbit records and periodic orbits")
    _add_family_args(p)
    p.add_argument("--start", help="follow this point to its eventual cycle")
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--period", type=int, help="list orbits of this minimal period")
    p.add_argument("--n-max", type=int, default=8, help="period sweep bound")
    p.add_argument("--piece-budget", type=int, default=1_000_000)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_orbits)

    p = sub.add_parser("entropy", help="topological entropy estimates")
    _add_family_args(p)
    p.add_argument("--method", choices=("markov", "lap", "bowen"), default="markov")
    p.add_argument("--n-max", type=int, default=10, help="lap route iterate bound")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("kneading", help="kneading data, comparison, realization")
    _add_family_args(p)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--sequence", type=int, help="also emit the j-th sequence")
    p.add_argument("--compare", help="family JSON to compare against")
    p.add_argument("--realize", help="kneading data JSON to realize")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_kneading)

    p = sub.add_parser("renorm", help="renormalization tower and odometer check")
    _add_family_args(p)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_renorm)

    p = sub.add_parser("classify", help="Finite / Boundary2Inf / Chaotic verdict")
    _add_family_args(p)
    p.add_argument("--budgets", help="JSON file of budget overrides")
    p.add_argument("--k", type=int, help="verdict resolution exponent")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("bisect", help="bracket the entropy-positive boundary")
    p.add_argument("--shape", required=True)
    p.add_argument("--lo", required=True, help="zero-entropy heights, comma-separated")
    p.add_argument("--hi", required=True, help="positive-entropy heights")
    p.add_argument("--width", required=True, help="target bracket width")
    p.add_argument("--refine-level", type=int, help="refine until midpoint reaches this doubling level")
    p.add_argument("--budgets")
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bisect)

    p = sub.add_parser("theorem1", help="two-sided perturbation experiment")
    _add_family_args(p)
    p.add_argument("--eps", default="1/100,1/1000,1/10000")
    p.add_argument("--budgets")
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_theorem1)

    p = sub.add_parser("scan", help="classify a parameter grid to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_scan)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConstraintViolation, DomainError, KneadingNotRealizable) as e:
        print(json.dumps({"error": str(e), "kind": type(e).__name__}), file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(json.dumps({"error": str(e), "kind": "BudgetExceeded"}), file=sys.stderr)
        return 3
    except SawlabError as e:
        print(json.dumps({"error": str(e), "kind": type(e).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
