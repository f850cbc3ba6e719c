"""Benchmark sawlab end to end (and, with --trace 1, per module).

Run from the root of a sawlab checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 10 --trace 0

It imports sawlab from ./src, runs rounds of the workload until --seconds
have passed (always whole rounds, at least one), checks every result, and
prints a table followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. Timings are in `ref`, passes
of the reference kernel in clock.py; raw seconds are printed beside them.
With --trace 1 it runs one untraced round, then one traced round, and
reports the per-layer metrics of the traced round. Raw figures and spans go
to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5


def _load_sawlab():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import sawlab
    except ImportError as e:
        sys.exit(f"cannot import sawlab from {ROOT / 'src'}: {e}")
    if not Path(sawlab.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        sys.exit(f"sawlab imported from {sawlab.__file__}, not from ./src")


def _setup_seconds(argv: list[str]) -> float:
    """Process start to first timed operation, in a fresh interpreter."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, __file__, *argv, "--setup-probe"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    killer = threading.Timer(120, child.kill)
    killer.start()
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    finally:
        child.wait()
        killer.cancel()
    if line.strip() != "ready" or child.returncode != 0:
        sys.exit(f"setup probe failed with code {child.returncode}")
    return elapsed


def _quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights. Operation costs are lumpy (a few dozen distinct kinds of cell),
    and a single order statistic jumps between lumps from run to run; this
    estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule inside each order statistic's slice of [0, 1]
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "boundary", "certify", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing sets the layout of every attribute dict; a seed that
        # changes with each process moves operation times by several percent
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))

    _load_sawlab()
    from clock import WorkClock
    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS, Round

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        clock = WorkClock()
        clock.sample()
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        setup = [_setup_seconds(argv) for _ in range(SETUP_PROBES)]

        rounds = []  # (round, traced, work start, work end, errors, failed operations)
        tracer = Tracer(clock)
        clock.start()
        wall_start = time.perf_counter()
        try:
            while True:
                traced = args.trace == 1 and len(rounds) == 1
                if traced:
                    tracer.install()
                rnd = Round(clock)
                start = clock.now()
                try:
                    out = workload.run(rnd)
                finally:
                    end = clock.now()
                    tracer.uninstall()
                errors, failures = workload.check(rnd, out)
                rounds.append((rnd, traced, start, end, errors, failures))
                if args.trace == 1:
                    if len(rounds) == 2:
                        break
                elif time.perf_counter() - wall_start >= args.seconds:
                    break
        finally:
            clock.stop()

    pass_s = statistics.median(clock.passes)
    errors = [e for r in rounds for e in r[4]]
    attempted = sum(len(r[0].ops) for r in rounds)
    failed = sum(len(r[5]) for r in rounds)
    plain = [r for r in rounds if not r[1]]
    run_ref = statistics.median(clock.refs(r[2], r[3]) for r in plain)
    run_s = statistics.median(r[3] - r[2] for r in plain)
    op_refs = [(b - a) / clock.pass_seconds(a, b) for r in plain for _, a, b in r[0].ops]
    op_secs = [b - a for r in plain for _, a, b in r[0].ops]

    rows = [
        ("run_ref", run_ref, "ref", run_s),
        ("op_p50_ref", _quantile(op_refs, 0.5), "ref", _quantile(op_secs, 0.5)),
        ("op_p90_ref", _quantile(op_refs, 0.9), "ref", _quantile(op_secs, 0.9)),
        ("setup_s", statistics.median(setup), "s", None),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", None),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    if args.trace == 1:
        traced = next(r for r in rounds if r[1])
        layer = tracer.layer_metrics(clock.pass_seconds(traced[2], traced[3]))
        layer["trace.overhead_ref"] = clock.refs(traced[2], traced[3]) - run_ref
        metrics = {name: {"value": layer.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
        tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} round(s), "
          f"{len(op_refs)} timed operations, {len(clock.passes)} kernel passes "
          f"(median {pass_s * 1e3:.2f} ms)")
    for name, value, unit, raw in rows:
        print(f"  {name:<12} {value:12.4f} {unit:<4}" + (f"  raw {raw:.4f} s" if raw else ""))
    if args.trace == 1:
        for name, unit in PER_LAYER:
            print(f"  {name:<62} {metrics[name]['value']:14.3f} {unit}")
    for line in errors[:20]:
        print("  error:", line)
    for line in rounds[-1][5]:
        print("  failed:", line)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    raw = {"args": vars(args), "result": result, "setup_s": setup, "errors": errors,
           "kernel_passes": clock.passes, "pass_times": clock.times,
           "rounds": [{"start": r[2], "end": r[3], "traced": r[1], "ops": r[0].ops} for r in rounds]}
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
