"""Write every wire-format surface of sawlab into one directory.

    python tools/wire_snapshot.py SRC OUTDIR

Runs the sawlab CLI from the package source at SRC (SRC goes on PYTHONPATH)
and writes into OUTDIR, which must not exist yet:

- the stdout of a fixed list of invocations, one file each, their stderr
  where they write any (the error JSON of a refused invocation), and the
  exit code of every invocation in exit_codes.txt;
- the CSV and the certificates of three scans: the two grids of the
  benchmark's scan workload and the 101-cell tent line 1/2 -> 1.

Everything written is deterministic, so a snapshot taken from two revisions
of the source must agree byte for byte where their wire format agrees:

    python tools/wire_snapshot.py old/src /tmp/old
    python tools/wire_snapshot.py src /tmp/new
    diff -r /tmp/old /tmp/new

Scans run with relative output paths from inside OUTDIR, so their summaries
do not name OUTDIR. The scan manifests are journals whose line order is not
part of the deterministic surface; they are deleted. Uses the standard
library only; a full snapshot takes 11-13 s on a 2-core x86 virtual machine
with Python 3.11.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

# the refined midpoint of `bisect --shape +- --lo 4/5 --hi 9/10
# --width 1/1000000000 --refine-level 8`, certified Boundary2Inf(6)
BOUNDARY_W = (
    "95517828539092709965366156137658913408328847724187486795160068823243505718061/"
    "115792089237316195423570985008687907853269984665640564039457584007913129639936"
)

INPUTS = {
    "family-33-40.json": {"shape": "+-", "w": ["33/40"]},
    "budgets-partition-8192.json": {"partition_budget": 8192},
    "budgets-tower-steps.json": {"k": 2, "step_budget": 3},
    "budgets-tower-depth.json": {"k": 2, "tower_depth": 3},
}

# realize invocation -> the earlier invocation whose kneading payload it reads
REALIZE_FROM = {
    "kneading-realize": "kneading-tent",
    "kneading-realize-bimodal": "kneading-bimodal",
    "kneading-realize-deep": "kneading-deep",
    "kneading-realize-trimodal": "kneading-trimodal",
}

# name -> argv; run in order, so an invocation may read the stdout of an
# earlier one (see REALIZE_FROM)
INVOCATIONS = [
    ("describe-tent", ["describe", "--shape", "+-", "--w", "4/5"]),
    ("describe-bimodal", ["describe", "--shape", "+-+", "--w", "7/10,3/10"]),
    ("orbits-period", ["orbits", "--shape", "+-", "--w", "1", "--period", "3"]),
    # a walk count past int64: 4^37 closed walks of length 37 pass the budget
    ("orbits-period-walks-past-int64", ["orbits", "--shape", "+-+-", "--w", "1,0,1", "--period",
                                        "40", "--piece-budget", "10000000000000000000000"]),
    # the literal route's non-repelling labels
    ("orbits-period-one-sided", ["orbits", "--shape", "+-", "--w", "4/5", "--period", "2"]),
    ("orbits-period-plateau", ["orbits", "--shape", "+-", "--w", "3/4", "--period", "2"]),
    # every period of a zero-entropy map is read from its inventory
    ("orbits-period-zero-entropy", ["orbits", "--shape", "+-", "--w", "823/1000", "--period",
                                    "256"]),
    # the tent's 2^10 closed walks of length 10 pass the budget: exit 3 before period 30
    ("orbits-period-walks-refused", ["orbits", "--shape", "+-", "--w", "1", "--period", "30",
                                     "--piece-budget", "1000"]),
    ("orbits-start", ["orbits", "--shape", "+-", "--w", "4/5", "--start", "1/3"]),
    ("orbits-start-outside", ["orbits", "--shape", "+-", "--w", "4/5", "--start", "4/3"]),
    ("orbits-sweep-finite", ["orbits", "--shape", "+-", "--w", "823/1000", "--n-max", "8"]),
    ("orbits-sweep-chaotic", ["orbits", "--shape", "+-+", "--w", "9/10,1/10", "--n-max", "6"]),
    ("orbits-sweep-trimodal", ["orbits", "--shape", "+-+-", "--w", "1,1/20,1", "--n-max", "6"]),
    ("entropy-markov", ["entropy", "--shape", "+-+", "--w", "7/10,3/10", "--method", "markov"]),
    ("entropy-lap", ["entropy", "--shape", "+-", "--w", "33/40", "--method", "lap"]),
    ("entropy-lap-zero", ["entropy", "--shape", "+-", "--w", "4/5", "--method", "lap"]),
    ("entropy-lap-trimodal", ["entropy", "--shape", "+-+-", "--w", "7/10,1/10,4/5",
                              "--method", "lap"]),
    ("entropy-boundary", ["entropy", "--shape", "+-", "--w", BOUNDARY_W, "--method", "markov"]),
    ("entropy-bowen", ["entropy", "--shape", "+-", "--w", "33/40", "--method", "bowen"]),
    ("kneading-tent", ["kneading", "--shape", "+-", "--w", "4/5", "--depth", "8"]),
    ("kneading-sequence", ["kneading", "--shape", "+-+", "--w", "9/10,1/10", "--depth", "6",
                           "--sequence", "2"]),
    ("kneading-compare", ["kneading", "--shape", "+-", "--w", "4/5", "--depth", "8",
                          "--compare", "family-33-40.json"]),
    ("kneading-realize", ["kneading", "--realize", "realize-kneading-tent.json"]),
    ("kneading-bimodal", ["kneading", "--shape", "+-+", "--w", "41/64,5/64", "--depth", "12"]),
    ("kneading-realize-bimodal", ["kneading", "--realize", "realize-kneading-bimodal.json"]),
    # a depth-45 target whose parameter cell is narrower than 1e-12
    ("kneading-deep", ["kneading", "--shape", "+-", "--w", "99912345/100000000", "--depth", "45"]),
    ("kneading-realize-deep", ["kneading", "--realize", "realize-kneading-deep.json"]),
    # rows 1 and 3 bind w_1 and w_3 jointly: w_3 >= 4w_1 - 2 and
    # w_3 <= (2 - w_1)/4, so w_1 <= 10/17
    ("kneading-trimodal", ["kneading", "--shape", "+-+-", "--w", "3/5,1/5,3/10",
                           "--depth", "10"]),
    ("kneading-realize-trimodal", ["kneading", "--realize", "realize-kneading-trimodal.json"]),
    ("renorm", ["renorm", "--shape", "+-", "--w", BOUNDARY_W, "--depth", "6"]),
    ("renorm-overlap", ["renorm", "--shape", "+-+", "--w", "19/20,7/20"]),
    ("renorm-escape", ["renorm", "--shape", "+-+", "--w", "33/40,9/40"]),
    # a certified gap fixed point, and a tower stopped by divisibility
    ("renorm-gap", ["renorm", "--shape", "+-", "--w", "4/5"]),
    # a critical cycle 150,002 long: the gap report gives its period alone
    ("renorm-gap-long", ["renorm", "--shape", "+-", "--w", "300005/300007"]),
    ("classify-finite", ["classify", "--shape", "+-", "--w", "823/1000"]),
    ("classify-chaotic", ["classify", "--shape", "+-", "--w", "33/40"]),
    ("classify-partition-budget", ["classify", "--shape", "+-+", "--w", "9/10,1/10",
                                   "--budgets", "budgets-partition-8192.json"]),
    ("classify-bimodal", ["classify", "--shape", "+-+", "--w", "41/64,5/64"]),
    ("classify-boundary", ["classify", "--shape", "+-", "--w", BOUNDARY_W]),
    # the step budget runs out while the tower walks the critical cycle
    ("classify-tower-budget", ["classify", "--shape", "+-", "--w", "823/1000",
                               "--budgets", "budgets-tower-steps.json"]),
    # the tower stops short of its depth: a cycle period of 4 is not divisible by 8
    ("classify-tower-depth", ["classify", "--shape", "+-", "--w", "823/1000",
                              "--budgets", "budgets-tower-depth.json"]),
    ("bisect-refine", ["bisect", "--shape", "+-", "--lo", "4/5", "--hi", "9/10",
                       "--width", "1/1000000000", "--refine-level", "8"]),
    # the = form also runs on older sources, whose parser read -+ as an option
    ("bisect-refine-mirrored", ["bisect", "--shape=-+", "--lo", "1/5", "--hi", "1/10",
                                "--width", "1/1000000000", "--refine-level", "8"]),
    # no doubling cell of critical orbit 1 on the bracket: exit 3, the error on stderr
    ("bisect-refine-no-cell", ["bisect", "--shape", "+-+", "--lo", "4/5,1/5", "--hi", "4/5,3/20",
                               "--width", "1/1000000000", "--refine-level", "8"]),
    # w_1 on plateau 2, so the superstable cycles pass through both plateaus:
    # no orbit-1 word has a cell past level 2, and each level's empty cell is
    # refused at the first form that empties it
    ("bisect-refine-two-plateaus", ["bisect", "--shape", "+-+", "--lo", "7/10,1/5", "--hi",
                                    "7/10,3/20", "--width", "1/1000000000",
                                    "--refine-level", "8"]),
    ("theorem1", ["theorem1", "--shape", "+-", "--w", BOUNDARY_W]),
]

SCANS = {
    "bench-trimodal": ("+-+-", {"kind": "product", "axes": [[f"{k}/10" for k in range(11)]] * 3}),
    "bench-tent": ("+-", {"kind": "line", "start": ["4/5"], "stop": ["17/20"], "steps": 201}),
    "tent-line": ("+-", {"kind": "line", "start": ["1/2"], "stop": ["1"], "steps": 101}),
}


def run(src: Path, out: Path, argv: list[str]) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "sawlab.cli", *argv],
        cwd=out, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/wire_snapshot.py SRC OUTDIR", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    out.mkdir(parents=True)
    for name, obj in INPUTS.items():
        (out / name).write_text(json.dumps(obj))
    codes = []
    for name, args in INVOCATIONS:
        if name in REALIZE_FROM:
            source = REALIZE_FROM[name]
            payload = json.loads((out / f"{source}.json").read_text())
            (out / f"realize-{source}.json").write_text(json.dumps(payload["kneading"]))
        code, stdout, stderr = run(src, out, args)
        (out / f"{name}.json").write_text(stdout)
        if stderr:
            (out / f"{name}.stderr").write_text(stderr)
        codes.append(f"{name} {code}")
    for name, (shape, grid) in SCANS.items():
        config = {
            "shape": shape,
            "grid": grid,
            "output": {"csv": f"{name}.csv", "manifest": f"{name}.jsonl",
                       "certificates": f"{name}.certs.jsonl"},
        }
        (out / f"scan-{name}-config.json").write_text(json.dumps(config))
        code, stdout, _ = run(src, out, ["scan", "--config", f"scan-{name}-config.json"])
        (out / f"scan-{name}.json").write_text(stdout)
        (out / f"{name}.jsonl").unlink(missing_ok=True)
        codes.append(f"scan-{name} {code}")
    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
