"""The four workloads, run through sawlab's public API.

Each workload builds its inputs from the seed, runs rounds of operations
timed one by one on the work clock, and after each round checks every result
against `oracle`, outside the timed phase. `check` returns the errors, each
of which makes the run incorrect, and the failed operations. Only the
entropy-monotonicity check on `scan` reports failed operations instead of
errors, because a known fault (a float double root, see README.md) fails it
on the same cell in every run.

A seed changes only the order of the operations, and on `crosscheck` which
one-humped kneading targets are mirrored, which costs the same search step
for step. Per-operation costs differ up to twentyfold between inputs, so a
seed that drew new heights would make the figures read the draw, not the
code.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import sawlab
import sawlab.explore
import sawlab.scan

from oracle import Sawtooth, admissible, check_finite, check_homoclinic, check_period_witness, check_record

TENT = sawlab.Shape.from_string("+-")


class Round:
    """Operation samples of one round: (kind, start, end) in work seconds."""

    def __init__(self, clock):
        self.clock = clock
        self.ops: list[tuple[str, float, float]] = []

    @contextlib.contextmanager
    def op(self, kind: str):
        start = self.clock.now()
        yield
        self.ops.append((kind, start, self.clock.now()))


@contextlib.contextmanager
def tap(module, name, clock, on_call):
    """Rebind module.name so each call reports (start, end, result)."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        start = clock.now()
        result = fn(*args, **kwargs)
        on_call(start, clock.now(), result)
        return result

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, fn)


def _extreme(word: str) -> tuple[Fraction, ...]:
    """Heights of the full sawtooth: maxima at 1, minima at 0."""
    return tuple(Fraction(int(c == "+")) for c in word[:-1])


class Scan:
    """`run_scan` with workers=0 and certificates on: many small classifies."""

    # shape, grid, grid step along each height
    GRIDS = (
        ("+-+-", {"kind": "product", "axes": [[f"{k}/10" for k in range(11)]] * 3},
         Fraction(1, 10)),
        ("+-", {"kind": "line", "start": ["4/5"], "stop": ["17/20"], "steps": 201},
         Fraction(1, 4000)),
    )
    TOL = 1e-12

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        self.configs = []
        for i, (word, grid, _) in enumerate(self.GRIDS):
            stem = workdir / f"scan{i}"
            cfg = sawlab.ScanConfig.from_json({
                "shape": word,
                "grid": grid,
                "output": {"csv": f"{stem}.csv", "manifest": f"{stem}.jsonl",
                           "certificates": f"{stem}.certs.jsonl"},
            })
            cells = list(cfg.cells)
            rng.shuffle(cells)
            self.configs.append(replace(cfg, cells=tuple(cells)))
        self.admissible_cells = sum(
            admissible(word, c) for (word, _, _), cfg in zip(self.GRIDS, self.configs)
            for c in cfg.cells
        )

    def run(self, rnd: Round):
        def cell(start, end, record):
            rnd.ops.append(("cell", start, end))

        with tap(sawlab.scan, "classify", rnd.clock, cell):
            return [sawlab.run_scan(cfg, workers=0) for cfg in self.configs]

    def check(self, rnd: Round, summaries) -> tuple[list[str], list[str]]:
        errors: list[str] = []
        failures: list[str] = []
        if len(rnd.ops) != self.admissible_cells:
            errors.append(f"{len(rnd.ops)} cells classified, {self.admissible_cells} admissible")
        for (word, _, step), summary in zip(self.GRIDS, summaries):
            bounds = {}
            with open(summary.certificates_path) as fh:
                for line in fh:
                    rec = json.loads(line)["record"]
                    if rec is None:
                        continue
                    w = tuple(Fraction(x) for x in rec["w"])
                    err = check_record(Sawtooth(word, w), rec)
                    if err:
                        errors.append(f"{word} {rec['w']}: {err}")
                    bounds[w] = (rec["entropy"]["lower"], rec["entropy"]["upper"])
            full = _extreme(word)
            if full in bounds and abs(bounds[full][0] - math.log(len(word))) > 1e-9:
                errors.append(f"full sawtooth {word}: entropy {bounds[full][0]}")
            # a chaos-ward step (a maximum up, a minimum down) cannot lower entropy
            for w, (lower, _) in bounds.items():
                for j, c in enumerate(word[:-1]):
                    nxt = w[:j] + (w[j] + step if c == "+" else w[j] - step,) + w[j + 1:]
                    if nxt in bounds and lower > bounds[nxt][1] + self.TOL:
                        failures.append(
                            f"{word} {[str(x) for x in w]} -> {[str(x) for x in nxt]}: "
                            f"lower {lower!r} > upper {bounds[nxt][1]!r}"
                        )
                        break
        return errors, failures


class Boundary:
    """Bisect to width 1e-9, refine to level 8, then the two-sided experiment."""

    PIPELINES = (("+-", "4/5", "9/10"), ("-+", "1/5", "1/10"))

    def __init__(self, seed: int, workdir):
        self.pipelines = list(self.PIPELINES)
        random.Random(seed).shuffle(self.pipelines)

    def run(self, rnd: Round):
        out = {}
        for word, lo, hi in self.pipelines:
            shape = sawlab.Shape.from_string(word)
            with rnd.op("bisect"):
                bracket = sawlab.bisect_boundary(
                    shape, [Fraction(lo)], [Fraction(hi)], Fraction(1, 10**9)
                )
            with rnd.op("refine"):
                refined = sawlab.refine_to_boundary(bracket, target_level=8)
            records = {}

            def keep(start, end, record):
                records[record.w] = record

            m = sawlab.StuntedSawtoothMap(shape, list(refined.bracket.midpoint_w))
            with rnd.op("theorem1"), tap(sawlab.explore, "classify", rnd.clock, keep):
                experiment = sawlab.two_sided_perturbation_experiment(m)
            out[word] = (bracket, refined, experiment, records)
        return out

    def check(self, rnd: Round, out) -> tuple[list[str], list[str]]:
        errors: list[str] = []
        for word, (bracket, refined, experiment, records) in out.items():
            if bracket.width > Fraction(1, 10**9):
                errors.append(f"{word}: bracket width {float(bracket.width)}")
            for w, rec, verdict in ((bracket.lo_w, bracket.lo_record, "Finite"),
                                    (bracket.hi_w, bracket.hi_record, "Chaotic")):
                err = check_record(Sawtooth(word, w), rec.to_json())
                if rec.verdict != verdict or err:
                    errors.append(f"{word} bracket end {rec.label}: {err}")
            level = refined.level
            mid = refined.bracket.midpoint_w
            period = Sawtooth(word, mid).return_time(mid[0], 1 << level)
            if refined.record.verdict != "Boundary2Inf" or level < 8 or period != 1 << level:
                errors.append(
                    f"{word} refined point: {refined.record.label}, level {level}, "
                    f"critical period {period}"
                )
            if not experiment.ok or experiment.base.verdict != "Boundary2Inf":
                errors.append(f"{word} theorem1: ok={experiment.ok} base {experiment.base.label}")
            # a Boundary2Inf record carries the same period-set certificate as a Finite one
            rec = refined.record
            err = check_finite(Sawtooth(word, mid), f"Finite({rec.detail['max_period']})",
                               rec.certificates["period_set"])
            if err:
                errors.append(f"{word} refined point period set: {err}")
            for t in experiment.trials:
                for w, verdict in ((t.chaos_w, "Chaotic"), (t.order_w, "Finite")):
                    rec = records.get(w)
                    err = check_record(Sawtooth(word, w), rec.to_json()) if rec else "no record"
                    if err or rec.verdict != verdict:
                        errors.append(f"{word} theorem1 eps {t.eps} {verdict} side: {err}")
        if "+-" in out and "-+" in out:
            a, b = out["+-"][0], out["-+"][0]
            if b.lo_w != tuple(1 - x for x in a.lo_w) or b.hi_w != tuple(1 - x for x in a.hi_w):
                errors.append("the -+ bracket is not 1 - the +- bracket")
        return errors, []


class Certify:
    """The period/entropy and homoclinic/entropy equivalences on the tent grid."""

    def __init__(self, seed: int, workdir):
        self.grid = [Fraction(1, 2) + Fraction(k, 200) for k in range(101)]
        random.Random(seed).shuffle(self.grid)

    def run(self, rnd: Round):
        out = []
        for w in self.grid:
            with rnd.op("cell"):
                f = sawlab.StuntedSawtoothMap(TENT, [w]).map
                h = sawlab.entropy_markov(f)
                if h.value > 0:
                    periods = sawlab.period_set(
                        f, 64, piece_budget=50_000, stop_on_non_power_of_two=True
                    )
                else:
                    periods = sawlab.complete_period_set(f)
                homoclinic = sawlab.find_homoclinic(f, period_bound=32, m_budget=64)
            out.append((w, h, periods, homoclinic))
        return out

    def check(self, rnd: Round, out) -> tuple[list[str], list[str]]:
        errors: list[str] = []
        for w, h, periods, homoclinic in out:
            S = Sawtooth("+-", [w])
            witness = homoclinic.witness
            if (h.value > 0) != S.entropy_positive():
                errors.append(f"w={w}: entropy {h.value}, the oracle disagrees on its sign")
            elif h.value > 0:
                stop = periods.stop_witness
                err = check_period_witness(S, stop.to_json() if stop else None)
                err = err or (check_homoclinic(S, witness.to_json()) if witness
                              else "positive entropy, no homoclinic witness")
            else:
                top = max(periods.periods)
                err = check_finite(S, f"Finite({top})", periods.to_json())
                if not periods.exhaustive:
                    err = err or "zero entropy period set not exhaustive"
                if witness is not None or not homoclinic.definitive:
                    err = err or "zero entropy with a homoclinic witness or no definitive answer"
            if err:
                errors.append(f"w={w} h={h.value}: {err}")
        return errors, []


class Crosscheck:
    """Bowen and lap entropy against Markov, and kneading round trips."""

    # shape, heights, lap window n_max (about 1,000-4,000 laps at the end)
    ENTROPY_MAPS = (
        ("+-", ("1",), 10),
        ("+-+", ("1", "0"), 7),
        ("+-+-", ("1", "0", "1"), 6),
        ("+-", ("9/10",), 10),
        ("+-+", ("9/10", "1/10"), 8),
    )
    DEPTH = 12

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        # the 20 maps of acceptance criterion 8, drawn as that test draws them
        fixed = random.Random(20260822)
        self.targets = []
        for _ in range(20):
            d = fixed.choice([1, 2])
            word = fixed.choice(["+-", "-+"]) if d == 1 else fixed.choice(["+-+", "-+-"])
            while True:
                w = [Fraction(fixed.randint(0, 64), 64) for _ in range(d)]
                if admissible(word, w):
                    break
            if d == 1 and rng.random() < 0.5:
                word, w = word[::-1], [1 - w[0]]
            self.targets.append((word, w))
        self.ops = [(kind, i) for i in range(len(self.ENTROPY_MAPS))
                    for kind in ("bowen", "lap", "markov")]
        self.ops += [("kneading", j) for j in range(len(self.targets))]
        rng.shuffle(self.ops)

    def run(self, rnd: Round):
        out = {}
        for kind, i in self.ops:
            with rnd.op(kind):
                if kind == "kneading":
                    word, w = self.targets[i]
                    m = sawlab.StuntedSawtoothMap(sawlab.Shape.from_string(word), w)
                    target = sawlab.kneading_data(m, self.DEPTH)
                    result = (target, sawlab.realize_kneading(target, self.DEPTH, Fraction(1, 10**12)))
                else:
                    word, w, n_max = self.ENTROPY_MAPS[i]
                    f = sawlab.StuntedSawtoothMap(sawlab.Shape.from_string(word), w).map
                    if kind == "bowen":
                        result = sawlab.entropy_bowen(f)
                    elif kind == "lap":
                        result = sawlab.entropy_lap(f, n_max)
                    else:
                        result = sawlab.entropy_markov(f)
            out[kind, i] = result
        return out

    def check(self, rnd: Round, out) -> tuple[list[str], list[str]]:
        errors: list[str] = []
        for i, (word, w, _) in enumerate(self.ENTROPY_MAPS):
            bowen, lap, markov = (out[k, i].value for k in ("bowen", "lap", "markov"))
            upper = out["lap", i].upper
            if tuple(Fraction(x) for x in w) == _extreme(word):
                exact = math.log(len(word))
                if abs(markov - exact) > 1e-9 or abs(upper - exact) > 1e-9:
                    errors.append(f"full sawtooth {word}: markov {markov}, lap {upper}")
            if not bowen <= markov + 1e-9 <= upper + 2e-9:
                errors.append(f"{word} {w}: bowen {bowen}, markov {markov}, lap upper {upper}")
        for j, (word, w) in enumerate(self.targets):
            target, heights = out["kneading", j]
            if Sawtooth(word, w).kneading_signs(self.DEPTH) != target.signs:
                errors.append(f"kneading data of {word} {w} disagrees with the oracle")
            elif not admissible(word, heights):
                errors.append(f"realized heights for {word} {w} are not admissible")
            elif Sawtooth(word, heights).kneading_signs(self.DEPTH) != target.signs:
                errors.append(f"round trip of {word} {w} does not match at depth {self.DEPTH}")
        return errors, []


WORKLOADS = {"scan": Scan, "boundary": Boundary, "certify": Certify, "crosscheck": Crosscheck}
