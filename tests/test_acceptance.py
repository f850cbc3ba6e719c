"""Acceptance gate: the package's headline guarantees, end to end.

Each criterion prints one PASS/FAIL line (visible with pytest -s) and
asserts its stated tolerance and time budget. Criteria 4-6 share one
boundary bracketing, paid for once per session.
"""

import math
import random
import sys
import time
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest

from sawlab import (
    Shape,
    StuntedSawtoothMap,
    bisect_boundary,
    build_sawtooth,
    build_tower,
    complete_period_set,
    entropy_markov,
    find_homoclinic,
    kneading_data,
    period_set,
    periodic_points,
    realize_kneading,
    refine_to_boundary,
    two_sided_perturbation_experiment,
    unstable_manifold,
)
from sawlab.orbits import markov_orbit_inventory, periodic_orbits

from oracles import adding_machine_step, contains, image_of_interval, index_word, word_index

TENT = Shape.from_string("+-")


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.stderr, flush=True)


def _tent_map(w):
    return StuntedSawtoothMap(TENT, [w]).map


def _grid():
    return [F(1, 2) + F(k, 200) for k in range(101)]


@pytest.fixture(scope="session")
def boundary():
    t0 = time.monotonic()
    bracket = bisect_boundary(TENT, [F(4, 5)], [F(9, 10)], F(1, 10**9))
    refined = refine_to_boundary(bracket, target_level=8)
    m = StuntedSawtoothMap(TENT, list(refined.bracket.midpoint_w))
    tower = build_tower(m, max_depth=7)
    return {
        "bracket": bracket,
        "refined": refined,
        "map": m,
        "tower": tower,
        "setup_seconds": time.monotonic() - t0,
    }


def test_criterion_1_full_sawtooth_entropy():
    worst_err, slowest = 0.0, 0.0
    for d, pattern in ((1, "+-"), (2, "+-+"), (3, "+-+-"), (4, "+-+-+")):
        t0 = time.monotonic()
        est = entropy_markov(build_sawtooth(Shape.from_string(pattern)))
        elapsed = time.monotonic() - t0
        worst_err = max(worst_err, abs(est.value - math.log(d + 1)))
        slowest = max(slowest, elapsed)
    ok = worst_err <= 1e-9 and slowest < 1.0
    _report(1, ok, f"max error {worst_err:.2e}, slowest run {slowest:.3f}s")
    assert ok


def test_criterion_2_periods_detect_positive_entropy():
    t0 = time.monotonic()
    counterexamples = 0
    for w in _grid():
        f = _tent_map(w)
        positive = entropy_markov(f).value > 1e-9
        if positive:
            rep = period_set(f, 64, piece_budget=50000, stop_on_non_power_of_two=True)
            has_odd_part = rep.stop_witness is not None
        else:
            periods = complete_period_set(f).periods
            has_odd_part = any(p & (p - 1) for p in periods)
        if has_odd_part != positive:
            counterexamples += 1
    elapsed = time.monotonic() - t0
    ok = counterexamples == 0 and elapsed < 120
    _report(2, ok, f"{counterexamples} counterexamples on 101 cells, {elapsed:.1f}s")
    assert ok


def test_criterion_3_homoclinic_witnesses_track_entropy():
    t0 = time.monotonic()
    contradictions, exhausted = 0, 0
    for w in _grid():
        f = _tent_map(w)
        positive = entropy_markov(f).value > 1e-9
        rep = find_homoclinic(f, period_bound=64, m_budget=64)
        if rep.witness is not None:
            certified = True
        elif rep.definitive:
            certified = False
        else:
            exhausted += 1
            continue
        if certified != positive:
            contradictions += 1
    elapsed = time.monotonic() - t0
    ok = contradictions == 0 and exhausted <= 5 and elapsed < 600
    _report(
        3,
        ok,
        f"{contradictions} contradictions, {exhausted} exhausted of 101, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_perturbation_splits_the_boundary(boundary):
    t0 = time.monotonic()
    bracket = boundary["bracket"]
    width_ok = bracket.width <= F(1, 10**9)
    exp = two_sided_perturbation_experiment(
        boundary["map"], (F(1, 100), F(1, 1000), F(1, 10000))
    )
    runs_ok = exp.ok and all(t.chaos_ok and t.order_ok for t in exp.trials)
    elapsed = boundary["setup_seconds"] + time.monotonic() - t0
    ok = width_ok and runs_ok and len(exp.trials) == 3 and elapsed < 900
    _report(
        4,
        ok,
        f"bracket width {float(bracket.width):.2e}, "
        f"6/6 runs split {'cleanly' if runs_ok else 'WRONG'}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_tower_matches_the_odometer(boundary):
    t0 = time.monotonic()
    tower = boundary["tower"]
    levels = tower.levels
    depth_ok = len(levels) >= 6
    blocks_ok = all(len(lv.blocks) == 2**lv.n for lv in levels)
    nested_ok = all(
        a.window.contains_interval(b.window)
        and a.window != b.window
        and b.window.length < a.window.length
        for a, b in zip(levels, levels[1:])
    )
    # the odometer itself, not build_tower's integer test: the exact image of
    # block r lies in the block of the adding-machine step of r's n-bit word
    f = boundary["map"].map
    semi_ok = all(
        lv.blocks[word_index(adding_machine_step(index_word(r, lv.n)))].contains_interval(
            image_of_interval(f, block)
        )
        for lv in levels
        for r, block in enumerate(lv.blocks)
    )
    elapsed = boundary["setup_seconds"] + time.monotonic() - t0
    ok = depth_ok and blocks_ok and nested_ok and semi_ok and elapsed < 300
    _report(
        5,
        ok,
        f"depth {len(levels)}, blocks 2^n {blocks_ok}, nesting {nested_ok}, "
        f"odometer match 1-{len(levels)} {semi_ok}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_gap_orbits_expand_onto_deeper_blocks(boundary):
    f = boundary["map"].map
    tower = boundary["tower"]
    inventory = markov_orbit_inventory(f)
    failures = []
    for n in range(1, 6):
        cur = tower.levels[n - 1].blocks
        nxt = tower.levels[n].blocks
        found = False
        for orb in inventory:
            if orb.period not in (2**n, 2 ** (n + 1)):
                continue
            for x in orb.points:
                if any(contains(b, x) for b in cur) and not any(
                    contains(b, x) for b in nxt
                ):
                    manifold = unstable_manifold(f, x, power=orb.period)
                    if any(manifold.contains_interval(b) for b in nxt):
                        found = True
                        break
            if found:
                break
        if not found:
            failures.append(n)
    ok = not failures
    _report(6, ok, f"levels 1-5, failures {failures or 'none'}")
    assert ok


def _oracle_orbits(f, n):
    """Period-n orbits by exhausting every invariant uniform rational grid."""
    bps, vals = f.breakpoints, f.values
    base = lcm(*[q.denominator for q in bps], *[q.denominator for q in vals])
    s = max(abs(int(sl)) for sl in f.slopes)
    found = set()
    for Q in sorted({base, base * (s**n - 1), base * (s**n + 1)}):
        ks = np.arange(Q + 1, dtype=np.int64)
        table = np.empty(Q + 1, dtype=np.int64)
        for i in range(len(bps) - 1):
            lo, hi = int(bps[i] * Q), int(bps[i + 1] * Q)
            table[lo : hi + 1] = int(vals[i] * Q) + int(f.slopes[i]) * (
                ks[lo : hi + 1] - lo
            )
        idx = ks.copy()
        for _ in range(n):
            idx = table[idx]
        for k in np.nonzero(idx == ks)[0]:
            x = F(int(k), Q)
            if x in found:
                continue
            j, p = int(k), 0
            while True:
                j = int(table[j])
                p += 1
                if j == k or p > n:
                    break
            if p == n:
                found.add(x)
    orbits, seen = set(), set()
    for x in sorted(found):
        if x in seen:
            continue
        orb = [x]
        y = f(x)
        while y != x:
            orb.append(y)
            seen.add(y)
            y = f(y)
        seen.add(x)
        orbits.add(frozenset(orb))
    return orbits


def test_criterion_7_periodic_points_match_exhaustive_search():
    t0 = time.monotonic()
    rng = random.Random(11)
    patterns = {1: ["+-", "-+"], 2: ["+-+", "-+-"], 3: ["+-+-", "-+-+"]}
    mismatches = 0
    for _ in range(20):
        d = rng.choice([1, 2, 3])
        shape = Shape.from_string(rng.choice(patterns[d]))
        while True:
            ws = [
                F(rng.randint(0, 5), 5)
                if rng.random() < 0.5
                else F(rng.randint(0, 4), 4)
                for _ in range(d)
            ]
            try:
                m = StuntedSawtoothMap(shape, ws)
                break
            except Exception:
                continue
        # the graph route the package reads, and the literal f^n route
        for n, orbits in periodic_orbits(m.map, 6):
            want = _oracle_orbits(m.map, n)
            for route in (orbits, periodic_points(m.map, n)):
                if {frozenset(o.points) for o in route} != want:
                    mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 300
    _report(7, ok, f"{mismatches} mismatches over 20 maps x n<=6 x 2 routes, {elapsed:.1f}s")
    assert ok


def test_criterion_8_kneading_realization_round_trip():
    rng = random.Random(20260822)
    failures = 0
    for _ in range(20):
        d = rng.choice([1, 2])
        s = rng.choice(["+-", "-+"]) if d == 1 else rng.choice(["+-+", "-+-"])
        while True:
            ws = [F(rng.randint(0, 64), 64) for _ in range(d)]
            try:
                m = StuntedSawtoothMap(Shape.from_string(s), ws)
                break
            except Exception:
                continue
        target = kneading_data(m, 12)
        heights = realize_kneading(target, 12, F(1, 10**12))
        back = kneading_data(StuntedSawtoothMap(m.shape, list(heights)), 12)
        if back.signs != target.signs:
            failures += 1
    ok = failures == 0
    _report(8, ok, f"{failures} failed round trips of 20 at depth 12")
    assert ok


def test_criterion_9_property_suites_hold():
    import test_properties as props

    suites = (
        props.test_sharkovskii_closure_is_a_lower_set,
        props.test_lap_counts_are_submultiplicative,
        props.test_entropy_estimates_sandwich,
        props.test_odometer_steps_through_a_single_full_cycle,
        props.test_small_perturbations_keep_orbits_clear_of_plateaus,
    )
    failed = []
    for fn in suites:
        try:
            fn()
        except AssertionError:
            failed.append(fn.__name__)
    ok = not failed
    _report(9, ok, f"suites failing: {failed or 'none'}")
    assert ok
