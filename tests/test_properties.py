"""Randomized invariant checks with fixed seeds.

Each test draws a modest sample; the seeds keep failures reproducible.
"""

import random
from fractions import Fraction as F

from sawlab import (
    Shape,
    StuntedSawtoothMap,
    compare_kneading,
    entropy_bowen,
    entropy_lap,
    entropy_markov,
    kneading_data,
    periodic_points,
    perturb_toward_chaos,
    perturb_toward_order,
    sharkovskii_closure,
    sharkovskii_forces,
)
from sawlab.rational import format_rat, parse_rat

from oracles import adding_machine_step, iterate


def random_family(rng, d_max=2, denom=64):
    d = rng.randint(1, d_max)
    patterns = {1: ["+-", "-+"], 2: ["+-+", "-+-"], 3: ["+-+-", "-+-+"]}
    s = rng.choice(patterns[d])
    while True:
        ws = [F(rng.randint(0, denom), denom) for _ in range(d)]
        try:
            return StuntedSawtoothMap(Shape.from_string(s), ws)
        except Exception:
            continue


def test_rational_text_round_trip():
    rng = random.Random(2026)
    for _ in range(200):
        q = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rat(format_rat(q)) == q


def test_composition_agrees_with_pointwise_iteration():
    rng = random.Random(17)
    for _ in range(12):
        m = random_family(rng)
        n = rng.randint(2, 4)
        g = m.map.compose_self(n)
        for _ in range(20):
            x = F(rng.randint(0, 991), 991)
            assert g(x) == iterate(m.map, x, n)


def test_lap_counts_are_submultiplicative():
    rng = random.Random(23)
    for _ in range(10):
        m = random_family(rng)
        f = m.map
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        lap_a = f.compose_self(a).lap_count()
        lap_b = f.compose_self(b).lap_count()
        lap_ab = f.compose_self(a + b).lap_count()
        assert lap_ab <= lap_a * lap_b


def test_reflection_conjugacy_pointwise():
    rng = random.Random(3)
    for _ in range(20):
        m = random_family(rng)
        s = m.shape.to_string()
        mir = StuntedSawtoothMap(
            Shape.from_string(s[::-1]), [1 - w for w in reversed(m.w)]
        )
        for _ in range(25):
            x = F(rng.randint(0, 997), 997)
            assert mir.map(1 - x) == 1 - m.map(x)


def test_complement_family_is_the_pointwise_complement():
    rng = random.Random(5)
    for _ in range(20):
        m = random_family(rng)
        comp = StuntedSawtoothMap(m.shape.mirrored(), [1 - w for w in m.w])
        for _ in range(25):
            x = F(rng.randint(0, 997), 997)
            assert comp.map(x) == 1 - m.map(x)


def test_reflection_flips_kneading_signs():
    rng = random.Random(29)
    for _ in range(12):
        m = random_family(rng)
        s = m.shape.to_string()
        mir = StuntedSawtoothMap(
            Shape.from_string(s[::-1]), [1 - w for w in reversed(m.w)]
        )
        kd, kd_mir = kneading_data(m, 6), kneading_data(mir, 6)
        d = m.d
        for i in range(1, d + 1):
            expected = tuple(
                tuple(-v[d - 1 - j] for j in range(d)) for v in kd.row(d + 1 - i)
            )
            assert kd_mir.row(i) == expected


def test_sharkovskii_forcing_is_transitive():
    rng = random.Random(41)
    for _ in range(300):
        p, q, r = (rng.randint(1, 48) for _ in range(3))
        if sharkovskii_forces(p, q) and sharkovskii_forces(q, r):
            assert sharkovskii_forces(p, r)


def test_sharkovskii_closure_is_a_lower_set():
    rng = random.Random(43)
    for _ in range(40):
        periods = {rng.randint(1, 10) for _ in range(rng.randint(1, 4))}
        n_max = 12
        closed = sharkovskii_closure(periods, n_max)
        assert periods <= set(closed)
        for a in closed:
            for b in range(1, n_max + 1):
                if sharkovskii_forces(a, b):
                    assert b in closed


def test_kneading_comparison_is_monotone_and_transitive():
    shape = Shape.from_string("+-")
    grid = [kneading_data(StuntedSawtoothMap(shape, [F(k, 24)]), 8) for k in range(25)]
    rng = random.Random(47)
    for _ in range(60):
        i, j, k = sorted(rng.randint(0, 24) for _ in range(3))
        assert compare_kneading(grid[i], grid[j]) <= 0
        assert compare_kneading(grid[j], grid[k]) <= 0
        assert compare_kneading(grid[i], grid[k]) <= 0


def test_entropy_estimates_sandwich():
    samples = [
        StuntedSawtoothMap(Shape.from_string("+-"), [F(33, 40)]),
        StuntedSawtoothMap(Shape.from_string("+-"), [F(9, 10)]),
        StuntedSawtoothMap(Shape.from_string("+-"), [F(1)]),
        StuntedSawtoothMap(Shape.from_string("+-+"), [F(7, 10), F(3, 10)]),
    ]
    for m in samples:
        f = m.map
        low = entropy_bowen(f).value
        mid = entropy_markov(f).value
        high = entropy_lap(f, n_max=10).upper
        assert low <= mid + 1e-9
        assert mid <= high + 1e-9


def test_odometer_steps_through_a_single_full_cycle():
    for n in range(1, 8):
        word = "0" * n
        seen = {word}
        for _ in range(2**n - 1):
            word = adding_machine_step(word)
            assert word not in seen
            seen.add(word)
        assert adding_machine_step(word) == "0" * n
        assert len(seen) == 2**n


def _plateau_clearance(m, x):
    gaps = []
    for p in m.plateaus:
        gaps.append(max(F(0), p.interval.lo - x, x - p.interval.hi))
    return min(gaps)


def test_small_perturbations_keep_orbits_clear_of_plateaus():
    rng = random.Random(53)
    eps = F(1, 50)
    checked = 0
    for _ in range(12):
        m = random_family(rng, denom=40)
        margin = F(eps, m.d + 1)
        for n in (1, 2, 3):
            for orb in periodic_points(m.map, n):
                if any(_plateau_clearance(m, x) <= margin for x in orb.points):
                    continue
                for pert in (perturb_toward_chaos(m, eps), perturb_toward_order(m, eps)):
                    g = pert.map
                    pts = orb.points
                    for a, b in zip(pts, pts[1:] + pts[:1]):
                        assert g(a) == b
                checked += 1
    assert checked >= 10
