"""The integer orbit walks of a stunted family member against its Fraction map."""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sawlab import (
    BudgetExceeded,
    ConstraintViolation,
    DomainError,
    OrbitRecord,
    Shape,
    StuntedSawtoothMap,
)

from oracles import contains


def _walk_record(m, x, max_steps):
    """The walk from x, a point of (1/m.den)Z, read as the orbit record of
    the Fraction route."""
    pts, j = m.walk(int(x * m.den), max_steps)
    return OrbitRecord(
        start=x, points=tuple(F(a, m.den) for a in pts), preperiod=j, period=len(pts) - 1 - j
    )


def _fraction_ranks(m, x, n):
    """Ranks of x, f(x), ..., f^(n-1)(x), read off the plateau intervals."""
    out = []
    for _ in range(n):
        out.append(sum(2 * (x > p.interval.hi) + contains(p.interval, x) for p in m.plateaus))
        x = m.map(x)
    return tuple(out)


_HEIGHTS = st.sampled_from(["+-", "-+", "+-+", "-+-", "+-+-"]).flatmap(
    lambda word: st.tuples(
        st.just(word), st.lists(st.integers(0, 40), min_size=len(word) - 1, max_size=len(word) - 1)
    )
)


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(case=_HEIGHTS)
# extreme heights: each plateau is a single point, the turning point itself
@example(case=("+-", [40]))
@example(case=("-+", [0]))
@example(case=("+-+-", [40, 0, 40]))
# (3/10, 1/10): plateau 1 is [1/10, 17/30], reaching past the middle of both
# laps next to turning point 1/3, and w_2 = 1/10 sits on its left edge
@example(case=("+-+", [12, 4]))
def test_kernel_walks_the_critical_orbits_of_the_fraction_map(case):
    word, ks = case
    try:
        m = StuntedSawtoothMap(Shape.from_string(word), [F(k, 40) for k in ks])
    except ConstraintViolation:
        assume(False)
    for h, w in zip(m.heights, m.w):
        assert _walk_record(m, w, 1000) == m.map.orbit_eventually_periodic(w, 1000)
        assert m.ranks(h, 10) == _fraction_ranks(m, w, 10)


@pytest.mark.parametrize(
    "word, w",
    [
        ("+-+", ("7/10", "3/10")),
        ("+-+", ("3/10", "1/10")),
        ("-+-", ("1/4", "3/4")),
        ("+-+-", ("1", "0", "1")),
    ],
)
def test_kernel_orbits_from_plateau_edges_and_lap_breakpoints(word, w):
    m = StuntedSawtoothMap(Shape.from_string(word), [F(x) for x in w])
    edges = [e for p in m.plateaus for e in (p.interval.lo, p.interval.hi)]
    breakpoints = [F(k, m.d + 1) for k in range(m.d + 2)]
    # the walk holds only the points of m's own lattice (1/den)Z
    for x in [x for x in edges + breakpoints if (x * m.den).denominator == 1]:
        assert _walk_record(m, x, 1000) == m.map.orbit_eventually_periodic(x, 1000)
        assert m.ranks(int(x * m.den), 8) == _fraction_ranks(m, x, 8)


def test_kernel_raises_where_the_fraction_route_does():
    m = StuntedSawtoothMap(Shape.from_string("+-"), [F(6, 7)])
    # 1/7 -> 2/7 -> 4/7 (the right edge of the plateau [3/7, 4/7]) -> 6/7
    # -> 2/7 repeats at step 4
    for walk in (lambda x, n: _walk_record(m, x, n), m.map.orbit_eventually_periodic):
        with pytest.raises(BudgetExceeded) as e:
            walk(F(1, 7), 3)
        assert (e.value.kind, e.value.limit) == ("steps", 3)
        assert walk(F(1, 7), 4).period == 3
    with pytest.raises(DomainError):
        m.map.orbit_eventually_periodic(F(8, 7), 4)
    with pytest.raises(ConstraintViolation):
        StuntedSawtoothMap(m.shape, [F(3, 2)])
