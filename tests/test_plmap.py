"""Exact piecewise-linear engine: evaluation, orbits, laps, composition."""

import time
from fractions import Fraction as F

import pytest

from sawlab import BudgetExceeded, Shape, StuntedSawtoothMap, periodic_points
from sawlab.plmap import Ivl, PiecewiseLinearMap

from oracles import image_of_interval, iterate, orbit, preimages_of_point


def test_tent_evaluation_is_exact(tent):
    assert tent(F(2, 7)) == F(4, 7)
    assert tent(F(1, 2)) == 1
    assert tent(F(3, 4)) == F(1, 2)
    assert tent(0) == 0 and tent(1) == 0


def test_tent_three_cycle(tent):
    # 2/7 -> 4/7 -> 6/7 -> 2/7, the classic period-3 orbit
    assert orbit(tent, F(2, 7), 3) == (F(2, 7), F(4, 7), F(6, 7), F(2, 7))


def test_evaluation_outside_domain_rejected(tent):
    from sawlab import DomainError

    with pytest.raises(DomainError):
        tent(F(3, 2))
    with pytest.raises(DomainError):
        tent(F(-1, 10))


def test_lap_counts_grow_with_composition(tent):
    assert tent.lap_count() == 2
    assert tent.compose_self(2).lap_count() == 4
    assert tent.compose_self(3).lap_count() == 8


def test_bimodal_composition_lap_count():
    saw = StuntedSawtoothMap(Shape.from_string("+-+"), [F(1), F(0)]).map
    assert saw.lap_count() == 3
    assert saw.compose_self(2).lap_count() == 9


def test_plateau_caps_composed_lap_count(stunted_tent):
    # the plateau absorbs the fold, so f^2 has fewer laps than the full 4
    f = stunted_tent(F(4, 5)).map
    assert f.compose_self(2).lap_count() == 4


@pytest.mark.parametrize(
    "bps, vals, laps",
    [
        # adjacent pieces of one sign but two slopes are one lap
        ((0, F(1, 2), 1), (0, F(1, 4), 1), 1),
        ((0, F(1, 2), F(3, 4), 1), (0, F(1, 4), 1, 0), 2),
        # a flat piece at the start, at the end or at both is no lap
        ((0, F(1, 4), F(1, 2), 1), (F(1, 4), F(1, 4), F(3, 8), 1), 1),
        ((0, F(1, 2), F(3, 4), 1), (0, F(1, 4), 1, 1), 1),
        ((0, F(1, 4), F(3, 4), 1), (F(1, 2), F(1, 2), 1, 1), 1),
        # and a flat piece between two rises splits them
        ((0, F(1, 3), F(2, 3), 1), (0, F(1, 2), F(1, 2), 1), 2),
    ],
)
def test_lap_count_merges_same_sign_pieces_and_skips_flat_ones(bps, vals, laps):
    f = PiecewiseLinearMap(bps, vals)
    assert f.piece_count == len(bps) - 1  # no two pieces are collinear
    assert f.lap_count() == laps


def test_image_of_interval(tent):
    assert image_of_interval(tent, Ivl(F(2, 7), F(4, 7))) == Ivl(F(4, 7), F(1))
    assert image_of_interval(tent, Ivl(F(0), F(1))) == Ivl(F(0), F(1))


def test_compose_matches_pointwise_iteration(stunted_tent):
    f = stunted_tent(F(7, 10)).map
    g = f.compose_self(3)
    for num in range(0, 30):
        x = F(num, 29)
        assert g(x) == iterate(f, x, 3)


def test_orbit_denominators_never_grow(tent):
    # integer slopes: the orbit of k/q stays on denominators dividing q
    rec = tent.orbit_eventually_periodic(F(3, 11))
    assert all(p.denominator in (1, 11) for p in rec.points)
    assert rec.period >= 1


def test_eventually_periodic_closes(stunted_tent):
    f = stunted_tent(F(4, 5)).map
    # the plateau maps to its height, which lands on the period-2 cycle
    rec = f.orbit_eventually_periodic(F(1, 2))
    assert rec.points[rec.preperiod + rec.period] == rec.points[rec.preperiod]
    assert rec.cycle == (F(4, 5), F(2, 5))
    assert f.orbit_eventually_periodic(F(1, 3)).cycle == (F(2, 3),)


def test_piece_budget_enforced(tent):
    with pytest.raises(BudgetExceeded):
        tent.compose_self(12, piece_budget=100)


def test_composition_refuses_before_it_builds_an_oversize_map(tent):
    # tent^100000 needs tent^32 = tent^16 o tent^16, 2^32 pieces; the count
    # passes the budget a few inner pieces into that composition
    start = time.process_time()
    with pytest.raises(BudgetExceeded) as e:
        periodic_points(tent, 100_000)
    assert time.process_time() - start < 1
    assert e.value.kind == "pieces"
    assert 1_000_000 < e.value.needed <= 1_000_000 + 2**16


def test_breakpoint_value_construction_validates():
    from sawlab import StructureError

    with pytest.raises(StructureError):
        PiecewiseLinearMap([F(0), F(1, 2), F(1, 3), F(1)], [F(0), F(1), F(1), F(0)])


def test_collinear_breakpoints_merge():
    f = PiecewiseLinearMap(
        [F(0), F(1, 4), F(1, 2), F(1)], [F(0), F(1, 2), F(1), F(0)]
    )
    # 1/4 lies on the line through (0,0) and (1/2,1); it should vanish
    assert f.breakpoints == (F(0), F(1, 2), F(1))


def test_preimages_of_point(stunted_tent):
    f = stunted_tent(F(4, 5)).map
    isolated, flats = preimages_of_point(f, F(4, 5))
    assert all(f(x) == F(4, 5) for x in isolated)
    assert flats and flats[0] == Ivl(F(2, 5), F(3, 5))
