"""Homoclinic witnesses and unstable manifolds."""

from fractions import Fraction as F

import pytest

from sawlab import ConstraintViolation, Ivl, find_homoclinic, unstable_manifold


def test_tent_has_a_certified_witness(tent):
    report = find_homoclinic(tent, period_bound=2, m_budget=8)
    assert report.definitive
    w = report.witness
    assert w is not None
    assert w.orbit.points == (F(0),)
    assert w.x == F(1, 2)
    assert w.m == 2
    assert w.unstable == Ivl(F(0), F(1))


def test_witness_is_genuinely_homoclinic(tent):
    w = find_homoclinic(tent, period_bound=2, m_budget=8).witness
    p = w.orbit.points[0]
    assert w.x != p
    assert w.unstable.contains(w.x)
    assert tent.iterate(w.x, w.m) == p


def test_zero_entropy_map_has_no_witness(stunted_tent):
    report = find_homoclinic(stunted_tent(F(4, 5)).map, period_bound=4, m_budget=16)
    assert report.witness is None
    assert report.definitive
    assert report.orbits_searched >= 2


def test_unstable_manifold_of_expanding_fixed_point(tent, stunted_tent):
    assert unstable_manifold(tent, F(0)) == Ivl(F(0), F(1))
    assert unstable_manifold(stunted_tent(F(3, 5)).map, F(0)) == Ivl(F(0), F(3, 5))


def test_unstable_manifold_respects_plateau_capture(stunted_tent):
    f = stunted_tent(F(4, 5)).map
    assert unstable_manifold(f, F(2, 3)) == Ivl(F(2, 5), F(4, 5))


def test_unstable_manifold_under_iterate_power(tent):
    # the repelling period-2 point 2/5 expands under f^2 until it covers
    # the whole interval
    assert unstable_manifold(tent, F(2, 5), power=2) == Ivl(F(0), F(1))


def test_minimal_budget_still_finds_a_one_step_witness(tent):
    report = find_homoclinic(tent, period_bound=1, m_budget=1)
    w = report.witness
    assert w is not None
    assert w.orbit.points == (F(2, 3),)
    assert w.x == F(1, 3)
    assert w.m == 1


def test_zero_period_bound_is_refused_not_a_definitive_miss(tent):
    with pytest.raises(ConstraintViolation):
        find_homoclinic(tent, period_bound=0)
