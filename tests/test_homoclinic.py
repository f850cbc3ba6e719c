"""Homoclinic witnesses and unstable manifolds."""

import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sawlab import (
    Budgets,
    ConstraintViolation,
    Ivl,
    PiecewiseLinearMap,
    Shape,
    StuntedSawtoothMap,
    classify,
    find_homoclinic,
    unstable_manifold,
)
from sawlab import homoclinic
from sawlab.markov import build_markov_system
from sawlab.orbits import periodic_orbits

import oracles
from oracles import contains, hull, image_of_interval, iterate


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
    assert contains(w.unstable, w.x)
    assert iterate(tent, w.x, w.m) == p


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


@pytest.mark.parametrize("power", [0, -5])
def test_unstable_manifold_refuses_a_power_below_one(tent, power):
    # 2/3 is fixed, so every power >= 1 is a valid question; 0 and -5 are not
    with pytest.raises(ConstraintViolation):
        unstable_manifold(tent, F(2, 3), power=power)


def test_minimal_budget_still_finds_a_one_step_witness(tent):
    report = find_homoclinic(tent, period_bound=1, m_budget=1)
    w = report.witness
    assert w is not None
    assert w.orbit.points == (F(2, 3),)
    assert w.x == F(1, 3)
    assert w.m == 1


def test_a_truncated_search_tree_is_noted_and_not_definitive():
    f = StuntedSawtoothMap(Shape.from_string("+-"), [F(9, 10)]).map
    report = find_homoclinic(f, frontier_budget=1)
    assert report.witness is None
    assert report.truncated and not report.definitive
    repelling = [
        o for _, orbits in periodic_orbits(f, 6) for o in orbits if o.stability == "repelling"
    ]
    assert report.orbits_searched == len(repelling) == 11
    # one note per truncated tree; the tree of the fixed point 0 dies out within the budget
    assert report.notes == tuple(
        f"search tree truncated at orbit through {o.points[0]}" for o in repelling[1:]
    )


def test_an_enumeration_past_the_walk_budget_is_noted_and_not_definitive():
    f = StuntedSawtoothMap(Shape.from_string("+-"), [F(9, 10)]).map
    report = find_homoclinic(f, piece_budget=1)
    assert report.witness is None
    assert (report.orbits_searched, report.truncated, report.definitive) == (0, False, False)
    assert report.notes == ("period 1 enumeration: budget exceeded: walks (limit 1, needed >= 2)",)


def test_a_truncated_search_reaches_the_chaotic_certificate():
    m = StuntedSawtoothMap(Shape.from_string("+-"), [F(9, 10)])
    record = classify(m, Budgets(homoclinic_frontier=1))
    assert record.verdict == "Chaotic"
    assert record.detail["homoclinic_found"] is False
    homo = record.certificates["homoclinic"]
    assert homo["truncated"] and not homo["definitive"]
    assert homo["orbits_searched"] == 11 and len(homo["notes"]) == 10


def test_zero_period_bound_is_refused_not_a_definitive_miss(tent):
    with pytest.raises(ConstraintViolation):
        find_homoclinic(tent, period_bound=0)


def test_unstable_set_of_a_side_folded_onto_a_plateau_is_the_point():
    # +-+- (1/10, 0, 4/5) fixes 4/5 with left slope 0 and right slope -4:
    # the right side lands on the left one, which the plateau flattens
    f = StuntedSawtoothMap(Shape.from_string("+-+-"), [F(1, 10), F(0), F(4, 5)]).map
    assert unstable_manifold(f, F(4, 5)) == Ivl(F(4, 5), F(4, 5))


def test_unstable_set_leaves_out_a_side_that_folds_onto_the_other():
    # 1/2 is fixed with slopes 2 on the left and -2 on the right: f^2 has
    # slope -4 on the right but carries it to the left, so only the left
    # cell expands, and its images stay in [0, 1/2]
    f = PiecewiseLinearMap(
        [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)], [F(1, 4), F(0), F(1, 2), F(0), F(0)]
    )
    w = unstable_manifold(f, F(1, 2))
    assert w == Ivl(F(0), F(1, 2))
    ref = _reference_unstable_hull(f, F(1, 2), 1)
    assert ref.lo == w.lo and F(1, 2) < ref.hi < F(1, 2) + _COLLAR


def test_unstable_set_ignores_images_of_a_wide_seed():
    # +- at 1697/2000, the period-5 orbit through 20/33: a neighbourhood of
    # radius 2^-8 images onto [303/1000, 1697/2000]; the unstable set is smaller
    f = StuntedSawtoothMap(Shape.from_string("+-"), [F(1697, 2000)]).map
    expected = Ivl(F(303, 500), F(76, 125))
    assert unstable_manifold(f, F(20, 33), power=5) == expected
    assert _reference_unstable_hull(f, F(20, 33), 5) == expected


_RADIUS = F(1, 1 << 40)
# a side that does not expand leaves a collar of (slope x radius) around q in
# the reference hull; every partition cell of the k/20 maps below is at
# least 1/80 wide, so a collar can never pass for a cell
_COLLAR = F(1, 1 << 20)


def _reference_unstable_hull(f, q, n, radius=_RADIUS):
    """Union of the images of [q - radius, q + radius] under f^n, imaged until its hull stops changing.

    Every image contains q, so the union is an interval; it is the unstable
    set of q plus, on a side that does not expand, a collar that shrinks
    with the radius.
    """
    span = Ivl(max(F(0), q - radius), min(F(1), q + radius))
    while True:
        image = span
        for _ in range(n):
            image = image_of_interval(f, image)
        grown = hull(span, image)
        if grown == span:
            return span
        span = grown


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(["+-", "+-+", "+-+-"]).flatmap(
        lambda word: st.tuples(
            st.just(word),
            st.lists(st.integers(0, 20), min_size=len(word) - 1, max_size=len(word) - 1),
        )
    )
)
@example(case=("+-+-", [2, 0, 16]))  # the plateau-folded fixed point 4/5
@example(case=("+-+", [18, 0]))  # one-sided period-4 points whose set is not a point
def test_unstable_sets_match_the_imaged_neighbourhood(case):
    word, heights = case
    try:
        f = StuntedSawtoothMap(Shape.from_string(word), [F(h, 20) for h in heights]).map
    except ConstraintViolation:
        assume(False)
    for n, orbits in periodic_orbits(f, 4):
        for orb in orbits:
            for q in orb.points:
                w = unstable_manifold(f, q, power=n)
                ref = _reference_unstable_hull(f, q, n)
                assert ref.contains_interval(w), (word, heights, q)
                assert w.lo == ref.lo or (w.lo == q and q - ref.lo < _COLLAR), (word, heights, q)
                assert w.hi == ref.hi or (w.hi == q and ref.hi - q < _COLLAR), (word, heights, q)


# the defaults, a shorter sweep, and a tree cut at depth 2 or at four nodes
_SEARCH_BUDGETS = [{}, {"period_bound": 3, "m_budget": 12, "frontier_budget": 300},
                   {"m_budget": 2, "frontier_budget": 4}]


def _report_json(f, reference):
    """find_homoclinic's reports under each budget, with the Fraction
    reference tree in place of the integer one when reference is set."""
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(homoclinic, "_search_orbit", oracles.search_orbit)
        return [json.dumps(find_homoclinic(f, **b).to_json(), sort_keys=True) for b in _SEARCH_BUDGETS]


def _member(word, nums, den):
    try:
        return StuntedSawtoothMap(Shape.from_string(word), [F(k, den) for k in nums]).map
    except ConstraintViolation:
        return None


def test_integer_tree_reports_what_the_fraction_tree_reports_on_the_k10_grid():
    maps = (_member("+-+-", ks, 10) for ks in itertools.product(range(11), repeat=3))
    maps = [f for f in maps if f is not None]
    witnesses = 0
    for f in maps:
        new = _report_json(f, reference=False)
        assert new == _report_json(f, reference=True), f.to_json()
        witnesses += '"witness": null' not in new[0]
    # the grid holds both sides of the boundary of chaos
    assert 0 < witnesses < len(maps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(["+-", "+-+", "+-+-"]).flatmap(
        lambda word: st.tuples(
            st.just(word),
            st.lists(st.integers(0, 20), min_size=len(word) - 1, max_size=len(word) - 1),
        )
    )
)
@example(case=("+-+-", [10, 0, 2]))  # the tree meets a flat preimage; witness 1/8
def test_integer_tree_reports_what_the_fraction_tree_reports(case):
    f = _member(*case, 20)
    assume(f is not None)
    assert _report_json(f, reference=False) == _report_json(f, reference=True)


def test_the_search_reads_each_orbit_node_off_its_integers(scan_members):
    # every repelling orbit of period <= 4 on the Chaotic scan members: the
    # nodes taken from (nums, q) are the nodes of the orbit's Fractions
    chaotic = searched = 0
    for f in scan_members:
        sys = build_markov_system(f, 4096)
        if not sys.recurrence.branching:
            continue
        chaotic += 1
        for _, orbits in periodic_orbits(f, 4):
            for orb in orbits:
                if orb.stability == "repelling":
                    searched += 1
                    nodes = homoclinic._orbit_nodes(orb, sys.den)
                    assert nodes == homoclinic._nodes(orb.points, sys.den), orb
    assert (chaotic, searched) == (361, 5004)


def test_an_isolated_preimage_on_a_plateau_waits_for_the_plateau():
    # +-+- (4/5, 7/10, 19/20) fixes 4/5 and sends the plateau [1/5, 3/10] to
    # it; the falling lap's preimage 3/10 is the plateau's end, so it is
    # dropped from the isolated preimages and comes back with the plateau's
    # clipped ends, after them: the rising lap's 7/10 is met first
    f = StuntedSawtoothMap(Shape.from_string("+-+-"), [F(4, 5), F(7, 10), F(19, 20)]).map
    w = find_homoclinic(f).witness
    assert (w.orbit.points, w.m, w.x) == ((F(4, 5),), 1, F(7, 10))
    assert w.unstable == Ivl(F(1, 5), F(19, 20))
    assert _report_json(f, reference=False) == _report_json(f, reference=True)
