"""The Markov graph on its integer lattice against a Fraction reference closure."""

import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sawlab import (
    ConstraintViolation,
    PiecewiseLinearMap,
    Shape,
    StructureError,
    StuntedSawtoothMap,
    entropy_markov,
    spectral_radius,
)
from sawlab.markov import _combinatorics, build_markov_system, recurrent_classes

# the refined midpoint of the +- boundary bisection, Boundary2Inf(6); its
# denominator has 78 digits
BOUNDARY_W = F(
    "95517828539092709965366156137658913408328847724187486795160068823243505718061/"
    "115792089237316195423570985008687907853269984665640564039457584007913129639936"
)


def _reference_graph(f):
    """Close the breakpoints under f in Fraction arithmetic, evaluating f at
    every point, and read the cells, branches and transitions off f."""
    pts = set(f.breakpoints)
    frontier = list(pts)
    while frontier:
        frontier = [q for q in {f(p) for p in frontier} if q not in pts]
        pts.update(frontier)
    points = tuple(sorted(pts))
    image = tuple(points.index(f(p)) for p in points)
    cells = list(zip(points, points[1:]))
    slopes = tuple(f.right_slope(lo) for lo, _ in cells)
    nonflat = tuple(i for i, s in enumerate(slopes) if s != 0)
    branches = tuple((slopes[i], f(cells[i][0]) - slopes[i] * cells[i][0]) for i in nonflat)
    # nonflat cell a leads to nonflat cell b when f(a) covers b
    adj = np.zeros((len(nonflat), len(nonflat)), dtype=np.int64)
    for a, i in enumerate(nonflat):
        lo, hi = sorted((f(cells[i][0]), f(cells[i][1])))
        for b, j in enumerate(nonflat):
            adj[a, b] = lo <= cells[j][0] and cells[j][1] <= hi
    return points, image, slopes, nonflat, branches, adj


def _assert_matches_reference(f):
    build_markov_system.cache_clear()
    sys = build_markov_system(f, 4096)
    points, image, slopes, nonflat, branches, adj = _reference_graph(f)
    assert sys.points == points
    assert all(type(p) is F for p in sys.points)
    assert tuple(F(a, sys.den) for a in sys.nums) == points
    assert sys.image == image
    assert sys.slopes == slopes
    assert sys.nonflat == nonflat
    assert tuple((s, F(t, sys.den)) for s, t in sys.branches) == branches
    # each row is 1 on one run of columns, and the recorded ranges rebuild it
    assert len(sys.successors) == len(nonflat)
    from_runs = np.zeros_like(adj)
    for a, run in enumerate(sys.successors):
        assert type(run) is range and run.step == 1
        assert 0 <= run.start <= run.stop <= len(nonflat)
        from_runs[a, run.start : run.stop] = 1
    assert np.array_equal(from_runs, adj)
    assert sys.recurrence == recurrent_classes([np.flatnonzero(row).tolist() for row in adj])


_HEIGHTS = st.sampled_from(["+-", "-+", "+-+", "-+-", "+-+-"]).flatmap(
    lambda word: st.tuples(
        st.just(word), st.lists(st.integers(0, 40), min_size=len(word) - 1, max_size=len(word) - 1)
    )
)


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(case=_HEIGHTS)
@example(case=("+-+-", [40, 0, 40]))
@example(case=("+-+", [12, 4]))
def test_lattice_graph_matches_the_fraction_closure(case):
    word, ks = case
    try:
        m = StuntedSawtoothMap(Shape.from_string(word), [F(k, 40) for k in ks])
    except ConstraintViolation:
        assume(False)
    _assert_matches_reference(m.map)


@pytest.mark.parametrize(
    "word, ks",
    [("+-", [33]), ("-+", [7]), ("+-+", [28, 12]), ("-+-", [10, 30]), ("+-+-", [40, 2, 40])],
)
def test_lattice_graph_of_a_second_iterate_matches_the_fraction_closure(word, ks):
    m = StuntedSawtoothMap(Shape.from_string(word), [F(k, 40) for k in ks])
    _assert_matches_reference(m.map.compose_self(2))


def test_lattice_graph_at_the_boundary_midpoint_matches_the_fraction_closure():
    m = StuntedSawtoothMap(Shape.from_string("+-"), [BOUNDARY_W])
    _assert_matches_reference(m.map)


def test_lattice_graph_of_a_hand_built_map_matches_the_fraction_closure():
    # slopes -1, 2, -2, 0: not a stunted sawtooth
    f = PiecewiseLinearMap(
        [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)], [F(1, 4), F(0), F(1, 2), F(0), F(0)]
    )
    _assert_matches_reference(f)


def _thue_morse_height(L):
    """x_L = 2 * sum over i < 2^L of t_i 2^-(i+1), t the Thue-Morse sequence:
    the tent height whose critical cycle has period 2^(L-1)."""
    return 2 * sum(F(bin(i).count("1") % 2, 2 ** (i + 1)) for i in range(1 << L))


def test_a_deep_zero_entropy_member_builds_no_dense_matrix():
    # x_12 has 2,052 partition points; a k x k int64 matrix over its nonflat
    # cells would take 32 MiB, its successor ranges take a few
    f = StuntedSawtoothMap(Shape.from_string("+-"), [_thue_morse_height(12)]).map
    build_markov_system.cache_clear()
    tracemalloc.start()
    try:
        sys = build_markov_system(f, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sys.points) == 2052
    assert not sys.recurrence.branching
    assert peak < 12 * 2**20


def test_a_non_integer_slope_is_refused():
    # flat on [0, 1/2], slope 1/2 on [1/2, 1]: the Fraction closure {0, 1/4,
    # 1/2, 1} is finite, but no lattice (1/den)Z is mapped into itself
    f = PiecewiseLinearMap([F(0), F(1, 2), F(1)], [F(0), F(0), F(1, 4)])
    build_markov_system.cache_clear()
    with pytest.raises(StructureError):
        build_markov_system(f, 4096)


def test_the_graph_cache_is_keyed_by_position_only():
    # a keyword call would key a second cache entry and build the graph again
    f = StuntedSawtoothMap(Shape.from_string("+-"), [F(4, 5)]).map
    build_markov_system.cache_clear()
    sys = build_markov_system(f, 4096)
    with pytest.raises(TypeError):
        build_markov_system(f, point_budget=4096)
    with pytest.raises(TypeError):
        build_markov_system(f=f)
    # the refused calls built nothing, and the entry is still there
    assert build_markov_system(f, 4096) is sys


def test_maps_of_one_combinatorial_type_share_their_classes_and_bracket():
    # two chaotic tents whose graphs have equal successor runs: the second
    # graph's classes and bracket are the first one's entry, not a recount
    tent = Shape.from_string("+-")
    f, g = (StuntedSawtoothMap(tent, [w]).map for w in (F(83, 100), F(207, 250)))
    build_markov_system.cache_clear()
    _combinatorics.cache_clear()
    sf = build_markov_system(f, 4096)
    hf = entropy_markov(f)
    sg = build_markov_system(g, 4096)
    assert sf.nums != sg.nums and sf.successors == sg.successors
    assert sg.recurrence is sf.recurrence and sg.recurrence.branching
    assert sg.combinatorics.bracket == sf.combinatorics.bracket
    rho, diag = spectral_radius(sf.successors, recurrent_classes(sf.successors))
    assert sf.combinatorics.bracket == (rho, {**diag, "class_periods": tuple(diag["class_periods"])})
    assert entropy_markov(g).parameters == hf.parameters
    assert _combinatorics.cache_info().misses == 1


def test_a_shared_bracket_hands_out_nothing_a_caller_can_mutate():
    f = StuntedSawtoothMap(Shape.from_string("+-"), [F(83, 100)]).map
    _, diag = build_markov_system(f, 4096).combinatorics.bracket
    with pytest.raises(TypeError):
        diag["rho_lower"] = F(0)
    assert type(diag["class_periods"]) is tuple
    est = entropy_markov(f)
    est.parameters["class_periods"].append(99)
    assert entropy_markov(f).to_json() != est.to_json()
    assert entropy_markov(f).parameters["class_periods"] == list(diag["class_periods"])
