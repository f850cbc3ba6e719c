"""Stunted sawtooth family: construction, plateaus, height perturbations."""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sawlab import (
    Budgets,
    ConstraintViolation,
    Ivl,
    PiecewiseLinearMap,
    Plateau,
    Shape,
    StuntedSawtoothMap,
    bisect_boundary,
    build_sawtooth,
    kneading_data,
    perturb_toward_chaos,
    perturb_toward_order,
    realize_kneading,
    refine_to_boundary,
    validate_heights,
)

import oracles


def test_full_sawtooth_slopes_and_turning_points(tent_shape):
    f = build_sawtooth(tent_shape)
    assert f(F(1, 2)) == 1
    assert f.right_slope(F(0)) == 2
    assert f.left_slope(F(1)) == -2

    g = build_sawtooth(Shape.from_string("+-+"))
    assert g.right_slope(F(0)) == 3
    assert g(F(1, 3)) == 1 and g(F(2, 3)) == 0


def test_plateau_interval_at_three_fifths(stunted_tent):
    m = stunted_tent(F(3, 5))
    plat = m.plateaus[0]
    assert plat.interval.lo == F(3, 10) and plat.interval.hi == F(7, 10)
    assert plat.height == F(3, 5)
    assert plat.kind == "max"


def test_min_plateau_width_scales_with_height():
    m = StuntedSawtoothMap(Shape.from_string("+-+"), [F(1), F(1, 3)])
    valley = m.plateaus[1]
    assert valley.kind == "min"
    # halfwidth w/(d+1) = 1/9 around the turning point 2/3
    assert valley.interval.lo == F(5, 9) and valley.interval.hi == F(7, 9)


def test_adjacent_height_order_enforced():
    shape = Shape.from_string("+-+")
    with pytest.raises(ConstraintViolation):
        validate_heights(shape, (F(1, 4), F(1, 2)))
    with pytest.raises(ConstraintViolation):
        StuntedSawtoothMap(shape, [F(1, 4), F(1, 2)])
    # equality is rejected too: the constraint is strict
    with pytest.raises(ConstraintViolation):
        validate_heights(shape, (F(1, 2), F(1, 2)))


def test_heights_outside_unit_interval_rejected(tent_shape):
    with pytest.raises(ConstraintViolation):
        StuntedSawtoothMap(tent_shape, [F(6, 5)])


@pytest.mark.parametrize(
    "word, w, message",
    [
        ("+-+", (F(1, 3),), "need 2 heights, got 1"),
        ("+-+", (F(1, 3), F(1, 2), F(1, 4)), "need 2 heights, got 3"),
        ("+-+", (F(4, 3), F(1, 2)), "height w_1 = 4/3 outside [0, 1]"),
        ("-+-", (F(1, 6), F(-1, 4)), "height w_2 = -1/4 outside [0, 1]"),
        # 2/6 is 1/3: equal heights break the strict order
        ("+-+", (F(1, 3), F(2, 6)),
         "heights must satisfy (w_1 - w_2) * s_2 < 0; got w_1 = 1/3, w_2 = 1/3"),
        ("+-+", (F(1, 2), F(2, 3)),
         "heights must satisfy (w_1 - w_2) * s_2 < 0; got w_1 = 1/2, w_2 = 2/3"),
        ("+-+-", (F(1, 2), F(1, 5), F(1, 7)),
         "heights must satisfy (w_2 - w_3) * s_3 < 0; got w_2 = 1/5, w_3 = 1/7"),
    ],
)
def test_each_refusal_names_its_heights(word, w, message):
    shape = Shape.from_string(word)
    for check in (validate_heights, oracles.validate_heights):
        with pytest.raises(ConstraintViolation) as refused:
            check(shape, w)
        assert str(refused.value) == message
    with pytest.raises(ConstraintViolation) as refused:
        StuntedSawtoothMap(shape, w)
    assert str(refused.value) == message


def test_admissible_heights_come_back_over_one_denominator():
    shape = Shape.from_string("+-+")
    assert validate_heights(shape, (F(2, 3), F(1, 2))) == (6, (4, 3))
    m = StuntedSawtoothMap(shape, (F(2, 3), F(1, 2)))
    assert (m.den, m.heights) == (6, (4, 3))


@st.composite
def _shapes_and_heights(draw):
    """A shape and d heights over small mixed denominators, some outside
    [0, 1] and many equal to a neighbour."""
    word = draw(st.sampled_from(["+-", "-+", "+-+", "-+-", "+-+-", "-+-+-"]))
    height = st.fractions(min_value=F(-1, 4), max_value=F(5, 4), max_denominator=12)
    return word, draw(st.lists(height, min_size=len(word) - 1, max_size=len(word) - 1))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_shapes_and_heights())
def test_integer_admissibility_refuses_where_fractions_do(case):
    word, w = case
    shape = Shape.from_string(word)
    w = tuple(w)
    try:
        oracles.validate_heights(shape, w)
        expected = None
    except ConstraintViolation as e:
        expected = str(e)
    try:
        den, heights = validate_heights(shape, w)
        got = None
    except ConstraintViolation as e:
        got = str(e)
    assert got == expected
    if got is None:
        assert all(F(h, den) == x for h, x in zip(heights, w))


def test_perturbations_move_heights_by_eps(stunted_tent):
    m = stunted_tent(F(3, 5))
    assert perturb_toward_chaos(m, F(1, 100)).w == (F(61, 100),)
    assert perturb_toward_order(m, F(1, 100)).w == (F(59, 100),)


def test_two_sided_perturbation_bimodal():
    m = StuntedSawtoothMap(Shape.from_string("+-+"), [F(7, 10), F(3, 10)])
    up = perturb_toward_chaos(m, F(1, 50))
    down = perturb_toward_order(m, F(1, 50))
    # maxes rise and mins fall toward chaos; the reverse toward order
    assert up.w == (F(18, 25), F(7, 25))
    assert down.w == (F(17, 25), F(8, 25))


def test_perturbation_clamps_at_unit_bounds(stunted_tent):
    # near the top there is little room; the move shrinks to half of it
    m = stunted_tent(F(999, 1000))
    assert perturb_toward_chaos(m, F(1, 100)).w == (F(1999, 2000),)


def test_shape_round_trip_and_mirror():
    s = Shape.from_string("-+-")
    assert s.to_string() == "-+-"
    assert s.mirrored().to_string() == "+-+"
    assert s.d == 2
    assert s.turning_kind(1) == "min" and s.turning_kind(2) == "max"
    assert s.turning_point(1) == F(1, 3)


def test_family_json_round_trip(stunted_tent):
    m = stunted_tent(F(4, 5))
    again = StuntedSawtoothMap.from_json(m.to_json())
    assert again.shape.to_string() == "+-" and again.w == m.w


def _fraction_member(shape, w):
    """The plateaus and the map of S_w from the Fraction plateau geometry,
    the map through the validating constructor."""
    n = shape.d + 1
    plateaus = []
    for i, wi in enumerate(w, start=1):
        kind = shape.turning_kind(i)
        half = (1 - wi) / n if kind == "max" else wi / n
        plateaus.append(Plateau(i, kind, Ivl(F(i, n) - half, F(i, n) + half), wi))
    y0 = F(0) if shape.signs[0] > 0 else F(1)
    y_end = y0 if n % 2 == 0 else 1 - y0
    corners = [(F(0), y0)]
    for p in plateaus:
        corners += [(p.interval.lo, p.height), (p.interval.hi, p.height)]
    corners.append((F(1), y_end))
    bps, vals = [], []
    for b, v in corners:
        # a point plateau, or a plateau reaching 0 or 1, repeats a breakpoint
        if bps and b == bps[-1]:
            assert v == vals[-1]
            continue
        bps.append(b)
        vals.append(v)
    return tuple(plateaus), PiecewiseLinearMap(bps, vals)


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
@example(case=("-+-", [0, 40]))
@example(case=("+-+-", [40, 0, 40]))
# a plateau covering [0, 1]: the map is constant
@example(case=("+-", [0]))
@example(case=("-+", [40]))
def test_the_map_and_plateaus_read_off_the_integers_match_the_fraction_geometry(case):
    word, ks = case
    shape = Shape.from_string(word)
    w = tuple(F(k, 40) for k in ks)
    try:
        m = StuntedSawtoothMap(shape, w)
    except ConstraintViolation:
        assume(False)
    plateaus, f = _fraction_member(shape, w)
    assert m.plateaus == plateaus
    assert m.map == f
    assert m.map.slopes == f.slopes


def test_the_orbit_probes_build_no_fraction_map(tent_shape, monkeypatch):
    bimodal = StuntedSawtoothMap(Shape.from_string("+-+"), [F(41, 64), F(5, 64)])
    bracket = bisect_boundary(tent_shape, [F(4, 5)], [F(9, 10)], F(1, 10**4))
    builds = []
    merge = PiecewiseLinearMap._merge_collinear

    def counted(self, *args):
        builds.append(self)
        return merge(self, *args)

    monkeypatch.setattr(PiecewiseLinearMap, "_merge_collinear", counted)
    target = kneading_data(bimodal, 12)
    realize_kneading(target)
    assert builds == []
    # one map for each classify: the certified midpoint and the two flanks
    refined = refine_to_boundary(bracket, Budgets(k=4, tower_depth=4))
    assert refined.record.label == "Boundary2Inf(4)"
    assert len(builds) == 3
