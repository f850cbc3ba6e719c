"""Kneading data, itinerary order, itinerary cylinders and realization."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sawlab import (
    ConstraintViolation,
    KneadingData,
    KneadingNotRealizable,
    PiecewiseLinearMap,
    Shape,
    StuntedSawtoothMap,
    compare_kneading,
    doubling_word,
    itinerary_cylinder,
    kneading_data,
    realize_kneading,
)
from sawlab import kneading as kneading_module

import oracles
from test_renorm import _thue_morse_height


def test_tent_kneading_row(tent_shape):
    kd = kneading_data(StuntedSawtoothMap(tent_shape, [F(1)]), 3)
    # orbit of the critical value: 1 -> 0 -> 0, against the degenerate
    # plateau at 1/2
    assert kd.row(1) == ((1,), (-1,), (-1,))
    assert kd.row_ranks(1) == (2, 0, 0)


def test_plateau_membership_reads_zero(stunted_tent):
    kd = kneading_data(stunted_tent(F(1, 2)), 2)
    # w = 1/2 lies inside its own plateau [1/4, 3/4]
    assert kd.row(1)[0] == (0,)


def test_kneading_depth_and_json_round_trip(stunted_tent):
    kd = kneading_data(stunted_tent(F(4, 5)), 6)
    assert kd.depth == 6
    payload = kd.to_json()
    assert payload["shape"] == "+-"
    assert payload["depth"] == 6
    assert len(payload["signs"]) == 1 and len(payload["signs"][0]) == 6


def test_comparison_follows_height_order(stunted_tent):
    a = kneading_data(stunted_tent(F(3, 5)), 8)
    b = kneading_data(stunted_tent(F(4, 5)), 8)
    assert compare_kneading(a, b) == -1
    assert compare_kneading(b, a) == 1
    assert compare_kneading(a, a) == 0


def test_comparison_is_a_total_preorder_on_a_grid(tent_shape):
    data = [kneading_data(StuntedSawtoothMap(tent_shape, [F(k, 16)]), 6) for k in range(17)]
    for i in range(len(data) - 1):
        assert compare_kneading(data[i], data[i + 1]) <= 0


def test_mirror_conjugacy_flips_signs(tent_shape):
    kd = kneading_data(StuntedSawtoothMap(tent_shape, [F(4, 5)]), 6)
    mirrored = kneading_data(
        StuntedSawtoothMap(tent_shape.mirrored(), [F(1, 5)]), 6
    )
    flipped = tuple(
        tuple(tuple(-s for s in step) for step in row) for row in kd.signs
    )
    assert mirrored.signs == flipped


def test_realization_round_trip_unimodal(stunted_tent):
    target = kneading_data(stunted_tent(F(4, 5)), 8)
    w = realize_kneading(target, 8, F(1, 10**9))
    reproduced = kneading_data(stunted_tent(w[0]), 8)
    assert reproduced.signs == target.signs


def test_realization_round_trip_bimodal():
    shape = Shape.from_string("+-+")
    m = StuntedSawtoothMap(shape, [F(41, 64), F(5, 64)])
    target = kneading_data(m, 12)
    w = realize_kneading(target, 12, F(1, 10**12))
    reproduced = kneading_data(StuntedSawtoothMap(shape, list(w)), 12)
    assert reproduced.signs == target.signs


def test_realization_of_shallow_prefix():
    shape = Shape.from_string("-+-")
    m = StuntedSawtoothMap(shape, [F(41, 64), F(7, 8)])
    target = kneading_data(m, 10)
    w = realize_kneading(target, 4)
    reproduced = kneading_data(StuntedSawtoothMap(shape, list(w)), 4)
    assert reproduced.signs == tuple(row[:4] for row in target.signs)


def test_unrealizable_target_raises(tent_shape):
    # a sign table that starts below the plateau band but claims to stay
    # constant afterwards contradicts every admissible height
    base = kneading_data(StuntedSawtoothMap(tent_shape, [F(1)]), 3)
    fake = type(base)(shape=tent_shape, depth=3, signs=(((1,), (1,), (-1,)),))
    with pytest.raises(KneadingNotRealizable):
        realize_kneading(fake, 3)


def test_depth_bounds_validated(stunted_tent):
    target = kneading_data(stunted_tent(F(4, 5)), 4)
    with pytest.raises(ConstraintViolation):
        realize_kneading(target, 9)
    with pytest.raises(ConstraintViolation):
        realize_kneading(target, 4, F(0))


def test_kneading_evaluates_no_fraction_map(monkeypatch):
    def refuse(self, x):
        raise AssertionError("the Fraction map was evaluated")

    monkeypatch.setattr(PiecewiseLinearMap, "__call__", refuse)
    shape = Shape.from_string("+-+")
    target = kneading_data(StuntedSawtoothMap(shape, [F(41, 64), F(5, 64)]), 12)
    w = realize_kneading(target, 12, F(1, 10**12))
    assert kneading_data(StuntedSawtoothMap(shape, list(w)), 12).signs == target.signs


# shape, heights and the heights realize_kneading(target, 12) returns
# for their depth-12 kneading data, on the 20 maps of acceptance criterion 8
REALIZED_CRITERION_8 = (
    ("+-", ("9/32",), ("0",)),
    ("+-", ("17/32",), ("0",)),
    ("+-+", ("1", "1/32"), ("1", "5741/183709")),
    ("-+-", ("5/64", "1/4"), ("1/36", "1/4")),
    ("+-+", ("1/2", "1/32"), ("1/2", "1/54")),
    ("+-+", ("41/64", "5/64"), ("9/13", "1/13")),
    ("+-", ("45/64",), ("4/5",)),
    ("+-+", ("21/32", "11/64"), ("89/123", "7/41")),
    ("-+", ("27/32",), ("1/3",)),
    ("+-+", ("43/64", "23/64"), ("3/4", "1/4")),
    ("+-", ("45/64",), ("4/5",)),
    ("-+-", ("41/64", "7/8"), ("17/26", "25/26")),
    ("-+-", ("3/32", "5/16"), ("1/26", "9/26")),
    ("-+-", ("49/64", "27/32"), ("31/40", "39/40")),
    ("-+-", ("17/32", "41/64"), ("11/20", "3/4")),
    ("-+", ("7/32",), ("1/5",)),
    ("-+-", ("43/64", "53/64"), ("17/26", "25/26")),
    ("+-+", ("31/32", "0"), ("177968/183709", "0")),
    ("+-+", ("63/64", "17/64"), ("10593509/10761660", "35291/132860")),
    ("-+-", ("1/32", "63/64"), ("5741/183708", "48052403555/48815073468")),
)


def _criterion_8_targets():
    for word, w, realized in REALIZED_CRITERION_8:
        shape = Shape.from_string(word)
        yield shape, kneading_data(StuntedSawtoothMap(shape, [F(x) for x in w]), 12), realized


def test_realized_heights_on_the_criterion_8_targets_are_pinned():
    for shape, target, realized in _criterion_8_targets():
        heights = tuple(F(x) for x in realized)
        assert realize_kneading(target, 12, F(1, 10**12)) == heights
        assert kneading_data(StuntedSawtoothMap(shape, heights), 12).signs == target.signs
        # a vertex of the realization polytope, so the denominators are
        # those of one small integer solve
        assert all(x.denominator.bit_length() < 64 for x in heights)


def test_realizing_the_criterion_8_targets_builds_few_maps(monkeypatch):
    # one member per target, for the final check
    built = []
    init = StuntedSawtoothMap.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    targets = [target for _, target, _ in _criterion_8_targets()]
    monkeypatch.setattr(StuntedSawtoothMap, "__init__", counted)
    for target in targets:
        realize_kneading(target, 12)
    assert len(built) <= len(targets)


def test_tol_is_not_read():
    for _, target, _ in _criterion_8_targets():
        coarse = realize_kneading(target, 12, F(1, 10**3))
        assert coarse == realize_kneading(target, 12, F(1, 10**12))


@pytest.mark.parametrize(
    "word, w, depth",
    [
        # parameter cells narrower than 1e-12, which the bisection reported
        # as not realizable to depths 41 and 27
        ("+-", ("99912345/100000000",), 45),
        ("+-+", ("99912345/100000000", "123457/100000000"), 30),
    ],
)
def test_deep_targets_realize(word, w, depth):
    shape = Shape.from_string(word)
    target = kneading_data(StuntedSawtoothMap(shape, [F(x) for x in w]), depth)
    heights = realize_kneading(target)
    assert kneading_data(StuntedSawtoothMap(shape, heights), depth).signs == target.signs
    # a vertex: its denominators do not compound with the depth
    assert all(x.denominator.bit_length() < 128 for x in heights)


def test_every_trimodal_k_over_10_member_realizes_its_own_data():
    # some need heights to move together: on +-+- (3/5, 1/5, 3/10) rows 1
    # and 3 need w_3 >= 4w_1 - 2 and w_3 <= (2 - w_1)/4
    realized = 0
    for word in ("+-+-", "-+-+"):
        shape = Shape.from_string(word)
        for ks in product(range(11), repeat=3):
            try:
                m = StuntedSawtoothMap(shape, [F(k, 10) for k in ks])
            except ConstraintViolation:
                continue
            target = kneading_data(m, 10)
            heights = realize_kneading(target)
            assert kneading_data(StuntedSawtoothMap(shape, heights), 10).signs == target.signs
            realized += 1
    assert realized == 770


def test_realization_refuses_exactly_the_empty_rank_tables():
    # on +- and -+ the line w(t) = t is the whole parameter space, so its
    # cylinder is empty exactly when no height has the ranks
    signs = {0: (-1,), 1: (0,), 2: (1,)}
    realizable = 0
    for word in ("+-", "-+"):
        shape = Shape.from_string(word)
        for depth in range(1, 7):
            for ranks in product(range(3), repeat=depth):
                target = KneadingData(shape, depth, (tuple(signs[r] for r in ranks),))
                empty = itinerary_cylinder(shape, [0], [1], 1, ranks) is None
                # the solve itself refuses, not only the final check
                forms = kneading_module._conditions(shape, [(1, ranks)])
                assert (kneading_module._max_slack(1, forms) is None) == empty
                if empty:
                    with pytest.raises(KneadingNotRealizable):
                        realize_kneading(target)
                    continue
                heights = realize_kneading(target)
                assert kneading_data(StuntedSawtoothMap(shape, heights), depth).signs == target.signs
                realizable += 1
    assert realizable == 110


def test_itinerary_cylinder_on_the_tent():
    tent = Shape.from_string("+-")
    # the empty prefix is the admissible range
    c = itinerary_cylinder(tent, [F(4, 5)], [1], 1, ())
    assert (c.lo, c.hi, c.lo_closed, c.hi_closed) == (F(-4, 5), F(1, 5), True, True)
    # w right of its plateau [w/2, 1 - w/2] is w > 2/3; then 2 - 2w lies on it
    # for w <= 4/5
    c = itinerary_cylinder(tent, [0], [1], 1, (2, 1))
    assert (c.lo, c.hi, c.lo_closed, c.hi_closed) == (F(2, 3), F(4, 5), False, True)
    assert itinerary_cylinder(tent, [0], [1], 1, (2, 2)) is None
    # w = 1 alone reaches the point plateau at 1/2 on the second step
    c = itinerary_cylinder(tent, [0], [1], 1, (2, 0))
    assert (c.lo, c.hi, c.lo_closed, c.hi_closed) == (F(4, 5), F(1), False, True)


def test_itinerary_cylinder_refuses_bad_input():
    tent = Shape.from_string("+-")
    with pytest.raises(ConstraintViolation):
        itinerary_cylinder(tent, [F(1, 2)], [0], 1, (2,))
    with pytest.raises(ConstraintViolation):
        itinerary_cylinder(tent, [F(1, 2)], [1], 2, (2,))
    with pytest.raises(ConstraintViolation):
        itinerary_cylinder(tent, [F(1, 2)], [1], 1.0, (2,))
    with pytest.raises(ConstraintViolation):
        itinerary_cylinder(tent, [F(1, 2)], [1], 1, (3,))
    with pytest.raises(ConstraintViolation):
        itinerary_cylinder(tent, [F(1, 2), F(1, 3)], [1], 1, (2,))


def _probe(shape, w0, v, orbit, t, depth) -> tuple[int, ...] | None:
    """The ranks of w0 + t·v, walked on its own integers; None when it is
    not admissible."""
    try:
        m = StuntedSawtoothMap(shape, [a + t * b for a, b in zip(w0, v)])
    except ConstraintViolation:
        return None
    return m.ranks(m.heights[orbit - 1], depth)


@st.composite
def _lines(draw):
    shape = Shape.from_string(draw(st.sampled_from(["+-", "-+", "+-+", "-+-", "+-+-"])))
    d = shape.d
    w = [F(draw(st.integers(0, 200)), 200) for _ in range(d)]
    i = draw(st.integers(1, d))
    v = [F(int(j == i)) for j in range(1, d + 1)]
    if d > 1 and draw(st.booleans()):
        j = draw(st.sampled_from([j for j in range(1, d + 1) if j != i]))
        v[j - 1] = F(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.integers(1, 4)))
    return shape, w, v, draw(st.integers(1, d)), draw(st.integers(1, 14))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_lines())
def test_itinerary_cylinder_ends_agree_with_probes(line):
    shape, w, v, orbit, depth = line
    try:
        m = StuntedSawtoothMap(shape, w)
    except ConstraintViolation:
        assume(False)
    ranks = m.ranks(m.heights[orbit - 1], depth)
    c = itinerary_cylinder(shape, w, v, orbit, ranks)
    assert c.lo <= 0 <= c.hi
    for k in range(1, 8):
        assert _probe(shape, w, v, orbit, c.lo + (c.hi - c.lo) * k / 8, depth) == ranks
    eps = F(1, 10**30)
    for end, closed, inward in ((c.lo, c.lo_closed, 1), (c.hi, c.hi_closed, -1)):
        outside = _probe(shape, w, v, orbit, end - inward * eps, depth)
        assert outside != ranks
        at_end = _probe(shape, w, v, orbit, end, depth)
        assert (at_end == ranks) == closed


@st.composite
def _rank_words(draw):
    """A +-+, -+- or +-+- line through heights in [0, 1], admissible or not,
    and a rank word whose first `cut` letters are a member's own ranks, for
    half of the admissible members all of them."""
    word = draw(st.sampled_from(["+-+", "-+-", "+-+-"]))
    shape = Shape.from_string(word)
    d = shape.d
    w0 = [F(draw(st.integers(0, 200)), 200) for _ in range(d)]
    v = [F(draw(st.integers(-6, 6)), draw(st.integers(1, 4))) for _ in range(d)]
    assume(any(v))
    orbit = draw(st.integers(1, d))
    ranks = draw(st.lists(st.integers(0, 2 * d), max_size=24))
    try:
        m = StuntedSawtoothMap(shape, w0)
    except ConstraintViolation:
        return word, w0, v, orbit, ranks
    cut = len(ranks) if draw(st.booleans()) else draw(st.integers(0, len(ranks)))
    ranks[:cut] = m.ranks(m.heights[orbit - 1], cut) if cut else ()
    return word, w0, v, orbit, ranks


def test_an_itinerary_cylinder_is_the_set_that_every_form_gives():
    cells = []

    # the random draw meets few point cells, so two are drawn explicitly
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(case=("+-+", [F(3, 5), F(1, 5)], [F(1), F(0)], 1, [3, 1] * 4))
    @example(case=("+-+-", [F(1, 10), F(0), F(1, 2)], [F(0), F(0), F(1)], 3, [3] + [0] * 7))
    @given(case=_rank_words())
    def check(case):
        word, w0, v, orbit, ranks = case
        shape = Shape.from_string(word)
        cell = itinerary_cylinder(shape, w0, v, orbit, ranks)
        assert cell == oracles.itinerary_cylinder_by_every_form(shape, w0, v, orbit, ranks)
        cells.append(cell)

    check()
    # empty cells, points, and intervals with an open end all occur
    assert any(c is None for c in cells)
    assert any(c is not None and c.lo == c.hi for c in cells)
    assert any(c is not None and c.lo < c.hi and not (c.lo_closed and c.hi_closed) for c in cells)


def _feigenbaum_word(level):
    """theta^level(R) for the period-doubling substitution R -> RL, L -> RR."""
    word = "R"
    for _ in range(level):
        word = "".join({"R": "RL", "L": "RR"}[c] for c in word)
    return word


@pytest.mark.parametrize("level", range(1, 9))
def test_tent_doubling_words_are_the_period_doubling_substitution(tent_shape, level):
    # R is the gap right of the plateau (rank 2), L the gap left of it (rank
    # 0), and the last letter is the plateau hit that closes the cycle
    expected = (*({"R": 2, "L": 0}[c] for c in _feigenbaum_word(level)[:-1]), 1)
    assert doubling_word(tent_shape, 2, level) == expected
    # the mirrored tent: x -> 1 - x swaps the two gaps
    assert doubling_word(tent_shape.mirrored(), 0, level) == tuple(2 - r for r in expected)


def test_tent_doubling_cells_hold_the_thue_morse_heights_and_tile_the_cascade(tent_shape):
    cells = [
        itinerary_cylinder(tent_shape, [0], [1], 1, doubling_word(tent_shape, 2, level))
        for level in range(1, 9)
    ]
    for level, cell in enumerate(cells, start=1):
        # x_{L+1} is the tent height whose critical cycle has period 2^L
        assert _thue_morse_height(level + 1) in cell
    for cell, deeper in zip(cells, cells[1:]):
        assert cell.hi == deeper.lo and cell.hi_closed != deeper.lo_closed


def test_the_alternating_gap_spells_the_parity_products_doubling_words():
    # par(A·x·A) = par(x) = -par(A): on every shape of up to four laps, from
    # every first rank, the alternating gap gives the words the product of
    # the parities over the whole word gives
    for word in ("+-", "-+", "+-+", "-+-", "+-+-", "-+-+"):
        shape = Shape.from_string(word)
        for first in range(2 * shape.d + 1):
            for level in range(1, 15):
                expected = oracles.doubling_word_by_parity_product(shape, first, level)
                assert doubling_word(shape, first, level) == expected, (word, first, level)


def test_a_doubling_word_needs_a_level_of_at_least_1(tent_shape):
    with pytest.raises(ConstraintViolation):
        doubling_word(tent_shape, 2, 0)
