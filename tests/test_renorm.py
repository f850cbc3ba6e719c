"""Renormalization towers, gap fixed points, odometer semiconjugacy."""

import json
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sawlab import (
    Budgets,
    ConstraintViolation,
    Ivl,
    RenormTower,
    Shape,
    StuntedSawtoothMap,
    TowerLevel,
    build_tower,
    classify,
    gap_fixed_point,
    semiconjugacy_check,
)
from sawlab.cli import main
from sawlab.rational import format_rat, to_wire
from sawlab.renorm import _first_overlap

from oracles import (
    adding_machine_step,
    contains,
    image_of_interval,
    index_word,
    interior_intersects,
    is_degenerate,
    word_index,
)

# the refined midpoint of the +- boundary bisection, Boundary2Inf(6)
BOUNDARY_W = F(
    "95517828539092709965366156137658913408328847724187486795160068823243505718061/"
    "115792089237316195423570985008687907853269984665640564039457584007913129639936"
)

_HEIGHTS = st.sampled_from(["+-", "-+", "+-+", "-+-", "+-+-"]).flatmap(
    lambda word: st.tuples(
        st.just(word), st.lists(st.integers(0, 40), min_size=len(word) - 1, max_size=len(word) - 1)
    )
)


def _thue_morse_height(L):
    """x_L = 2 * sum over i < 2^L of t_i 2^-(i+1), t the Thue-Morse sequence:
    the tent height whose critical cycle has period 2^(L-1)."""
    return 2 * sum(F(bin(i).count("1") % 2, 2 ** (i + 1)) for i in range(1 << L))


def _assert_windows_certified(m, tower):
    """Each window's first 2^n images have pairwise disjoint interiors and the
    2^n-th returns into it, and the windows nest strictly, checked here from
    the map's interval images, not from the tower's own tests."""
    f = m.map
    prev = None
    for level in tower.levels:
        q = 1 << level.n
        window = level.window
        images = [window]
        for _ in range(q):
            images.append(image_of_interval(f, images[-1]))
        for i in range(q):
            for k in range(i + 1, q):
                assert not interior_intersects(images[i], images[k])
        assert window.contains_interval(images[q])
        if prev is not None:
            assert prev.contains_interval(window) and window.length < prev.length
        prev = window


def _fraction_tower(m, max_depth):
    """The tower from the Fraction map alone: the critical cycle from
    orbit_eventually_periodic, blocks as Ivl hulls of Fractions, the overlap
    test by interior_intersects and the successor test by image_of_interval."""
    f = m.map
    rec = f.orbit_eventually_periodic(m.w[0], 1_000_000)
    levels, stop = [], None
    for n in range(1, max_depth + 1):
        q = 1 << n
        if rec.period % q:
            stop = f"cycle period {rec.period} not divisible by {q}"
            break
        blocks = [Ivl(min(rec.cycle[r::q]), max(rec.cycle[r::q])) for r in range(q)]
        pairs = combinations(range(q), 2)
        overlap = next(
            ((i, k) for i, k in pairs if interior_intersects(blocks[i], blocks[k])), None
        )
        if overlap:
            stop = f"blocks {overlap[0]} and {overlap[1]} overlap at level {n}"
            break
        successors = [blocks[word_index(adding_machine_step(index_word(r, n)))] for r in range(q)]
        images = [image_of_interval(f, b) for b in blocks]
        escape = next((r for r in range(q) if not successors[r].contains_interval(images[r])), None)
        if escape is not None:
            stop = f"image of block {escape} escapes its successor at level {n}"
            break
        # the Fraction blocks as TowerLevel holds them: numerators over one
        # common denominator of their ends
        den = lcm(*(x.denominator for b in blocks for x in (b.lo, b.hi)))
        lo, hi = ([x.numerator * (den // x.denominator) for x in side]
                  for side in ([b.lo for b in blocks], [b.hi for b in blocks]))
        levels.append(TowerLevel(n, tuple(lo), tuple(hi), den))
    return RenormTower(levels=tuple(levels), cycle_period=rec.period, stop_reason=stop)


def test_gap_fixed_point_between_cycle_blocks(stunted_tent):
    m = stunted_tent(F(4, 5))
    report = gap_fixed_point(m, build_tower(m))
    assert report.ok
    assert report.level == 1
    assert report.period == 2
    assert tuple(report.cycle) == (F(4, 5), F(2, 5))
    # the repelling fixed point 2/3 separates the two period-2 blocks
    assert report.p == F(2, 3)
    assert report.q == F(2, 3)
    assert contains(report.unstable, F(2, 3))


def test_renorm_reports_the_gap_of_a_cycle_150002_long(capsys, monkeypatch):
    # the tower walks the cycle once, and the gap report reads the tower
    walks = []
    walk = StuntedSawtoothMap.walk

    def counted(self, *args):
        walks.append(args)
        return walk(self, *args)

    monkeypatch.setattr(StuntedSawtoothMap, "walk", counted)
    assert main(["renorm", "--shape", "+-", "--w", "300005/300007"]) == 0
    assert len(walks) == 1
    out = capsys.readouterr().out
    # the gap report names the period and leaves the 150002 points out
    assert len(out.encode()) < 10_000
    payload = json.loads(out)
    assert payload["tower"]["cycle_period"] == 150002
    gap = payload["gap_fixed_point"]
    assert not gap["ok"]
    assert (gap["period"], gap["cycle"]) == (150002, None)
    assert gap["reason"] == "critical value cycle has period 150002, not 2"


def test_renorm_on_the_boundary_emits_the_tower_and_the_gap_report_alone(capsys):
    assert main(["renorm", "--shape", "+-", "--w", format_rat(BOUNDARY_W)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"tower", "gap_fixed_point"}
    assert payload["tower"]["depth"] == 6


def test_tower_stops_when_cycle_period_caps_depth(stunted_tent):
    tower = build_tower(stunted_tent(F(4, 5)))
    assert tower.cycle_period == 2
    assert len(tower.levels) == 1
    assert "not divisible by 4" in tower.stop_reason
    level = tower.levels[0]
    assert level.n == 1
    assert is_degenerate(level.window)
    assert level.window.lo == F(4, 5)
    blocks = tuple(b.lo for b in level.blocks)
    assert blocks == (F(4, 5), F(2, 5))


@pytest.mark.parametrize(
    "w, reason",
    [
        (("19/20", "7/20"), "blocks 0 and 1 overlap at level 1"),
        # the level-1 window [23/40, 33/40] returns into itself, but block 0
        # maps onto [9/40, 19/40], past block 1 = [11/40, 19/40]
        (("33/40", "9/40"), "image of block 0 escapes its successor at level 1"),
    ],
)
def test_tower_stops_on_overlapping_or_escaping_blocks(w, reason):
    m = StuntedSawtoothMap(Shape.from_string("+-+"), [F(x) for x in w])
    tower = build_tower(m)
    assert tower.cycle_period == 4
    assert tower.levels == ()
    assert tower.stop_reason == reason


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)), max_size=16))
@example([(0, 2), (1, 0), (1, 2)])  # a point block between two that overlap
@example([(0, 1), (1, 1), (1, 0), (2, 0)])  # touching blocks and points on their ends
@example([(3, 2), (3, 1)])  # two blocks from one left end
@settings(max_examples=300, deadline=None)
def test_the_sorted_overlap_test_names_the_first_pair_of_the_pairwise_scan(spans):
    lo = [a for a, _ in spans]
    hi = [a + d for a, d in spans]
    pairs = combinations(range(len(spans)), 2)
    first = next(((i, k) for i, k in pairs if max(lo[i], lo[k]) < min(hi[i], hi[k])), None)
    assert _first_overlap(lo, hi) == first


def test_tower_of_the_full_tent_is_empty(stunted_tent):
    tower = build_tower(stunted_tent(F(1)))
    assert tower.levels == ()
    assert tower.cycle_period == 1
    assert "not divisible by 2" in tower.stop_reason


def test_semiconjugacy_at_matching_depth(stunted_tent):
    m = stunted_tent(F(4, 5))
    tower = build_tower(m)
    r1 = semiconjugacy_check(tower, 1)
    assert r1.ok
    assert r1.fiber_max_points == 1
    # the report reads the level; the blocks stay in the tower
    assert set(r1.to_json()) == {
        "ok", "n", "cycle_period", "fiber_max_points", "fiber_max_length", "reason"
    }
    r2 = semiconjugacy_check(tower, 2)
    assert not r2.ok
    assert "not divisible by 4" in r2.reason
    assert r2.reason == f"tower stopped at depth 1: {tower.stop_reason}"


def test_tower_blocks_certify_the_windows_and_their_nesting():
    towers = []

    # the random draw meets few escaping blocks and few levels past the
    # first, so members with each are drawn explicitly
    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @example(case=("+-+", [29, 0]))
    @example(case=("-+-", [1, 12]))
    @example(case=("+-+-", [25, 6, 15]))
    @example(case=("+-+", [33, 11]))
    @example(case=("-+-", [4, 9]))
    @example(case=("+-+-", [24, 10, 15]))
    @given(case=_HEIGHTS)
    def check(case):
        word, ks = case
        try:
            m = StuntedSawtoothMap(Shape.from_string(word), [F(k, 40) for k in ks])
        except ConstraintViolation:
            assume(False)
        tower = build_tower(m, max_depth=8)
        assert tower == _fraction_tower(m, 8)
        _assert_windows_certified(m, tower)
        towers.append(tower)

    check()
    assert any("escapes its successor" in (t.stop_reason or "") for t in towers)
    assert any(t.depth >= 2 for t in towers)


@pytest.mark.parametrize("w", [BOUNDARY_W, *(_thue_morse_height(L) for L in range(2, 9))])
def test_tower_blocks_certify_the_windows_at_the_doubling_boundary(stunted_tent, w):
    m = stunted_tent(w)
    tower = build_tower(m, max_depth=8)
    assert tower.depth >= 1
    assert tower == _fraction_tower(m, 8)
    _assert_windows_certified(m, tower)


@pytest.mark.parametrize("w", [BOUNDARY_W, *(_thue_morse_height(L) for L in range(2, 9))])
def test_tower_json_is_the_fraction_routes_byte_for_byte(stunted_tent, w):
    # the Fraction route encodes each block's Fraction ends through to_wire
    tower, ref = build_tower(stunted_tent(w), max_depth=8), _fraction_tower(stunted_tent(w), 8)
    levels = [{"n": level.n, "blocks": to_wire(level.blocks)} for level in ref.levels]
    wire = {"levels": levels, "cycle_period": ref.cycle_period, "stop_reason": ref.stop_reason,
            "depth": ref.depth}
    assert json.dumps(tower.to_json()) == json.dumps(wire)


def test_a_tower_stays_in_integers_until_its_blocks_are_read(stunted_tent, monkeypatch):
    m = stunted_tent(BOUNDARY_W)
    made = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    tower = build_tower(m)
    text = json.dumps(tower.to_json())
    assert tower.depth == 6 and made == []
    assert not any("blocks" in vars(level) for level in tower.levels)
    # the Ivls are made on first read, once per level
    windows = [level.window for level in tower.levels]
    first = len(made)
    assert first and all("blocks" in vars(level) for level in tower.levels)
    assert [level.blocks[0] for level in tower.levels] == windows and len(made) == first
    monkeypatch.undo()
    assert text == json.dumps(_fraction_tower(m, 6).to_json())


@pytest.mark.parametrize("L", range(2, 9))
def test_thue_morse_truncations_pin_the_tower_and_the_boundary_bracket(stunted_tent, L):
    x = _thue_morse_height(L)
    p = 1 << (L - 1)
    tower = build_tower(stunted_tent(x), max_depth=12)
    assert tower.depth == L - 1
    assert tower.cycle_period == p
    assert tower.stop_reason == f"cycle period {p} not divisible by {2 * p}"
    # the cycle is 2^(L-1) long, so the last level's blocks are its points
    assert all(is_degenerate(b) for b in tower.levels[-1].blocks)
    b = Budgets(k=13, tower_depth=2, partition_budget=2**14)
    assert classify(stunted_tent(x), b).label == f"Finite({p})"
    assert classify(stunted_tent(x + F(2) ** (1 - 2**L)), b).label == "Chaotic"


def test_boundary_classify_walks_the_critical_cycle_once(stunted_tent, monkeypatch):
    m = stunted_tent(F(823, 1000))
    starts = []
    walk = StuntedSawtoothMap.walk

    def counted(self, a, *args, **kwargs):
        starts.append(F(a, self.den))
        return walk(self, a, *args, **kwargs)

    monkeypatch.setattr(StuntedSawtoothMap, "walk", counted)
    record = classify(m, Budgets(k=2, tower_depth=2))
    assert record.label == "Boundary2Inf(2)"
    # the period-set inventory reads the Markov graph; only the tower walks
    # the integers from the critical value
    assert starts.count(m.w[0]) == 1
    # the tower is the semiconjugacy: nothing restates its deepest level
    assert set(record.certificates) == {"period_set", "tower"}
    assert set(record.detail) == {"tower_depth", "max_period"}
    tower = record.certificates["tower"]
    assert tower["cycle_period"] == 4
    blocks = tower["levels"][-1]["blocks"]
    assert [b["lo"] for b in blocks] == ["823/1000", "177/500", "177/250", "73/125"]
    assert all(b["lo"] == b["hi"] for b in blocks)
