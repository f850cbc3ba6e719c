"""Renormalization towers, gap fixed points, odometer semiconjugacy."""

from fractions import Fraction as F

from sawlab import (
    Budgets,
    OrbitKernel,
    build_tower,
    check_renormalization,
    classify,
    gap_fixed_point,
    semiconjugacy_check,
    verify_window,
)


def test_gap_fixed_point_between_cycle_blocks(stunted_tent):
    report = gap_fixed_point(stunted_tent(F(4, 5)))
    assert report.ok
    assert report.level == 1
    assert tuple(report.cycle) == (F(4, 5), F(2, 5))
    # the repelling fixed point 2/3 separates the two period-2 blocks
    assert report.p == F(2, 3)
    assert report.q == F(2, 3)
    assert report.unstable.contains(F(2, 3))


def test_tower_stops_when_cycle_period_caps_depth(stunted_tent):
    tower = build_tower(stunted_tent(F(4, 5)))
    assert tower.cycle_period == 2
    assert len(tower.levels) == 1
    assert "not divisible by 4" in tower.stop_reason
    level = tower.levels[0]
    assert level.n == 1
    assert level.window.is_degenerate
    assert level.window.lo == F(4, 5)
    blocks = tuple(b.lo for b in level.blocks)
    assert blocks == (F(4, 5), F(2, 5))


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
    assert r1.permutation_ok
    r2 = semiconjugacy_check(tower, 2)
    assert not r2.ok
    assert "not divisible by 4" in r2.reason
    assert r2.reason == f"tower stopped at depth 1: {tower.stop_reason}"


def test_window_verification_on_the_period_two_level(stunted_tent):
    m = stunted_tent(F(4, 5))
    level = build_tower(m).levels[0]
    f = m.map
    assert verify_window(f, level.window, 2, piece_budget=10000)
    chk = check_renormalization(f, level.window, 2)
    assert chk.ok
    assert chk.period == 2


def test_boundary_classify_walks_the_critical_cycle_once(stunted_tent, monkeypatch):
    m = stunted_tent(F(823, 1000))
    starts = []
    walk = OrbitKernel.walk

    def counted(self, a, *args, **kwargs):
        starts.append(F(a, self.den))
        return walk(self, a, *args, **kwargs)

    monkeypatch.setattr(OrbitKernel, "walk", counted)
    record = classify(m, Budgets(k=2, tower_depth=2))
    assert record.label == "Boundary2Inf(2)"
    # the period-set inventory reads the Markov graph; only the tower walks
    # the kernel from the critical value
    assert starts.count(m.w[0]) == 1
    semi = record.certificates["semiconjugacy"]
    assert semi["ok"] and semi["permutation_ok"]
    assert semi["cycle_period"] == 4
    assert semi["fiber_max_points"] == 1
    assert [b["lo"] for b in semi["blocks"]] == ["823/1000", "177/500", "177/250", "73/125"]
    assert all(b["lo"] == b["hi"] for b in semi["blocks"])
