"""Classification verdicts and boundary bracketing."""

import itertools
import json
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache

import pytest

from sawlab import (
    Budgets,
    ConstraintViolation,
    Ivl,
    PiecewiseLinearMap,
    Shape,
    StuntedSawtoothMap,
    bisect_boundary,
    classify,
    refine_to_boundary,
    two_sided_perturbation_experiment,
)
from sawlab import explore
from sawlab.entropy import EntropyEstimate
from sawlab.markov import _combinatorics, build_markov_system

import oracles


def test_finite_verdicts_track_the_doubling_cascade(stunted_tent):
    expected = {
        F(3, 5): "Finite(1)",
        F(4, 5): "Finite(2)",
        F(823, 1000): "Finite(4)",
        F(212, 257): "Finite(8)",
    }
    for w, label in expected.items():
        record = classify(stunted_tent(w))
        assert record.verdict == "Finite"
        assert record.label == label


def test_chaotic_verdict_carries_certificates(stunted_tent):
    record = classify(stunted_tent(F(33, 40)))
    assert record.verdict == "Chaotic"
    assert record.entropy.value > 0.17
    assert isinstance(record.entropy, EntropyEstimate)
    assert record.certificates
    assert record.detail


def test_chaotic_classify_builds_one_graph_under_its_partition_budget():
    # the entropy stage, the period sweep and the homoclinic search all read
    # the graph built under Budgets.partition_budget
    m = StuntedSawtoothMap(Shape.from_string("+-+-"), (F(1, 2), F(0), F(9, 10)))
    build_markov_system.cache_clear()
    record = classify(m, Budgets(partition_budget=8192))
    assert record.verdict == "Chaotic"
    assert build_markov_system.cache_info().misses == 1


def test_record_round_trips_to_json(stunted_tent):
    record = classify(stunted_tent(F(4, 5)))
    payload = record.to_json()
    assert payload["verdict"] == "Finite"
    assert payload["label"] == "Finite(2)"
    assert payload["w"] == ["4/5"]


def test_bracketing_the_chaos_boundary(tent_shape):
    bracket = bisect_boundary(tent_shape, [F(4, 5)], [F(9, 10)], F(1, 10**4))
    assert bracket.width <= F(1, 10**4)
    assert bracket.lo_record.verdict == "Finite"
    assert bracket.hi_record.verdict == "Chaotic"
    assert bracket.lo_w[0] < bracket.midpoint_w[0] < bracket.hi_w[0]
    # the cascade accumulates near 0.8249
    mid = float(bracket.midpoint_w[0])
    assert 0.8248 < mid < 0.8250


def test_bisect_requires_straddling_verdicts(tent_shape):
    with pytest.raises(ConstraintViolation):
        bisect_boundary(tent_shape, [F(3, 5)], [F(4, 5)], F(1, 100))


def test_bisection_probes_read_the_sign_from_the_markov_graph(tent_shape, monkeypatch):
    # the probes run no eigensolver: entropy_markov runs only in the two
    # flank classifies, and the bracket is the one a threshold on the entropy
    # value gives
    calls = []
    entropy_markov = explore.entropy_markov

    def counted(f, point_budget=4096):
        calls.append(f)
        return entropy_markov(f, point_budget)

    monkeypatch.setattr(explore, "entropy_markov", counted)
    bracket = bisect_boundary(tent_shape, [F(4, 5)], [F(9, 10)], F(1, 10**4))
    assert len(calls) == 2
    assert (bracket.lo_w, bracket.hi_w) == ((F(8447, 10240),), (F(33, 40),))
    assert bracket.iterations == 10
    assert (bracket.lo_record.label, bracket.hi_record.label) == ("Finite(8)", "Chaotic")


def test_refinement_deepens_the_midpoint_verdict(tent_shape):
    bracket = bisect_boundary(tent_shape, [F(4, 5)], [F(9, 10)], F(1, 10**4))
    refined = refine_to_boundary(bracket, target_level=4)
    assert refined.level >= 4
    assert refined.record.verdict == "Boundary2Inf"


def test_a_target_level_below_k_classifies_only_at_level_k(tent_shape, monkeypatch):
    # below level k = 8 a midpoint classifies as Finite, so the refinement
    # classifies only the level-8 midpoint and the two final bracket ends
    bracket = bisect_boundary(tent_shape, [F(4, 5)], [F(9, 10)], F(1, 10**4))
    at_k = refine_to_boundary(bracket, target_level=8)
    calls = []
    counted = explore.classify

    def counting(m, *args):
        calls.append(m.w)
        return counted(m, *args)

    monkeypatch.setattr(explore, "classify", counting)
    assert refine_to_boundary(bracket, target_level=4) == at_k
    assert len(calls) == 3


def test_perturbation_experiment_refuses_off_boundary_base(stunted_tent):
    with pytest.raises(ConstraintViolation):
        two_sided_perturbation_experiment(stunted_tent(F(4, 5)))


def test_perturbation_experiment_refuses_an_empty_list_of_sizes(stunted_tent, monkeypatch):
    # a Boundary2Inf base: with no trial the experiment would read ok
    m = stunted_tent(F(REFINED_MIDPOINTS["+-"]))

    def refuse(*args, **kwargs):
        raise AssertionError("the empty experiment classified its base")

    monkeypatch.setattr(explore, "classify", refuse)
    with pytest.raises(ConstraintViolation, match="at least one perturbation size"):
        two_sided_perturbation_experiment(m, eps_values=())


@pytest.mark.parametrize("k", [1, 2])
def test_perturbation_experiment_refuses_k_below_3_before_classifying(stunted_tent, monkeypatch, k):
    # the base is certified at k: the accumulation window 3 .. min(6, k) is empty
    m = stunted_tent(F(REFINED_MIDPOINTS["+-"]))
    assert classify(m, Budgets(k=k)).label == "Boundary2Inf(6)"

    def refuse(*args, **kwargs):
        raise AssertionError("the experiment classified its base")

    monkeypatch.setattr(explore, "classify", refuse)
    with pytest.raises(ConstraintViolation, match=f"needs k >= 3, got k = {k}"):
        two_sided_perturbation_experiment(m, budgets=Budgets(k=k))


def test_budgets_round_trip_and_take_only_known_int_budgets():
    b = Budgets.from_json({"k": 3})
    assert b.k == 3
    assert Budgets.from_json(b.to_json()) == b
    for bad in (
        {"k": True},
        {"piece_budget": 1.5},
        {"k": None},
        [],
        {"entropy_tol": 1e-9},
        {"k": float("inf")},
    ):
        with pytest.raises(ConstraintViolation):
            Budgets.from_json(bad)


def test_budget_resolution_bounds_finite_labels(stunted_tent):
    shallow = Budgets.from_json({"k": 1})
    record = classify(stunted_tent(F(823, 1000)), shallow)
    # period 4 exceeds the 2^1 resolution, so the shallow run cannot
    # certify Finite(4)
    assert record.label != "Finite(4)"


def test_a_step_budget_spent_in_the_tower_is_an_inconclusive_record(stunted_tent):
    record = classify(stunted_tent(F(823, 1000)), Budgets(k=2, step_budget=3))
    assert record.verdict == "Inconclusive"
    assert record.detail == {"stage": "tower", "max_period": 4}
    assert record.notes == ("budget exceeded: steps (limit 3)",)
    assert record.entropy.value == 0.0
    assert record.certificates == {}


def test_a_huge_resolution_builds_no_power_of_two(stunted_tent):
    m = stunted_tent(F(4, 5))
    classify(m)  # the Markov graph is cached after this
    tracemalloc.start()
    try:
        record = classify(m, Budgets(k=10**8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.label == "Finite(2)"
    assert peak < 2**20  # 2^k alone would take 12 MB


# refined midpoints of the benchmark's boundary pipelines: bisect to width
# 1e-9, then refine to level 8
REFINED_MIDPOINTS = {
    "+-": "95517828539092709965366156137658913408328847724187486795160068823243505718061/"
    "115792089237316195423570985008687907853269984665640564039457584007913129639936",
    "-+": "20274260698223485458204828871028994444941136941453077244297515184669623921875/"
    "115792089237316195423570985008687907853269984665640564039457584007913129639936",
}


@pytest.mark.parametrize("word, lo, hi", [("+-", "4/5", "9/10"), ("-+", "1/5", "1/10")])
def test_refine_on_the_benchmark_brackets_is_pinned(word, lo, hi, monkeypatch):
    bracket = bisect_boundary(Shape.from_string(word), [F(lo)], [F(hi)], F(1, 10**9))

    def refuse(self, x, max_steps=0):
        raise AssertionError("the probe walked the Fraction map")

    # the probe and the tower walk the integers of the member
    monkeypatch.setattr(PiecewiseLinearMap, "orbit_eventually_periodic", refuse)
    refined = refine_to_boundary(bracket, target_level=8)
    assert refined.bracket.midpoint_w == (F(REFINED_MIDPOINTS[word]),)
    assert (refined.level, refined.extra_iterations) == (8, 228)
    assert refined.record.label == "Boundary2Inf(6)"


@pytest.mark.parametrize(
    "word, w, verdict",
    [
        ("+-", ["823/1000"], "Finite"),
        ("+-", ["33/40"], "Chaotic"),
        ("+-", [REFINED_MIDPOINTS["+-"]], "Boundary2Inf"),
        ("+-+-", ["1", "1/20", "1"], "Chaotic"),
        # the homoclinic tree meets a flat preimage; the witness is 1/8
        ("+-+-", ["1/2", "0", "1/10"], "Chaotic"),
    ],
)
def test_classify_evaluates_no_fraction_map(word, w, verdict, monkeypatch):
    m = StuntedSawtoothMap(Shape.from_string(word), [F(x) for x in w])
    build_markov_system.cache_clear()
    expected = json.dumps(classify(m).to_json(), sort_keys=True)
    build_markov_system.cache_clear()

    def refuse(self, *args):
        raise AssertionError("classify evaluated the Fraction map")

    # the graph, the orbits read off it and the tower never call back into f,
    # the tower walks the critical cycle and tests overlaps and successors on
    # integers, and the homoclinic tree inverts the branches on integers; the
    # Fraction inverse and interval routes are gone from the package
    for name in ("__call__", "left_slope", "right_slope", "orbit_eventually_periodic"):
        monkeypatch.setattr(PiecewiseLinearMap, name, refuse)
    assert not hasattr(PiecewiseLinearMap, "preimages_of_point")
    assert not hasattr(PiecewiseLinearMap, "image_of_interval")
    assert not hasattr(Ivl, "interior_intersects")
    record = classify(m)
    assert record.verdict == verdict
    assert json.dumps(record.to_json(), sort_keys=True) == expected


# the parameter lines of the refinement's parity test, low end to high end
PARITY_LINES = {
    "+-": (["4/5"], ["9/10"]),
    "-+": (["1/5"], ["1/10"]),
    "+-+": (["4/5", "1/5"], ["9/10", "1/10"]),
    "-+-": (["1/5", "4/5"], ["1/10", "9/10"]),
}


@lru_cache(maxsize=None)
def _parity_bracket(word, width):
    lo, hi = PARITY_LINES[word]
    return bisect_boundary(Shape.from_string(word), [F(x) for x in lo], [F(x) for x in hi], width)


def _dump(refined):
    return json.dumps(refined.to_json(), sort_keys=True)


@pytest.mark.parametrize("width", [F(1, 10**4), F(1, 10**9)])
@pytest.mark.parametrize("word", PARITY_LINES)
def test_the_solved_cell_point_is_the_point_the_bisection_reaches(word, width, monkeypatch):
    bracket = _parity_bracket(word, width)
    # both routes certify the points they reach with classify, a function of
    # the member and the budgets: each is classified once
    @lru_cache(maxsize=None)
    def certified(shape, w, b):
        return classify(StuntedSawtoothMap(shape, w), b)

    for module in (explore, oracles):
        monkeypatch.setattr(module, "classify", lambda m, b: certified(m.shape, m.w, b))
    for budgets, target in ((None, None), (None, 9), (Budgets(k=4, tower_depth=4), 5)):
        solved = refine_to_boundary(bracket, budgets, target)
        assert _dump(solved) == _dump(oracles.refine_by_bisection(bracket, budgets, target))


def test_refine_walks_no_orbit_but_the_certified_tower(monkeypatch):
    bracket = _parity_bracket("+-", F(1, 10**9))
    starts = []
    walk = StuntedSawtoothMap.walk

    def counted(self, a, *args, **kwargs):
        starts.append(F(a, self.den))
        return walk(self, a, *args, **kwargs)

    # the bisection walked the critical orbit of each of its 228 midpoints;
    # the solve walks only the critical cycle the certified point's tower reads
    monkeypatch.setattr(StuntedSawtoothMap, "walk", counted)
    refined = refine_to_boundary(bracket, target_level=8)
    assert starts == [refined.bracket.midpoint_w[0]]


@pytest.mark.parametrize("word", ["+-+", "-+-"])
def test_refine_solves_the_bimodal_lines_the_bisection_could_not_finish(word):
    # bisected to width 1/10 only; the bisection ran past 60 s here without
    # an answer
    bracket = _parity_bracket(word, F(1, 10))
    refined = refine_to_boundary(bracket)
    assert (refined.level, refined.extra_iterations) == (8, 404)
    assert refined.record.label == "Boundary2Inf(6)"


def test_refine_takes_the_point_of_the_first_cell_not_the_first_deep_midpoint():
    # at k = 3 the bisection stops at the first midpoint of level 3 or more,
    # a level-4 point after 5 halvings; the solve takes the level-3 cell's
    # point, 9 halvings in; both are certified
    bracket = _parity_bracket("+-", F(1, 10**4))
    b = Budgets(k=3, tower_depth=3)
    solved = refine_to_boundary(bracket, b, 3)
    bisected = oracles.refine_by_bisection(bracket, b, 3)
    assert (solved.level, solved.extra_iterations) == (3, 9)
    assert (bisected.level, bisected.extra_iterations) == (4, 5)
    assert solved.record.label == bisected.record.label == "Boundary2Inf(3)"


@pytest.mark.parametrize("lo", ["1/2", "3/5"])
def test_refine_reads_the_first_rank_at_the_high_end_past_a_level_0_low_end(tent_shape, lo):
    # w_1 sits on its plateau at the low end, a fixed point: the doubling
    # words start at the rank of w_1 on the high end
    bracket = bisect_boundary(tent_shape, [F(lo)], [F(9, 10)], F(1, 2))
    assert bracket.iterations == 0
    solved = refine_to_boundary(bracket)
    assert solved.level == 8
    assert _dump(solved) == _dump(oracles.refine_by_bisection(bracket))


def _scan_grid_records(cold: bool) -> list[str]:
    """classify JSON on the +-+- k/10 grid and the +- line 4/5 -> 17/20 in
    201 steps; cold clears the graph and combinatorics caches before each map."""
    cells = [("+-+-", w) for w in itertools.product([F(k, 10) for k in range(11)], repeat=3)]
    cells += [("+-", (F(4, 5) + k * F(1, 4000),)) for k in range(201)]
    texts = []
    for word, w in cells:
        try:
            m = StuntedSawtoothMap(Shape.from_string(word), w)
        except ConstraintViolation:
            continue
        if cold:
            build_markov_system.cache_clear()
            _combinatorics.cache_clear()
        texts.append(json.dumps(classify(m).to_json(), sort_keys=True))
    return texts


def test_classify_json_is_the_same_with_the_combinatorics_cache_cold_or_warm():
    cold = _scan_grid_records(cold=True)
    assert len(cold) == 586
    assert _scan_grid_records(cold=False) == cold
    # every graph type now has its entry, its bracket included
    assert _scan_grid_records(cold=False) == cold
