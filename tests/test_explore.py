"""Classification verdicts and boundary bracketing."""

import json
import tracemalloc
from fractions import Fraction as F

import pytest

from sawlab import (
    Budgets,
    ConstraintViolation,
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
from sawlab.markov import build_markov_system


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


def test_perturbation_experiment_refuses_off_boundary_base(stunted_tent):
    with pytest.raises(ConstraintViolation):
        two_sided_perturbation_experiment(stunted_tent(F(4, 5)))


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

    # the probe and the tower walk the integer kernel
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
    ],
)
def test_classify_evaluates_no_fraction_map(word, w, verdict, monkeypatch):
    m = StuntedSawtoothMap(Shape.from_string(word), [F(x) for x in w])
    build_markov_system.cache_clear()
    expected = json.dumps(classify(m).to_json(), sort_keys=True)
    build_markov_system.cache_clear()

    def refuse(self, *args):
        raise AssertionError("classify evaluated the Fraction map")

    # the graph, the orbits read off it and the tower never call back into f
    for name in ("__call__", "left_slope", "right_slope"):
        monkeypatch.setattr(PiecewiseLinearMap, name, refuse)
    record = classify(m)
    assert record.verdict == verdict
    assert json.dumps(record.to_json(), sort_keys=True) == expected
