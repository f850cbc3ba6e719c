"""The one JSON encoder: each rule and each to_json override."""

from fractions import Fraction as F

import pytest

from sawlab import (
    Budgets,
    PlateauSelection,
    ScanSummary,
    Shape,
    StuntedSawtoothMap,
    BudgetExceeded,
    bisect_boundary,
    build_tower,
    classify,
    gap_fixed_point,
    kneading_data,
    period_set,
)
from sawlab import explore
from sawlab.rational import Wire, to_wire


def test_fractions_carry_an_explicit_denominator():
    assert to_wire((F(0), F(2), F(3, 4))) == ["0/1", "2/1", "3/4"]


def test_period_set_sorts_sets_and_strings_int_keys(stunted_tent):
    payload = period_set(stunted_tent(1).map, 10).to_json()
    assert payload["periods"] == list(range(1, 11))
    assert sorted(payload["representatives"], key=int) == [str(n) for n in range(1, 11)]
    payload = period_set(stunted_tent(F(823, 1000)).map, 4).to_json()
    assert payload["representatives"]["1"] == {
        "points": ["0/1"],
        "period": 1,
        "stability": "repelling",
    }
    assert payload["stop_witness"] is None


def test_plateau_selection_sorts_its_indices():
    # built at run time: 1, 9, 17 share a hash slot, so inserted in this order
    # they iterate 17, 9, 1. A set display would be folded into a frozenset
    # constant, which a cached .pyc reloads in another order.
    indices = frozenset([17, 9, 1])
    assert list(indices) != sorted(indices)
    selection = PlateauSelection(indices, F(1, 100))
    assert selection.to_json() == {"indices": [1, 9, 17], "delta": "1/100"}


def test_none_passes_through(stunted_tent):
    m = stunted_tent(F(3, 5))
    report = gap_fixed_point(m, build_tower(m))
    payload = report.to_json()
    assert payload["p"] is None and payload["q"] is None and payload["unstable"] is None
    # the critical value 3/5 is fixed: a period-1 cycle has no gap to report
    assert payload["period"] == 1 and payload["cycle"] is None


def test_kneading_shape_goes_on_the_wire_as_its_word():
    m = StuntedSawtoothMap(Shape.from_string("+-+"), [F(9, 10), F(1, 10)])
    payload = kneading_data(m, 2).to_json()
    assert payload["shape"] == "+-+"
    # w_1 = 9/10 lies right of both plateaus and maps onto the edge 7/10 of
    # the second; w_2 = 1/10 lies left of both and maps onto the first
    assert payload["signs"] == [[[1, 1], [1, 0]], [[-1, -1], [0, -1]]]


def test_overrides_add_their_derived_keys(stunted_tent, tent_shape):
    tower = build_tower(stunted_tent(F(4, 5))).to_json()
    assert tower["depth"] == len(tower["levels"]) == 1
    assert tower["levels"][0]["blocks"] == [{"lo": "4/5", "hi": "4/5"}, {"lo": "2/5", "hi": "2/5"}]
    bracket = bisect_boundary(tent_shape, [F(4, 5)], [F(9, 10)], F(1, 10)).to_json()
    assert (bracket["width"], bracket["width_float"]) == ("1/10", 0.1)
    assert bracket["lo_record"]["w"] == ["4/5"]


def test_scan_summary_names_its_paths_without_the_suffix():
    summary = ScanSummary(2, 1, 1, {"Finite": 2}, "g.csv", "g.jsonl", None)
    assert summary.to_json() == {
        "cells": 2,
        "computed": 1,
        "resumed": 1,
        "verdict_counts": {"Finite": 2},
        "csv": "g.csv",
        "manifest": "g.jsonl",
        "certificates": None,
    }


def _tent(p, q):
    return StuntedSawtoothMap(Shape.from_string("+-"), [F(p, q)])


def _period_structure_stopped(monkeypatch):
    # no budget stops the zero-entropy period structure once the entropy
    # stage has built the same graph, so the stage is made to run out
    def spent(f, point_budget):
        raise BudgetExceeded("partition", point_budget)

    monkeypatch.setattr(explore, "complete_period_set", spent)
    return classify(_tent(823, 1000))


# one record of each kind, built from the tent at 823/1000 (period 4) or 33/40
RECORDS = {
    "Finite(4)": lambda mp: classify(_tent(823, 1000)),
    "Boundary2Inf(2)": lambda mp: classify(_tent(823, 1000), Budgets(k=2, tower_depth=2)),
    "Chaotic": lambda mp: classify(_tent(33, 40)),
    "Inconclusive entropy": lambda mp: classify(_tent(33, 40), Budgets(partition_budget=1)),
    "Inconclusive period_structure": _period_structure_stopped,
    "Inconclusive tower steps": lambda mp: classify(_tent(823, 1000), Budgets(k=2, step_budget=3)),
    "Inconclusive tower depth": lambda mp: classify(_tent(823, 1000), Budgets(k=2, tower_depth=3)),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_a_record_encodes_as_its_fields_do(kind, monkeypatch):
    record = RECORDS[kind](monkeypatch)
    assert record.label == kind.split()[0]
    stage = kind.split()[1] if " " in kind else None
    assert record.detail.get("stage") == stage
    # detail and certificates hold wire values already: to_wire changes nothing
    assert to_wire(record.detail) == record.detail
    assert to_wire(record.certificates) == record.certificates
    # the shallow encoder agrees with the generic field-by-field one
    assert record.to_json() == Wire.to_json(record)
