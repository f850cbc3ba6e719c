"""The family's order: a chaosward step never lowers entropy or undoes chaos.

The entropy of a stunted sawtooth map S_w is monotone in each height
(Milnor and Tresser, "On entropy and monotonicity for real cubic maps",
Comm. Math. Phys. 209, 2000): it does not fall as a maximum plateau rises or
a minimum plateau falls (family._chaosward_direction). S_w' equals S_w off
the plateaus of S_w, so every orbit of S_w that avoids them is an orbit of
S_w'. So for two classified cells a and b, b at least as far chaosward as a
in every height, a's entropy `lower` is at most b's `upper`, and when a is
Chaotic, b is neither Finite nor Boundary2Inf. No single record can show a
violation of either rule; every comparable pair of cells can.
"""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sawlab import (
    BudgetExceeded,
    Budgets,
    ConstraintViolation,
    SawlabError,
    Shape,
    StuntedSawtoothMap,
    classify,
    entropy_lap,
)
from sawlab.family import _chaosward_direction
from sawlab.markov import build_markov_system
from sawlab.scan import ScanConfig

# the grids of the benchmark's scan workload and the wire snapshot's tent line
GRIDS = {
    "+-+-": [{"kind": "product", "axes": [[f"{k}/10" for k in range(11)]] * 3}],
    "+-": [
        {"kind": "line", "start": ["4/5"], "stop": ["17/20"], "steps": 201},
        {"kind": "line", "start": ["1/2"], "stop": ["1"], "steps": 101},
    ],
}


def _records(word: str) -> dict:
    """Every classified cell of the word's grids, by heights."""
    cells = set()
    for grid in GRIDS[word]:
        output = {"csv": "grid.csv", "manifest": "grid.jsonl"}  # parsed, never opened
        cells.update(ScanConfig.from_json({"shape": word, "grid": grid, "output": output}).cells)
    shape = Shape.from_string(word)
    records = {}
    for w in sorted(cells):
        try:
            records[w] = classify(StuntedSawtoothMap(shape, list(w)))
        except SawlabError:  # a Skipped or Error row has no record
            continue
    return records


def _signs(shape: Shape) -> list[int]:
    """Each height's chaosward direction: +1 at a max, -1 at a min."""
    return [_chaosward_direction(shape.turning_kind(j)) for j in range(1, shape.d + 1)]


def _chaosward(signs: list[int], a: tuple, b: tuple) -> bool:
    """b is at least as far chaosward as a in every height, each height's
    chaosward direction given by its sign."""
    return all(s * (y - x) >= 0 for s, x, y in zip(signs, a, b))


# 385 classified cells of the +-+- product, 291 of the two +- lines
@pytest.mark.parametrize("word, comparable", [("+-+-", 18_348), ("+-", 42_195)])
def test_both_order_rules_hold_on_every_comparable_pair(word, comparable):
    records = _records(word)
    shape = Shape.from_string(word)
    signs = _signs(shape)
    pairs, broken = 0, []
    for u, v in combinations(records, 2):
        for a, b in ((u, v), (v, u)):
            if not _chaosward(signs, a, b):
                continue
            pairs += 1
            ra, rb = records[a], records[b]
            if ra.entropy.lower > rb.entropy.upper:
                broken.append(("entropy", a, b, ra.entropy.lower, rb.entropy.upper))
            if ra.verdict == "Chaotic" and rb.verdict in ("Finite", "Boundary2Inf"):
                broken.append(("verdict", a, b, ra.label, rb.label))
    assert pairs == comparable
    assert broken == []


def _fractions(draw, d: int) -> F:
    """A number in [0, 1] over a large denominator: up to 1000 times a
    power of d + 1, which the laps' slope divides out, or of 2, as at the
    ends of a bisected bracket."""
    den = draw(st.integers(1, 1000)) * draw(st.sampled_from([d + 1, 2])) ** draw(st.integers(0, 30))
    return F(draw(st.integers(0, den)), den)


@st.composite
def _chaosward_pairs(draw):
    """A shape of up to 4 laps, heights a and a random chaosward step b of
    them: each height moves some part of its room toward its extreme."""
    word = draw(st.sampled_from(["+-", "-+", "+-+", "-+-", "+-+-", "-+-+"]))
    shape = Shape.from_string(word)
    a = [_fractions(draw, shape.d) for _ in range(shape.d)]
    b = [
        h + s * (1 - h if s > 0 else h) * _fractions(draw, shape.d)
        for s, h in zip(_signs(shape), a)
    ]
    return word, tuple(a), tuple(b)


# the Boundary2Inf(6) midpoint of the +- bracket 4/5 .. 9/10 bisected to
# 1e-9 and refined to level 8, and its Chaotic flank
BOUNDARY_W = F(
    "95517828539092709965366156137658913408328847724187486795160068823243505718061/"
    "115792089237316195423570985008687907853269984665640564039457584007913129639936"
)
CHAOTIC_FLANK = F(
    "238794571347731774913415390344147283520822119310468716987900172058108764295153/"
    "289480223093290488558927462521719769633174961664101410098643960019782824099840"
)


# the default partition budget, 4,096 points
POINTS = Budgets().partition_budget


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(case=_chaosward_pairs())
@example(case=("+-", (F(4, 5),), (BOUNDARY_W,)))
@example(case=("+-", (BOUNDARY_W,), (CHAOTIC_FLANK,)))
def test_both_order_rules_hold_on_a_random_chaosward_step(case):
    word, wa, wb = case
    shape = Shape.from_string(word)
    try:
        a = StuntedSawtoothMap(shape, wa)
    except ConstraintViolation:
        assume(False)
    b = StuntedSawtoothMap(shape, wb)  # a chaosward step keeps the lap order
    assert _chaosward(_signs(shape), wa, wb)
    try:
        for m in (a, b):
            build_markov_system(m.map, POINTS)
    except BudgetExceeded:
        assume(False)
    budgets = Budgets(partition_budget=POINTS)
    ra, rb = classify(a, budgets), classify(b, budgets)
    assert ra.entropy.lower <= rb.entropy.upper, (ra.entropy, rb.entropy)
    la, lb = entropy_lap(a.map), entropy_lap(b.map)
    assert la.lower <= lb.upper, (la, lb)
    assert not (ra.verdict == "Chaotic" and rb.verdict in ("Finite", "Boundary2Inf")), (ra, rb)
