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

from itertools import combinations

import pytest

from sawlab import SawlabError, Shape, StuntedSawtoothMap, classify
from sawlab.family import _chaosward_direction
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


def _chaosward(signs: list[int], a: tuple, b: tuple) -> bool:
    """b is at least as far chaosward as a in every height, each height's
    chaosward direction given by its sign."""
    return all(s * (y - x) >= 0 for s, x, y in zip(signs, a, b))


# 385 classified cells of the +-+- product, 291 of the two +- lines
@pytest.mark.parametrize("word, comparable", [("+-+-", 18_348), ("+-", 42_195)])
def test_both_order_rules_hold_on_every_comparable_pair(word, comparable):
    records = _records(word)
    shape = Shape.from_string(word)
    signs = [_chaosward_direction(shape.turning_kind(j)) for j in range(1, shape.d + 1)]
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
