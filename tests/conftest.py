import itertools
from fractions import Fraction

import pytest

from sawlab import ConstraintViolation, Shape, StuntedSawtoothMap


@pytest.fixture
def tent_shape():
    return Shape.from_string("+-")


@pytest.fixture
def tent(tent_shape):
    """Full tent map as the w = 1 member of the stunted family."""
    return StuntedSawtoothMap(tent_shape, [Fraction(1)]).map


@pytest.fixture
def stunted_tent(tent_shape):
    def make(w):
        return StuntedSawtoothMap(tent_shape, [Fraction(w)])

    return make


@pytest.fixture(scope="session")
def scan_members():
    """Every admissible member of the benchmark scan workload's grids, as
    maps: the +-+- k/10 product and the +- line 4/5 -> 17/20 in 200 steps."""
    tenths = [Fraction(k, 10) for k in range(11)]
    grids = (
        ("+-+-", itertools.product(tenths, repeat=3)),
        ("+-", ((Fraction(4, 5) + Fraction(k, 4000),) for k in range(201))),
    )
    members = []
    for word, heights in grids:
        shape = Shape.from_string(word)
        for w in heights:
            try:
                members.append(StuntedSawtoothMap(shape, w).map)
            except ConstraintViolation:
                continue
    return members
