"""Topological entropy estimators: Markov, lap growth, separated orbits."""

import itertools
import math
from fractions import Fraction as F

import mpmath
import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sawlab import (
    ConstraintViolation,
    Shape,
    StuntedSawtoothMap,
    build_sawtooth,
    entropy_lap,
    entropy_markov,
    spectral_radius,
)
from sawlab.entropy import entropy_bowen


def test_tent_markov_entropy_is_log_two(tent):
    est = entropy_markov(tent)
    assert abs(est.value - math.log(2)) < 1e-12
    assert est.lower <= est.value <= est.upper


def test_quarter_log_two_at_thirty_three_fortieths(stunted_tent):
    # the critical orbit closes after 4 steps and the induced Markov graph
    # has one branching class with growth 2^(1/4)
    est = entropy_markov(stunted_tent(F(33, 40)).map)
    assert abs(est.value - math.log(2) / 4) < 1e-12


def test_zero_entropy_windows_are_exact(stunted_tent):
    for w in (F(1, 2), F(2, 3), F(4, 5), F(212, 257)):
        assert entropy_markov(stunted_tent(w).map).value == 0.0


def test_bare_cycle_graphs_bypass_float_spectra(stunted_tent):
    # eigenvalue noise at 1e-9 scale must not leak into a zero verdict
    est = entropy_markov(stunted_tent(F(212, 257)).map)
    assert est.parameters["method"] == "bare-cycles"
    assert est.parameters["spectral_radius"] == 1.0


def test_lap_upper_bound_is_exact_for_full_tent(tent):
    for n in (3, 7, 10):
        est = entropy_lap(tent, n_max=n)
        assert abs(est.upper - math.log(2)) < 1e-12


def test_lap_bounds_bracket_markov_value(stunted_tent):
    f = stunted_tent(F(33, 40)).map
    lap = entropy_lap(f, n_max=12)
    markov = entropy_markov(f).value
    assert markov <= lap.upper + 1e-12
    assert lap.lower <= lap.upper + 1e-12


def test_full_sawtooth_entropy_scales_with_modality():
    for pattern, h in (("+-", math.log(2)), ("+-+", math.log(3)), ("+-+-", math.log(4))):
        f = build_sawtooth(Shape.from_string(pattern))
        assert abs(entropy_markov(f).value - h) < 1e-9


def test_bowen_flags_full_tent(tent):
    assert entropy_bowen(tent).value >= 0.55


def test_bowen_gates_zero_entropy_to_zero(stunted_tent):
    for w in (F(1, 2), F(3, 5), F(4, 5)):
        assert entropy_bowen(stunted_tent(w).map).value == 0.0


def test_bowen_stays_below_markov(stunted_tent):
    for w in (F(33, 40), F(9, 10), F(39, 40), F(1)):
        f = stunted_tent(w).map
        assert entropy_bowen(f).lower <= entropy_markov(f).value + 1e-9


def _mp_spectral_radius(adj):
    """40-digit radius, class by class: within a strongly connected class the
    Perron root is simple, so mpmath resolves it even where the whole matrix
    has a defective double root."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(adj.shape[0]))
    graph.add_edges_from(zip(*np.nonzero(adj)))
    best = mpmath.mpf(0)
    with mpmath.workdps(40):
        for comp in map(sorted, nx.strongly_connected_components(graph)):
            if len(comp) == 1:
                best = max(best, mpmath.mpf(int(adj[comp[0], comp[0]])))
                continue
            sub = mpmath.matrix([[int(adj[i, j]) for j in comp] for i in comp])
            roots = mpmath.eig(sub, left=False, right=False)
            best = max([best] + [abs(r) for r in roots])
    return best


@st.composite
def zero_one_matrices(draw):
    """Random 0/1 matrices, and block-triangular [[B, C], [0, B]] ones whose
    two diagonal blocks share their Perron root (a defective double root
    when the coupling C links them), with rows and columns shuffled."""
    n = draw(st.integers(1, 7))
    cells = st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)
    b = np.array(draw(cells), dtype=np.int64).reshape(n, n)
    if draw(st.booleans()):
        c = np.array(draw(cells), dtype=np.int64).reshape(n, n)
        b = np.block([[b, c], [np.zeros_like(b), b]])
    perm = draw(st.permutations(range(b.shape[0])))
    return b[np.ix_(perm, perm)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(zero_one_matrices())
def test_spectral_radius_bracket_holds_the_true_radius(adj):
    rho, diag = spectral_radius(adj)
    lo, hi = diag["rho_lower"], diag["rho_upper"]
    # the float sits in the bracket up to its own rounding
    assert lo <= F(math.nextafter(rho, math.inf))
    assert F(math.nextafter(rho, -math.inf)) <= hi
    assert diag["power_iterations"] == 0
    exact = _mp_spectral_radius(adj)
    with mpmath.workdps(40):
        slack = mpmath.mpf(10) ** -30
        assert mpmath.mpf(lo.numerator) / lo.denominator <= exact + slack
        assert exact - slack <= mpmath.mpf(hi.numerator) / hi.denominator


def test_double_root_stays_at_log_two():
    # the transition matrix has the double root 2, where the dense
    # eigensolver returns 2 + 3.6e-8
    f = StuntedSawtoothMap(Shape.from_string("+-+-"), [F(1, 2), F(0), F(9, 10)]).map
    est = entropy_markov(f)
    assert est.lower <= math.log(2) <= est.upper
    assert est.value <= math.log(2) + 1e-15
    assert F(est.parameters["rho_lower"]) <= 2 <= F(est.parameters["rho_upper"])


def test_chaos_ward_steps_never_lower_the_entropy_bracket():
    # raising a maximum or lowering a minimum cannot lower the entropy, so a
    # proven bracket must satisfy lower(w) <= upper(w') with no tolerance
    word, step = "+-+-", F(1, 10)
    shape = Shape.from_string(word)
    brackets = {}
    for w in itertools.product([F(k, 10) for k in range(11)], repeat=3):
        try:
            m = StuntedSawtoothMap(shape, w)
        except ConstraintViolation:
            continue
        est = entropy_markov(m.map)
        assert est.lower <= est.value <= est.upper
        assert est.upper - est.lower <= 1e-10
        brackets[w] = (est.lower, est.upper)
    assert len(brackets) == 385
    for w, (lower, _) in brackets.items():
        for j, c in enumerate(word[:-1]):
            nxt = w[:j] + (w[j] + step if c == "+" else w[j] - step,) + w[j + 1:]
            if nxt in brackets:
                assert lower <= brackets[nxt][1], (w, nxt)


def test_markov_bracket_is_tight_on_the_tent_grid(stunted_tent):
    for k in range(101):
        est = entropy_markov(stunted_tent(F(1, 2) + F(k, 200)).map)
        assert est.lower <= est.value <= est.upper
        assert est.upper - est.lower <= 1e-10
        if est.value == 0.0:
            assert est.parameters["method"] == "bare-cycles"
            assert est.upper == 0.0
