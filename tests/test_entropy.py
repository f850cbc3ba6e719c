"""Topological entropy estimators: Markov, lap growth, separated orbits."""

import itertools
import math
from fractions import Fraction as F

import mpmath
import networkx as nx
import numpy as np
from hypothesis import assume, example, given, settings
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
from sawlab.entropy import _grid_orbits, _separated_counts, entropy_bowen


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


def _reference_separated_counts(traj: np.ndarray, eps: float, cap: int) -> list[int]:
    """The greedy scan row by row: each grid row is compared with every kept
    row. The oracle for the forward-blocking scan."""
    n_max, npts = traj.shape
    counts = []
    for n in range(1, n_max + 1):
        block = traj[:n].T
        kept = np.empty((cap, n))
        m = 0
        for row in block:
            if m == 0 or (np.abs(kept[:m] - row).max(axis=1) > eps).all():
                kept[m] = row
                m += 1
                if m >= cap:
                    break
        counts.append(m)
        if m >= cap:
            break
    return counts


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    word=st.sampled_from(["+-", "+-+", "+-+-"]),
    heights=st.lists(st.integers(0, 40), min_size=3, max_size=3),
    grid=st.integers(256, 2048),
    eps=st.sampled_from([0.05, 1 / 100, 1 / 16, 1 / 7, 0.3]),
    cap_div=st.sampled_from([4, 8, 32, 10**9]),
    n_max=st.integers(1, 8),
)
@example(word="+-", heights=[40, 0, 0], grid=512, eps=0.05, cap_div=32, n_max=8)
def test_forward_blocking_keeps_the_rows_of_the_row_by_row_scan(
    word, heights, grid, eps, cap_div, n_max
):
    # cap_div 10**9 gives cap 1; 4 and 8 let the counts grow for a few steps
    # and stop mid-scan, as entropy_bowen's cap grid/8 does
    shape = Shape.from_string(word)
    try:
        m = StuntedSawtoothMap(shape, [F(h, 40) for h in heights[: shape.d]])
    except ConstraintViolation:
        assume(False)
    traj = _grid_orbits(m.map, n_max, grid)
    cap = max(1, grid // cap_div)
    assert _separated_counts(traj, eps, cap) == _reference_separated_counts(traj, eps, cap)


def test_forward_blocking_window_reaches_past_the_rounded_edge():
    # on the 321-point grid, xs[23] lies above the float xs[3] + 1/16, yet
    # xs[23] - xs[3] rounds to exactly 1/16, so row 3 blocks row 23
    xs = np.linspace(0.0, 1.0, 321)[:24]
    traj = np.vstack([xs, (np.arange(24) >= 3).astype(float)])
    assert xs[23] > xs[3] + 1 / 16 and xs[23] - xs[3] == 1 / 16
    assert _separated_counts(traj, 1 / 16, 100) == [2, 2]
    assert _reference_separated_counts(traj, 1 / 16, 100) == [2, 2]


def test_bowen_counts_of_the_crosscheck_maps_are_pinned():
    # the row-by-row scan's counts at the default grid 8192, cap 1024; every
    # list ends at the cap, after 3 to 9 steps
    pinned = {
        ("+-", (1,)): (
            [16, 31, 60, 116, 224, 433, 774, 1024],
            [64, 127, 248, 476, 885, 1024],
            [249, 481, 908, 1024],
        ),
        ("+-+", (1, 0)): (
            [16, 44, 122, 340, 885, 1024],
            [64, 188, 529, 1024],
            [249, 743, 1024],
        ),
        ("+-+-", (1, 0, 1)): (
            [16, 58, 208, 696, 1024],
            [64, 246, 872, 1024],
            [249, 906, 1024],
        ),
        ("+-", (F(9, 10),)): (
            [16, 30, 54, 96, 162, 276, 448, 703, 1024],
            [64, 120, 216, 379, 635, 1005, 1024],
            [249, 459, 801, 1024],
        ),
        ("+-+", (F(9, 10), F(1, 10))): (
            [16, 43, 109, 271, 608, 1024],
            [64, 173, 429, 1024],
            [249, 677, 1024],
        ),
    }
    for (word, w), counts in pinned.items():
        est = entropy_bowen(StuntedSawtoothMap(Shape.from_string(word), w).map)
        got = est.parameters["separated_counts"]
        assert [got[str(e)] for e in (1 / 16, 1 / 64, 1 / 256)] == list(counts), word


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
