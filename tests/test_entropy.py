"""Topological entropy estimators: Markov, lap growth, separated orbits."""

import itertools
import math
import time
from fractions import Fraction as F

import mpmath
import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sawlab import (
    BudgetExceeded,
    ConstraintViolation,
    Shape,
    StuntedSawtoothMap,
    bisect_boundary,
    build_sawtooth,
    entropy_lap,
    entropy_markov,
    refine_to_boundary,
    spectral_radius,
)
from sawlab.entropy import _grid_orbits, _lap_graph, _separated_counts, entropy_bowen
from sawlab.markov import _combinatorics, _perron_bracket, build_markov_system, recurrent_classes


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


_LAP_CASES = st.sampled_from(["+-", "-+", "+-+", "-+-", "+-+-"]).flatmap(
    lambda word: st.tuples(
        st.just(word),
        st.lists(st.integers(0, 40), min_size=len(word) - 1, max_size=len(word) - 1),
        st.integers(1, 8),
    )
)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(case=_LAP_CASES)
@example(case=("+-", [32], 8))
@example(case=("+-+", [36, 4], 8))
def test_lap_image_graph_counts_the_laps_of_the_iterates(case):
    word, ks, n = case
    try:
        f = StuntedSawtoothMap(Shape.from_string(word), [F(k, 40) for k in ks]).map
    except ConstraintViolation:
        assume(False)
    composed = [f.compose_self(m).lap_count() for m in range(1, n + 1)]
    assert entropy_lap(f, n_max=n).parameters["lap_counts"] == composed


def _assert_lap_bracket_meets_markov(f):
    succ, _ = _lap_graph(build_markov_system(f, 4096))
    assert all(row == sorted(row) for row in succ)
    lap, markov = entropy_lap(f, n_max=6), entropy_markov(f)
    assert lap.lower <= lap.value <= lap.upper
    assert lap.lower <= markov.upper and markov.lower <= lap.upper
    if markov.upper == 0.0:
        assert lap.lower == lap.value == lap.upper == 0.0


def test_lap_bracket_meets_the_markov_bracket_on_the_grids(stunted_tent):
    # the tent grid holds 4/5 (entropy 0) and 9/10, where a ratio of
    # consecutive lap counts lies above the entropy
    for k in range(101):
        _assert_lap_bracket_meets_markov(stunted_tent(F(1, 2) + F(k, 200)).map)
    shape = Shape.from_string("+-+-")
    for w in itertools.product([F(k, 10) for k in range(11)], repeat=3):
        try:
            m = StuntedSawtoothMap(shape, w)
        except ConstraintViolation:
            continue
        _assert_lap_bracket_meets_markov(m.map)


def test_lap_bracket_bits_are_pinned_on_a_trimodal_member():
    # Tarjan lists a class's members in the order of the successor lists,
    # and the last bits of the bracket follow that order: on this member an
    # unsorted lap graph moves rho_lower
    f = StuntedSawtoothMap(Shape.from_string("+-+-"), [F(7, 10), F(1, 10), F(4, 5)]).map
    succ, _ = _lap_graph(build_markov_system(f, 4096))
    assert all(row == sorted(row) for row in succ)
    est = entropy_lap(f)
    assert est.parameters["rho_lower"] == "8637586954968383/3372012051352938"
    assert est.parameters["rho_upper"] == "6744024102705876/2632787451807725"
    assert est.value == 0.9406136421072075


def test_lap_bracket_does_not_depend_on_the_window(stunted_tent):
    f = stunted_tent(F(9, 10)).map
    ests = [entropy_lap(f, n_max=n) for n in (1, 2, 10, 20)]
    assert len({(e.lower, e.value, e.upper) for e in ests}) == 1
    assert ests[-1].parameters["lap_counts"][:10] == ests[2].parameters["lap_counts"]


def test_lap_window_past_the_piece_budget_raises_before_any_work(stunted_tent):
    # the tent at 1/2 has l_n = 2 for every n, so no count trips the budget
    f = stunted_tent(F(1, 2)).map
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as e:
        entropy_lap(f, n_max=10**9)
    assert time.perf_counter() - start < 5
    assert (e.value.kind, e.value.limit, e.value.needed) == ("pieces", 10**6, 10**9)
    assert entropy_lap(f, n_max=20, piece_budget=20).parameters["lap_counts"] == [2] * 20
    with pytest.raises(BudgetExceeded):
        entropy_lap(f, n_max=21, piece_budget=20)


def test_full_sawtooth_lap_graph_is_one_node_with_d_plus_one_loops():
    for word in ("+-", "+-+", "+-+-"):
        laps = len(word)
        f = build_sawtooth(Shape.from_string(word))
        assert _lap_graph(build_markov_system(f, 4096)) == ([[0] * laps], [laps])
        # a weight-4 loop at full int64 headroom for one node overflowed
        assert _perron_bracket([[0] * laps], (0,), 1)[:2] == (laps, laps)
        est = entropy_lap(f, n_max=3)
        assert F(est.parameters["rho_lower"]) == F(est.parameters["rho_upper"]) == laps
        assert est.lower <= math.log(laps) <= est.upper


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
    """Random 0/1 matrices; block-triangular [[B, C], [0, B]] ones whose
    two diagonal blocks share their Perron root (a defective double root
    when the coupling C links them); and block-cyclic ones of period p, in
    which block r links only to block r + 1 mod p, every row and column of
    a link holding a 1. Rows and columns are shuffled."""
    kind = draw(st.sampled_from(["plain", "triangular", "cyclic"]))
    if kind == "cyclic":
        p = draw(st.sampled_from([2, 3, 4, 8]))
        sizes = draw(st.lists(st.integers(1, 3 if p < 8 else 2), min_size=p, max_size=p))
        starts = np.cumsum([0, *sizes])
        b = np.zeros((starts[-1], starts[-1]), dtype=np.int64)
        for r in range(p):
            s, t = sizes[r], sizes[(r + 1) % p]
            cells = st.lists(st.integers(0, 1), min_size=s * t, max_size=s * t)
            link = np.array(draw(cells), dtype=np.int64).reshape(s, t)
            k = np.arange(max(s, t))
            link[k % s, k % t] = 1
            col = starts[(r + 1) % p]
            b[starts[r] : starts[r + 1], col : col + t] = link
    else:
        n = draw(st.integers(1, 7))
        cells = st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)
        b = np.array(draw(cells), dtype=np.int64).reshape(n, n)
        if kind == "triangular":
            c = np.array(draw(cells), dtype=np.int64).reshape(n, n)
            b = np.block([[b, c], [np.zeros_like(b), b]])
    perm = draw(st.permutations(range(b.shape[0])))
    return b[np.ix_(perm, perm)]


# period 4: four cyclic classes of two cells, each linked to the next by
# [[1, 1], [1, 0]], so rho is the golden ratio; shuffled
_GOLDEN_CYCLE = np.kron(np.roll(np.eye(4, dtype=np.int64), 1, axis=1), [[1, 1], [1, 0]])[
    np.ix_(*[[5, 2, 7, 0, 3, 6, 1, 4]] * 2)
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(zero_one_matrices())
@example(_GOLDEN_CYCLE)
def test_spectral_radius_bracket_holds_the_true_radius(adj):
    # the matrix as successor lists, column b repeated adj[a, b] times in row a
    succ = [np.repeat(np.arange(adj.shape[1]), row).tolist() for row in adj]
    rec = recurrent_classes(succ)
    rho, diag = spectral_radius(succ, rec)
    lo, hi = diag["rho_lower"], diag["rho_upper"]
    # the float sits in the bracket up to its own rounding
    assert lo <= F(math.nextafter(rho, math.inf))
    assert F(math.nextafter(rho, -math.inf)) <= hi
    assert diag["power_iterations"] == 0
    assert bool(rec.branching) == (diag["rho_upper"] > 1)
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


def test_boundary_flank_eigensolve_runs_on_one_cyclic_class(monkeypatch):
    # the Chaotic flank of the refined +- bracket: its chaotic class is 128
    # cells in 64 cyclic bands of 2, so only 2x2 blocks reach eig
    tent = Shape.from_string("+-")
    bracket = bisect_boundary(tent, [F(4, 5)], [F(9, 10)], F(1, 10**9))
    f = StuntedSawtoothMap(tent, refine_to_boundary(bracket, target_level=8).bracket.hi_w).map
    shapes, eig = [], np.linalg.eig

    def recording_eig(a):
        shapes.append(a.shape)
        return eig(a)

    # a graph or bracket memoized by an earlier test would skip the eigensolve
    build_markov_system.cache_clear()
    _combinatorics.cache_clear()
    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    est = entropy_markov(f)
    assert est.parameters["class_periods"] == [64]
    assert shapes and all(max(shape) <= 2 for shape in shapes)
    lo, hi = F(est.parameters["rho_lower"]), F(est.parameters["rho_upper"])
    assert 1 < lo <= hi < lo + F(1, 10**13)
    assert est.lower <= est.value <= est.upper


def test_a_long_cyclic_class_brackets_its_root_exactly():
    # 1100 cyclic classes of 2 vertices, each joined to both vertices of the
    # next: rho = 2 and B = 2**1099 on every entry, beyond a float, so B is
    # scaled before its eigensolve
    p = 1100
    succ = [[2 * ((j // 2 + 1) % p), 2 * ((j // 2 + 1) % p) + 1] for j in range(2 * p)]
    rho, diag = spectral_radius(succ, recurrent_classes(succ))
    assert diag["class_periods"] == [p]
    assert diag["rho_lower"] == diag["rho_upper"] == 2
    assert rho == 2.0


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
        assert (est.value > 0) == bool(build_markov_system(m.map, 4096).recurrence.branching)
        brackets[w] = (est.lower, est.upper)
    assert len(brackets) == 385
    for w, (lower, _) in brackets.items():
        for j, c in enumerate(word[:-1]):
            nxt = w[:j] + (w[j] + step if c == "+" else w[j] - step,) + w[j + 1:]
            if nxt in brackets:
                assert lower <= brackets[nxt][1], (w, nxt)


def test_markov_bracket_is_tight_on_the_tent_grid(stunted_tent):
    for k in range(101):
        m = stunted_tent(F(1, 2) + F(k, 200))
        est = entropy_markov(m.map)
        assert est.lower <= est.value <= est.upper
        assert est.upper - est.lower <= 1e-10
        assert (est.value > 0) == bool(build_markov_system(m.map, 4096).recurrence.branching)
        if est.value == 0.0:
            assert est.parameters["method"] == "bare-cycles"
            assert est.upper == 0.0
