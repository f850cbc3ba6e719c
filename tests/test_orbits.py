"""Periodic orbit enumeration, period sets, Sharkovskii order."""

import itertools
import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sawlab import (
    BudgetExceeded,
    Budgets,
    ConstraintViolation,
    PiecewiseLinearMap,
    Shape,
    StructureError,
    StuntedSawtoothMap,
    classify,
    complete_period_set,
    entropy_markov,
    find_homoclinic,
    omega_accumulation,
    period_set,
    periodic_points,
    sharkovskii_closure,
    sharkovskii_forces,
    spectral_radius,
)
from sawlab import orbits
from sawlab.family import build_sawtooth
from sawlab.markov import _combinatorics, build_markov_system
from sawlab.orbits import (
    _class_runs,
    _run_product,
    markov_orbit_inventory,
    periodic_orbits,
)
from sawlab.rational import format_rat

from oracles import iterate, plateaus, walk_powers as _walk_powers, whole_graph_walk_orbits
from test_renorm import _thue_morse_height


def test_fixed_points_of_stunted_tent(stunted_tent):
    orbits = periodic_points(stunted_tent(F(4, 5)).map, 1)
    assert {o.points[0] for o in orbits} == {F(0), F(2, 3)}
    assert all(o.stability == "repelling" for o in orbits)


def test_period_two_orbit_and_stability(stunted_tent):
    (orb,) = periodic_points(stunted_tent(F(4, 5)).map, 2)
    assert set(orb.points) == {F(2, 5), F(4, 5)}
    # 2/5 sits on the plateau edge: the flat side makes the cycle
    # attracting from one side only
    assert orb.stability == "one_sided_attracting"


def test_tent_has_period_three(tent):
    orbits = periodic_points(tent, 3)
    assert {F(2, 7), F(4, 7), F(6, 7)} in [set(o.points) for o in orbits]
    for o in orbits:
        assert o.period == 3
        for p, q in zip(o.points, o.points[1:] + o.points[:1]):
            assert tent(p) == q


def test_periodic_points_excludes_lower_periods(tent):
    for orb in periodic_points(tent, 4):
        assert orb.period == 4


def test_period_set_sweep_stops_on_witness(tent):
    report = period_set(tent, 6, stop_on_non_power_of_two=True)
    assert report.stopped_early
    assert report.stop_witness.period == 3
    assert 3 in report.periods


def test_period_set_reports_where_the_budget_ran_out(tent):
    # the tent has 4 closed walks of length 2, one more than the budget allows
    report = period_set(tent, 6, piece_budget=3)
    assert report.n_max_checked == 1
    assert not report.complete
    assert "walks" in report.budget_note
    assert report.periods == frozenset({1})


def test_structural_enumerator_matches_the_literal_iterates():
    # every zero-entropy cell of the 101-cell tent grid (n <= 16) and of the
    # +-+- k/10 grid (n <= 8): the Markov inventory lists exactly the orbits
    # f^n yields, in the same order
    tenths = [F(k, 10) for k in range(11)]
    grids = (
        ("+-", [(F(1, 2) + F(k, 200),) for k in range(101)], 16),
        ("+-+-", list(itertools.product(tenths, repeat=3)), 8),
    )
    checked = {}
    for word, heights, n_max in grids:
        shape = Shape.from_string(word)
        checked[word] = 0
        for w in heights:
            try:
                f = StuntedSawtoothMap(shape, w).map
            except ConstraintViolation:
                continue
            if entropy_markov(f).value > 0:
                continue
            assert markov_orbit_inventory(f)  # raises unless the route is structural
            for n, orbits in periodic_orbits(f, n_max):
                assert orbits == periodic_points(f, n), (word, w, n)
            checked[word] += 1
    assert checked == {"+-": 65, "+-+-": 125}


@pytest.mark.parametrize(
    "w, representatives",
    [
        ((F(2, 5), F(1, 5), F(7, 10)), {1: (F(0),)}),
        ((F(1, 2), F(1, 5), F(2, 5)), {1: (F(2, 5),), 2: (F(1, 5), F(1, 2))}),
    ],
)
def test_complete_period_set_representatives_come_from_bare_cycles_first(w, representatives):
    # the inventory lists the bare-cycle orbits before the cycles on the
    # partition; in the other order period 1 of the second map reads 0
    f = StuntedSawtoothMap(Shape.from_string("+-+-"), w).map
    report = complete_period_set(f)
    assert {n: o.points for n, o in report.representatives.items()} == representatives


def test_complete_period_set_is_exhaustive(stunted_tent):
    report = complete_period_set(stunted_tent(F(4, 5)).map)
    assert report.exhaustive
    assert report.periods == frozenset({1, 2})


def test_markov_inventory_matches_iterate_search(stunted_tent):
    f = stunted_tent(F(823, 1000)).map
    inventory = {(o.period, o.points) for o in markov_orbit_inventory(f)}
    for n in (1, 2, 4):
        for o in periodic_points(f, n):
            assert (o.period, o.points) in inventory
    assert {p for p, _ in inventory} == {1, 2, 4}


def test_orbit_side_slope_tracks_orientation(tent, stunted_tent):
    # slope of tent^2 at the period-2 point 2/5: both steps hit slope +-2
    (orb,) = periodic_points(tent, 2)
    g = tent.compose_self(2)
    assert orb.points == (F(2, 5), F(4, 5))
    assert (g.left_slope(F(2, 5)), g.right_slope(F(2, 5))) == (-4, -4)
    assert orb.stability == "repelling"
    # at 4/5 the cycle {2/5, 4/5} meets the plateau [2/5, 3/5] at its left
    # end, so f^2 is flat on the right of 2/5 only
    f = stunted_tent(F(4, 5)).map
    (orb,) = periodic_points(f, 2)
    g = f.compose_self(2)
    assert orb.points == (F(2, 5), F(4, 5))
    assert (g.left_slope(F(2, 5)), g.right_slope(F(2, 5))) == (-4, 0)
    assert orb.stability == "one_sided_attracting"
    # at 3/4 the cycle {1/2, 3/4} passes through the middle of the plateau
    # [3/8, 5/8], so f^2 is flat on both sides
    f = stunted_tent(F(3, 4)).map
    (orb,) = periodic_points(f, 2)
    g = f.compose_self(2)
    assert orb.points == (F(1, 2), F(3, 4))
    assert (g.left_slope(F(1, 2)), g.right_slope(F(1, 2))) == (0, 0)
    assert orb.stability == "superattracting_plateau"


def test_sharkovskii_order():
    assert sharkovskii_forces(3, 5)
    assert sharkovskii_forces(6, 8)
    assert sharkovskii_forces(4, 2)
    assert not sharkovskii_forces(2, 4)
    assert not sharkovskii_forces(4, 6)
    # every period forces itself
    assert sharkovskii_forces(12, 12)


def test_sharkovskii_closure_is_lower_set():
    assert sharkovskii_closure({6}, 8) == frozenset({1, 2, 4, 6, 8})
    assert sharkovskii_closure({4}, 64) == frozenset({1, 2, 4})
    assert sharkovskii_closure({3}, 10) == frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10})


def test_structural_inventory_refuses_branching_graphs(tent):
    from sawlab import StructureError

    with pytest.raises(StructureError):
        markov_orbit_inventory(tent)


def _plateau_is_periodic(f):
    return any(
        iterate(f, f(plat.lo), n) == f(plat.lo) for plat in plateaus(f) for n in range(1, 65)
    )


_STUNTED = st.sampled_from(["+-", "+-+", "+-+-"]).flatmap(
    lambda word: st.tuples(
        st.just(word), st.lists(st.integers(0, 20), min_size=len(word) - 1, max_size=len(word) - 1)
    )
)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(case=_STUNTED)
# plateau values on cycles of f on the partition points: 1/20 and 13/20 on the
# 4-cycle (1/20, 3/20, 9/20, 13/20) of +-+ (13/20, 1/20); 1/20 and 1/2 on the
# 3-cycle (1/20, 1/5, 1/2) of +-+- (1/2, 1/20, 1/10)
@example(case=("+-+", [13, 1]))
@example(case=("+-+-", [10, 1, 2]))
def test_walk_route_lists_the_literal_iterates_orbits(case):
    word, heights = case
    try:
        f = StuntedSawtoothMap(Shape.from_string(word), [F(h, 20) for h in heights]).map
    except ConstraintViolation:
        assume(False)
    # the oracle composes f^8, about e^(8h) pieces: h below log 2 keeps it
    # to a fraction of a second per map
    assume(0 < entropy_markov(f).value < math.log(2))
    for n, orbits in periodic_orbits(f, 8):
        assert orbits == periodic_points(f, n), (word, heights, n)


def test_walk_property_examples_reach_plateau_cycles():
    for word, w in (("+-+", (F(13, 20), F(1, 20))), ("+-+-", (F(1, 2), F(1, 20), F(1, 10)))):
        f = StuntedSawtoothMap(Shape.from_string(word), w).map
        assert 0 < entropy_markov(f).value < math.log(2)
        assert _plateau_is_periodic(f)


@pytest.mark.parametrize(
    "word, budget, n, needed", [("+-", 3, 2, 4), ("+-+-", 63, 3, 64)]
)
def test_walk_budget_refuses_up_front_with_the_exact_count(word, budget, n, needed):
    # trace(A^n) of the full sawtooth with d + 1 teeth is (d + 1)^n
    f = build_sawtooth(Shape.from_string(word))
    reached = []
    with pytest.raises(BudgetExceeded) as e:
        for k, _ in periodic_orbits(f, 8, piece_budget=budget):
            reached.append(k)
    assert reached == list(range(1, n))
    assert e.value.kind == "walks"
    assert e.value.needed == needed


def _dense(successors):
    """The 0/1 matrix whose row a is 1 on the range successors[a]."""
    adj = np.zeros((len(successors), len(successors)), dtype=np.int64)
    for a, run in enumerate(successors):
        adj[a, run.start : run.stop] = 1
    return adj


def _product_through_runs(runs, p):
    """_run_product on the columns of p, as a matrix of p's dtype."""
    return np.array(_run_product(runs, p.T.tolist()), dtype=p.dtype).T


# rows with empty runs (row 2 and the last), a full row, a single column
RUNS = tuple(range(lo, hi) for lo, hi in ((0, 2), (2, 5), (3, 3), (0, 6), (5, 6), (4, 4)))


def test_run_product_is_the_dense_product_in_int64():
    rng = np.random.default_rng(7)
    p = rng.integers(0, 10**6, size=(6, 6), dtype=np.int64)
    out = _product_through_runs(RUNS, p)
    assert np.array_equal(out, _dense(RUNS) @ p)
    assert not out[2].any() and not out[5].any()


def test_run_product_is_the_dense_product_in_python_integers():
    # entries past int64: the list product must carry them exactly
    p = np.array([[(1 << 70) + 3 * i + j for j in range(6)] for i in range(6)], dtype=object)
    out = _product_through_runs(RUNS, p)
    assert out.tolist() == (_dense(RUNS).astype(object) @ p).tolist()
    assert out[3, 0] == sum(p[i, 0] for i in range(6))


def test_a_nonflat_cell_onto_flat_cells_only_has_an_empty_run():
    # +-+ at (25/40, 1/40): nonflat cell 2 maps onto flat cells only, yet a
    # class branches; the powers of the whole graph multiply through the
    # empty run (the sweep drops such a transient cell)
    m = StuntedSawtoothMap(Shape.from_string("+-+"), [F(25, 40), F(1, 40)])
    sys = build_markov_system(m.map, 4096)
    run = sys.successors[2]
    assert (run.start, run.stop) == (4, 4) and sys.recurrence.branching
    adj = _dense(sys.successors)
    for n, cols in zip(range(1, 13), _walk_powers(sys.successors)):
        power = np.array(cols).T
        assert np.array_equal(power, np.linalg.matrix_power(adj, n))
        assert not power[2].any()


def test_walk_powers_move_to_python_integers_and_stay_exact():
    # the full 4-lap sawtooth: A is the 4 x 4 all-ones matrix, A^n = 4^(n-1) A,
    # and from A^33 on the entries pass INT64_MAX
    sys = build_markov_system(build_sawtooth(Shape.from_string("+-+-")), 4096)
    ones = np.ones((4, 4), dtype=np.int64)
    assert np.array_equal(_dense(sys.successors), ones)
    for n, power in zip(range(1, 41), _walk_powers(sys.successors)):
        assert power == (4 ** (n - 1) * ones.astype(object)).tolist()


# the Chaotic flank of the +- bracket 4/5 .. 9/10 bisected to 1e-9 and
# refined to level 8: the 193-cell graph the boundary refinement classifies
CHAOTIC_FLANK = F(
    "238794571347731774913415390344147283520822119310468716987900172058108764295153/"
    "289480223093290488558927462521719769633174961664101410098643960019782824099840"
)


def _flank_system():
    m = StuntedSawtoothMap(Shape.from_string("+-"), [CHAOTIC_FLANK])
    build_markov_system.cache_clear()
    return build_markov_system(m.map, 4096)


def test_walk_counts_on_the_boundary_flank_match_dense_powers():
    sys = _flank_system()
    assert len(sys.successors) == 193
    rec = sys.recurrence
    adj = _dense(sys.successors)
    blocks = []
    for comp in rec.branching:
        members = sorted(comp)
        powers = _walk_powers(_class_runs(sys.successors, members))
        blocks.append((np.ix_(members, members), powers))
    for n in range(1, 25):
        reference = np.linalg.matrix_power(adj, n)
        assert reference.min() >= 0 and reference.max() < 2**62  # no wrap in the reference
        # each class block whole, not only its trace (its walk count): the
        # sweep prunes its walks by the off-diagonal entries too
        walks = sum(len(cyc) for cyc in rec.cycles if n % len(cyc) == 0)
        for block, powers in blocks:
            power = np.array(next(powers)).T
            assert np.array_equal(power, reference[block]), n
            walks += int(np.trace(power))
        assert walks == np.trace(reference), n


def _products(monkeypatch) -> list[int]:
    """From here on, the size of each block power the sweeps form."""
    rows = []
    product = orbits._run_product

    def spy(runs, cols):
        rows.append(len(runs))
        return product(runs, cols)

    monkeypatch.setattr(orbits, "_run_product", spy)
    return rows


def test_the_flank_sweeps_form_no_power_of_its_chaotic_class(monkeypatch):
    # the flank's one branching class has 128 cells and period 64, so no
    # period up to 16 closes in it, and its 7 bare cycles need no power
    sys = _flank_system()
    assert [len(c) for c in sys.recurrence.branching] == [128]
    assert sys.recurrence.periods == (64,) and len(sys.recurrence.cycles) == 7
    rows = _products(monkeypatch)
    f = sys.map
    period_set(f, 16, piece_budget=50_000, stop_on_non_power_of_two=True)
    find_homoclinic(f)
    assert [r for r in rows if r >= 128] == []


def test_classifying_a_chaotic_flank_leaves_its_block_unpowered():
    # the Chaotic flank x_8 + 2^(1 - 2^8): its one branching class has
    # period 64, past the sweeps' n_max of 16, so no trace is taken and
    # the block holds no identity, only its runs
    m = StuntedSawtoothMap(Shape.from_string("+-"), [_thue_morse_height(8) + F(2) ** (1 - 2**8)])
    build_markov_system.cache_clear()
    _combinatorics.cache_clear()
    assert classify(m).verdict == "Chaotic"
    comb = build_markov_system(m.map, 4096).combinatorics
    assert comb.recurrence.periods == (64,)
    assert "walks" in vars(comb)  # the sweeps read the type's counts
    (block,) = comb.walks.blocks
    assert block.back == [] and block.traces == []
    assert not hasattr(block, "power") and not hasattr(block, "bits")


def test_a_chaotic_classify_forms_each_block_power_once(monkeypatch):
    # the period sweep and the homoclinic search read one walk table, so
    # classify forms the powers of the longer sweep alone, not of both; the
    # powers belong to the graph's type, so both caches are cleared
    rows = _products(monkeypatch)
    b = Budgets()

    def powers(run) -> int:
        build_markov_system.cache_clear()
        _combinatorics.cache_clear()
        rows.clear()
        run()
        return len(rows)

    for word, w, sweep, search in (("+-", [1], 3, 1), ("+-+-", [F(1, 2), 0, F(9, 10)], 6, 2)):
        m = StuntedSawtoothMap(Shape.from_string(word), [F(x) for x in w])
        assert powers(lambda: period_set(
            m.map, b.sweep_n_max, piece_budget=b.sweep_piece_budget, stop_on_non_power_of_two=True
        )) == sweep
        assert powers(lambda: find_homoclinic(m.map, period_bound=b.homoclinic_period_bound)) == search
        assert powers(lambda: classify(m, b)) == max(sweep, search)
        assert classify(m, b).verdict == "Chaotic"


def _refusal(sweep) -> tuple:
    with pytest.raises(BudgetExceeded) as e:
        sweep()
    return e.value.kind, e.value.limit, e.value.needed, str(e.value)


def test_a_cached_graph_refuses_a_smaller_budget_as_a_fresh_graph_does(tent):
    # trace(A^n) = 2^n for the tent: 32 walks of length 5 pass a budget of 20,
    # whether the counts were formed for this sweep or by a longer one before
    build_markov_system.cache_clear()
    fresh = _refusal(lambda: list(periodic_orbits(tent, 8, 20)))
    assert fresh == ("walks", 20, 32, "budget exceeded: walks (limit 20, needed >= 32)")
    for _ in periodic_orbits(tent, 10, 5000):
        pass
    assert len(build_markov_system(tent, 4096).walks.shape.counts) == 11
    assert _refusal(lambda: list(periodic_orbits(tent, 8, 20))) == fresh
    assert _refusal(lambda: orbits.orbits_of_period(tent, 8, 20)) == fresh


def test_a_zero_entropy_period_is_read_from_the_inventory_at_any_n():
    # with no branching class the inventory answers one period alone, so a
    # period of 10^12 is not reached through every period below it
    f = StuntedSawtoothMap(Shape.from_string("+-"), [F(4, 5)]).map
    start = time.process_time()
    assert orbits.orbits_of_period(f, 10**12) == ()
    assert time.process_time() - start < 1
    compared = set()
    for k in range(10, 21):
        f = StuntedSawtoothMap(Shape.from_string("+-"), [F(k, 20)]).map
        if build_markov_system(f, 4096).recurrence.branching:
            continue
        for n, orbs in periodic_orbits(f, 8):
            assert orbits.orbits_of_period(f, n) == orbs, (k, n)
            compared.add(len(orbs))
    assert compared == {0, 1, 2}  # periods with no orbit, one, and two


def test_a_rebuilt_graph_starts_a_fresh_walk_table(tent, stunted_tent):
    # a rebuilt graph of a cached type reads the type's counts but solves its
    # own orbits; only after the type is evicted does it count from the start
    build_markov_system.cache_clear()
    _combinatorics.cache_clear()
    sys = build_markov_system(tent, 4096)
    for _ in periodic_orbits(tent, 6):
        pass
    assert len(sys.walks.shape.counts) == 7 and len(sys.walks.solved) == 7
    build_markov_system(stunted_tent(F(9, 10)).map, 4096)  # evicts the tent's graph
    rebuilt = build_markov_system(tent, 4096)
    assert rebuilt is not sys and "walks" not in vars(rebuilt)
    assert rebuilt.walks.shape is sys.walks.shape
    assert len(rebuilt.walks.shape.counts) == 7 and len(rebuilt.walks.solved) == 1
    for _ in periodic_orbits(tent, 3):
        pass
    assert len(rebuilt.walks.solved) == 4 and len(sys.walks.solved) == 7
    _combinatorics.cache_clear()  # evicts the tent's type
    build_markov_system.cache_clear()
    fresh = build_markov_system(tent, 4096)
    for _ in periodic_orbits(tent, 3):
        pass
    assert fresh.walks.shape is not sys.walks.shape
    assert len(fresh.walks.shape.counts) == 4 and len(sys.walks.shape.counts) == 7


def test_a_second_member_of_a_type_forms_no_block_power(monkeypatch):
    # two chaotic tents with equal successor runs: the first classify powers
    # the type's branching class, the second reads those powers, and its
    # record is the one a cold classify writes
    tent = Shape.from_string("+-")
    first, second = (StuntedSawtoothMap(tent, [w]) for w in (F(83, 100), F(207, 250)))
    build_markov_system.cache_clear()
    _combinatorics.cache_clear()
    cold = json.dumps(classify(second).to_json(), sort_keys=True)
    build_markov_system.cache_clear()
    _combinatorics.cache_clear()
    rows = _products(monkeypatch)
    classify(first)
    assert rows
    rows.clear()
    record = classify(second)
    assert rows == [] and record.verdict == "Chaotic"
    assert build_markov_system(second.map, 4096).successors == build_markov_system(first.map, 4096).successors
    assert json.dumps(record.to_json(), sort_keys=True) == cold


def test_a_sweep_cut_off_inside_a_power_leaves_the_type_whole(monkeypatch):
    # an interrupt inside a block product: the next sweep of the graph, and
    # one of another member of its type, list what a cold sweep lists
    tent = Shape.from_string("+-")
    maps = [StuntedSawtoothMap(tent, [w]).map for w in (F(83, 100), F(207, 250))]
    cold = []
    for f in maps:
        build_markov_system.cache_clear()
        _combinatorics.cache_clear()
        cold.append(_sweep(periodic_orbits(f, 12)))
    build_markov_system.cache_clear()
    _combinatorics.cache_clear()
    product, calls = orbits._run_product, []

    def interrupted(runs, cols):
        calls.append(len(runs))
        if len(calls) == 3:
            raise KeyboardInterrupt
        return product(runs, cols)

    monkeypatch.setattr(orbits, "_run_product", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _sweep(periodic_orbits(maps[0], 12))
    assert [_sweep(periodic_orbits(f, 12)) for f in maps] == cold


def test_the_sweeps_of_one_graph_solve_each_period_once(monkeypatch, stunted_tent):
    # period_set, then find_homoclinic (a frontier of 1 truncates every
    # search, so it sweeps every period) and orbits_of_period: each walk
    # from a member of a block is solved once for each period reached
    calls = []
    solve = orbits._orbits_from_cell

    def spy(block, branches, den, s0, n, lattice):
        calls.append((id(block), s0, n))
        return solve(block, branches, den, s0, n, lattice)

    monkeypatch.setattr(orbits, "_orbits_from_cell", spy)
    f = stunted_tent(F(9, 10)).map
    build_markov_system.cache_clear()
    assert period_set(f, 16, piece_budget=50_000).complete
    assert len(set(calls)) == len(calls) and {n for _, _, n in calls} == set(range(1, 17))
    before = len(calls)
    report = find_homoclinic(f, period_bound=16, frontier_budget=1)
    assert report.truncated and report.orbits_searched > 16
    orbits.orbits_of_period(f, 12, 50_000)
    assert len(calls) == before
    orbits.orbits_of_period(f, 17, 100_000)
    assert len(set(calls)) == len(calls) and {n for _, _, n in calls[before:]} == {17}


def test_omega_accumulation_checks_every_walk_count_before_any_walk(tent):
    # 2^20 walks of length 20 pass the default budget: refused from the
    # counts alone, before the million walks of lengths 1 to 19 are solved
    start = time.process_time()
    with pytest.raises(BudgetExceeded) as e:
        omega_accumulation(tent, 3, 5, F(1, 100))
    assert time.process_time() - start < 1
    assert str(e.value) == "budget exceeded: walks (limit 1000000, needed >= 1048576)"


def _closed_walk_period(successors, comp):
    """The gcd of the lengths n <= 3k of the closed walks in a class of k
    cells, from boolean powers of its block. Every simple cycle C lies on a
    closed walk of length L <= 2k through the first member, and going once
    more round C gives one of length L + |C|, so the gcd is the period."""
    members = sorted(comp)
    block = _dense(successors)[np.ix_(members, members)]
    power = np.eye(len(members), dtype=np.int64)
    period = 0
    for n in range(1, 3 * len(members) + 1):
        power = np.minimum(block @ power, 1)
        if power.trace():
            period = math.gcd(period, n)
    return period


def test_class_periods_are_taken_once_per_graph():
    systems = [_flank_system()]
    for ws in itertools.product(range(6), repeat=3):
        try:
            f = StuntedSawtoothMap(Shape.from_string("+-+-"), [F(w, 5) for w in ws]).map
        except ConstraintViolation:
            continue
        systems.append(build_markov_system(f, 4096))
    periods = set()
    for sys in systems:
        rec = sys.recurrence
        assert len(rec.periods) == len(rec.branching)
        assert list(rec.periods) == spectral_radius(sys.successors, rec)[1]["class_periods"]
        assert rec.periods == tuple(_closed_walk_period(sys.successors, c) for c in rec.branching)
        periods.update(rec.periods)
    assert systems[0].recurrence.periods == (64,) and {1, 2} <= periods


def _sweep(gen):
    """Every yield of a sweep, then how it ended: its exception's type,
    message and count, or None."""
    out = []
    try:
        for n, orbs in gen:
            out.append((n, orbs))
    except (BudgetExceeded, StructureError) as e:
        out.append((type(e).__name__, str(e), getattr(e, "needed", None)))
    else:
        out.append(None)
    return out


def test_class_sweep_matches_the_whole_graph_sweep():
    maps = [StuntedSawtoothMap(Shape.from_string("+-"), [CHAOTIC_FLANK]).map]
    grids = [("+-+-", 5, 3), ("+-+", 10, 2), ("-+-", 10, 2)]
    for word, q, d in grids:
        for ws in itertools.product(range(q + 1), repeat=d):
            try:
                maps.append(StuntedSawtoothMap(Shape.from_string(word), [F(w, q) for w in ws]).map)
            except ConstraintViolation:
                pass
    compared = 0
    ended = set()
    for f in maps:
        if not build_markov_system(f, 4096).recurrence.branching:
            continue
        # the second budget makes the walk counts refuse partway
        for budget in (1_000_000, 40):
            sweep = _sweep(periodic_orbits(f, 8, budget))
            assert sweep == _sweep(whole_graph_walk_orbits(f, 8, budget)), (f, budget)
            ended.add(sweep[-1] and sweep[-1][0])
        compared += 1
    assert compared >= 80 and ended == {None, "BudgetExceeded"}


def test_bare_cycles_in_a_branching_graph_are_solved_without_powers():
    # a full tent on [0, 1/3], a self-loop of slope 3 on [1/3, 2/3] and a
    # reflection of [2/3, 1] onto itself: the tent branches, the other two
    # cells are bare cycles, and the reflection's walk of length 2 is the
    # identity on its cell
    f = PiecewiseLinearMap((0, F(1, 6), F(1, 3), F(2, 3), 1), (0, F(1, 3), 0, 1, F(2, 3)))
    rec = build_markov_system(f, 4096).recurrence
    assert len(rec.branching) == 1 and len(rec.cycles) == 2
    # the second sweep reads the first one's walk table, and is refused at
    # n = 2 all the same
    for _ in range(2):
        sweep = periodic_orbits(f, 3)
        n, orbs = next(sweep)
        assert n == 1
        assert [o.points for o in orbs] == [(0,), (F(2, 9),), (F(1, 2),), (F(5, 6),)]
        with pytest.raises(StructureError):
            next(sweep)
    assert len(build_markov_system(f, 4096).walks.shape.counts) == 3


def test_a_reflecting_bare_cycle_is_refused_on_the_zero_entropy_route():
    # f(x) = 1 - x: the one bare cycle has slope -1, and every x other than
    # 1/2 has period 2, so the orbits cannot be listed
    f = PiecewiseLinearMap((0, 1), (1, 0))
    rec = build_markov_system(f, 4096).recurrence
    assert not rec.branching and len(rec.cycles) == 1
    with pytest.raises(StructureError):
        markov_orbit_inventory(f)
    with pytest.raises(StructureError):
        complete_period_set(f)


def test_period_set_stops_at_its_witness_before_a_later_count_passes_the_budget(tent):
    # the tent has 2^n closed walks of length n: period 3 stops the sweep,
    # and the 16 walks of length 4 past the budget are never counted
    report = period_set(tent, 8, piece_budget=10, stop_on_non_power_of_two=True)
    assert report.stopped_early and report.stop_witness.period == 3
    assert report.budget_note is None and report.n_max_checked == 3


def _outcome(query):
    """What a query returns, or the type and message of what it raises."""
    try:
        return query()
    except (BudgetExceeded, StructureError) as e:
        return type(e).__name__, str(e)


# the mixed graph of test_bare_cycles_in_a_branching_graph_are_solved_without_powers
MIXED = PiecewiseLinearMap((0, F(1, 6), F(1, 3), F(2, 3), 1), (0, F(1, 3), 0, 1, F(2, 3)))
_CONTINUUM = ("StructureError", "slope-1 closed walk fixed pointwise; continuum of solutions")


@pytest.mark.parametrize(
    "f, answered, inventory",
    [
        # 1 - x, a slope -1 bare cycle: every point but 1/2 has period 2
        (PiecewiseLinearMap((0, 1), (1, 0)), 0, _CONTINUUM),
        # x, a slope 1 bare cycle: every point is fixed
        (PiecewiseLinearMap((0, 1), (0, 1)), 0, _CONTINUUM),
        # period 1 is answered, the reflection refuses period 2
        (MIXED, 1, ("StructureError", "recurrent class branches; structural period set unavailable")),
    ],
)
def test_every_orbit_query_meets_a_refused_period_alike(f, answered, inventory):
    # each query, on a cold graph and on the walk table the earlier ones
    # filled: the same orbits up to the refused period, then the same error
    def queries():
        return {
            "sweep": _sweep(periodic_orbits(f, 4)),
            "periods": [_outcome(lambda: orbits.orbits_of_period(f, n)) for n in range(1, 5)],
            "omega": _outcome(lambda: omega_accumulation(f, 0, 2, F(1, 100))),
            "inventory": _outcome(lambda: markov_orbit_inventory(f)),
            "complete": _outcome(lambda: complete_period_set(f)),
            "period_set": _outcome(lambda: period_set(f, 4)),
        }

    build_markov_system.cache_clear()
    cold = queries()
    assert queries() == cold
    swept = cold["sweep"][:answered]
    assert cold["sweep"][answered:] == [(*_CONTINUUM, None)]
    assert cold["periods"] == [orbs for _, orbs in swept] + [_CONTINUUM] * (4 - answered)
    assert cold["omega"] == _CONTINUUM
    assert cold["inventory"] == cold["complete"] == inventory
    report = cold["period_set"]
    assert report.budget_note == _CONTINUUM[1] and not report.complete
    assert report.n_max_checked == answered
    assert report.periods == frozenset(range(1, answered + 1))
    if answered:
        assert [o.points for o in swept[0][1]] == [(0,), (F(2, 9),), (F(1, 2),), (F(5, 6),)]


def test_a_classify_leaves_every_orbit_outside_its_record_in_integers():
    # +-+- (3/5, 1/10, 7/10) is Chaotic: the period sweep stops at period 6
    # and the search finds its witness on a fixed point; the graph solves 33
    # orbits at periods 1-6, and the record holds 5 of them
    m = StuntedSawtoothMap(Shape.from_string("+-+-"), [F(3, 5), F(1, 10), F(7, 10)])
    build_markov_system.cache_clear()
    record = classify(m).to_json()
    solved = build_markov_system(m.map, Budgets().partition_budget).walks.solved
    assert [len(orbs) for orbs in solved] == [0, 4, 3, 0, 6, 0, 20]
    sweep, homoclinic = record["certificates"]["period_sweep"], record["certificates"]["homoclinic"]
    held = [*sweep["representatives"].values(), sweep["stop_witness"], homoclinic["witness"]["orbit"]]
    kept = [o for orbs in solved for o in orbs if o.to_json() in held]
    assert len(kept) == 5 and solved[6][0] in kept
    made = [o for orbs in solved for o in orbs if "points" in vars(o)]
    assert all(o in kept for o in made), made
    for o in kept:
        assert {"points": [format_rat(x) for x in o.points], "period": o.period,
                "stability": o.stability} in held


_STABILITIES = st.sampled_from(
    ["repelling", "attracting", "one_sided_attracting", "superattracting_plateau"]
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    points=st.lists(st.fractions(0, 1, max_denominator=10**6), min_size=1, max_size=6),
    k=st.integers(1, 10**4),
    stability=_STABILITIES,
)
@example(points=[F(0)], k=3, stability="repelling")
@example(points=[F(1)], k=5, stability="attracting")
@example(points=[F(0), F(1)], k=12, stability="one_sided_attracting")
def test_an_orbit_over_any_common_denominator_is_the_orbit_of_its_fractions(points, k, stability):
    # the orbit of the reduced Fractions, and the same integers over k times
    # their least common denominator, as the walk table solves them over den*m
    reduced = orbits._orbit_of(points, stability)
    nums = tuple(c * k for c in reduced.nums)
    scaled = orbits.PeriodicOrbit(nums, reduced.q * k, len(points), stability)
    wire = {"points": [format_rat(x) for x in points], "period": len(points), "stability": stability}
    assert scaled.points == reduced.points == tuple(points)
    assert json.dumps(scaled.to_json()) == json.dumps(reduced.to_json()) == json.dumps(wire)
    assert scaled == reduced and hash(scaled) == hash(reduced)
    moved = orbits.PeriodicOrbit(scaled.nums, scaled.q + 1, len(points), stability)
    assert moved != reduced or not any(points)
