"""Periodic orbits, period sets, and stability.

Periodic points of a rational PL map solve affine equations, so everything
here is exact. One enumerator, periodic_orbits, lists the orbits of each
period for every caller (period_set, find_homoclinic, omega_accumulation, the
gap report and `sawlab orbits --period`), and it reads them off the Markov
graph, which records f on the partition points and the affine branch of each
nonflat cell: no iterate is composed and no orbit is walked under f. When
every recurrent class is a bare cycle (the zero entropy situation) the graph
lists every periodic orbit at once: one solved orbit per bare cycle plus the
cycles of f on the partition, the plateau cycles among them. Otherwise the
orbits of period n are the partition cycles plus one orbit per closed walk of
length n in the cell graph whose fixed point avoids the partition (Block,
Guckenheimer, Misiurewicz and Young, 1980).

periodic_points (f^n by repeated squaring, then its fixed points piece by
piece, and each orbit's stability from the one-sided slopes of f^n at its
smallest point) is the literal reference route the tests compare the
enumerator against; nothing in the package calls it. complete_period_set is
the exhaustive all-periods answer of the structural route.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, ConstraintViolation, StructureError
from .markov import MarkovSystem, build_markov_system
from .plmap import PiecewiseLinearMap
from .rational import Rat, Wire


def _stability(left: Rat, right: Rat) -> str:
    """Stability from the one-sided derivatives of f^n along an orbit."""
    al, ar = abs(left), abs(right)
    if al < 1 and ar < 1:
        if left == 0 and right == 0:
            return "superattracting_plateau"
        return "attracting"
    if al > 1 and ar > 1:
        return "repelling"
    return "one_sided_attracting"


@dataclass(frozen=True)
class PeriodicOrbit(Wire):
    """One periodic orbit, points in orbit order starting at the smallest."""

    points: tuple[Rat, ...]
    period: int
    stability: str


def _cycle(f: PiecewiseLinearMap, x: Rat, n: int) -> tuple[Rat, ...] | None:
    """x, f(x), ..., f^(p-1)(x) for the minimal p <= n with f^p(x) = x, or None."""
    pts = [x]
    cur = f(x)
    while cur != x:
        if len(pts) == n:
            return None
        pts.append(cur)
        cur = f(cur)
    return tuple(pts)


def iterate_fixed_points(g: PiecewiseLinearMap) -> tuple[Rat, ...]:
    """All solutions of g(x) = x for one PL map, exact.

    Raises StructureError when a piece of slope 1 is pointwise fixed (a
    continuum of solutions; cannot be listed).
    """
    sols: set[Rat] = set()
    for i, a in enumerate(g.slopes):
        b0, b1 = g.breakpoints[i], g.breakpoints[i + 1]
        v0 = g.values[i]
        if a == 1:
            if v0 == b0:
                raise StructureError("slope-1 piece fixed pointwise; continuum of solutions")
            continue
        x = (v0 - a * b0) / (1 - a)
        if b0 <= x <= b1:
            sols.add(x)
    return tuple(sorted(sols))


def periodic_points(
    f: PiecewiseLinearMap, n: int, piece_budget: int = 1_000_000
) -> tuple[PeriodicOrbit, ...]:
    """All orbits of minimal period exactly n, via the exact n-th iterate.

    The literal route: compose g = f^n, solve its fixed points piece by
    piece and walk each under f. An orbit's stability is read off g's
    one-sided slopes at its smallest point. It is the oracle periodic_orbits
    is tested against; piece_budget bounds the pieces of g.
    """
    if n < 1:
        raise ConstraintViolation(f"period must be >= 1, got {n}")
    g = f if n == 1 else f.compose_self(n, piece_budget)
    orbits: dict[Rat, PeriodicOrbit] = {}
    consumed: set[Rat] = set()
    for x in iterate_fixed_points(g):
        if x in consumed:
            continue
        cycle = _cycle(f, x, n)
        if cycle is None:
            raise StructureError("iterate fixed point does not close under the map")
        consumed.update(cycle)
        if len(cycle) == n:
            p = min(cycle)
            i = cycle.index(p)
            stability = _stability(g.left_slope(p), g.right_slope(p))
            orbits[p] = PeriodicOrbit(cycle[i:] + cycle[:i], n, stability)
    return tuple(orbits[k] for k in sorted(orbits))


@dataclass(frozen=True)
class PeriodSetReport(Wire):
    """Outcome of a period search, honest about its coverage.

    exhaustive: True when the structural route certified the set complete for
    every n, not only n <= n_max_checked. complete: the sweep reached its
    target without budget failures.
    """

    periods: frozenset[int]
    n_max_checked: int
    complete: bool
    exhaustive: bool = False
    stopped_early: bool = False
    stop_witness: PeriodicOrbit | None = None
    budget_note: str | None = None
    representatives: dict[int, PeriodicOrbit] = field(default_factory=dict)


def period_set(
    f: PiecewiseLinearMap,
    n_max: int,
    piece_budget: int = 1_000_000,
    stop_on_non_power_of_two: bool = False,
    point_budget: int = 4096,
) -> PeriodSetReport:
    """Minimal periods n = 1..n_max, each represented by its lowest orbit."""
    if n_max < 1:
        raise ConstraintViolation(f"n_max must be >= 1, got {n_max}")
    reps: dict[int, PeriodicOrbit] = {}
    n = 0
    note = None
    witness = None
    try:
        for n, orbits in periodic_orbits(f, n_max, piece_budget, point_budget):
            if not orbits:
                continue
            reps[n] = orbits[0]
            if stop_on_non_power_of_two and n & (n - 1) != 0:
                witness = orbits[0]
                break
    except (BudgetExceeded, StructureError) as e:
        note = str(e)
    return PeriodSetReport(
        periods=frozenset(reps),
        n_max_checked=n,
        complete=note is None and witness is None,
        stopped_early=witness is not None,
        stop_witness=witness,
        budget_note=note,
        representatives=reps,
    )


def markov_orbit_inventory(
    f: PiecewiseLinearMap, point_budget: int = 4096
) -> tuple[PeriodicOrbit, ...]:
    """Every periodic orbit of a zero-entropy map, via bare cell cycles.

    Every recurrent class must be a bare cycle, else StructureError: with a
    branching class the orbit list is infinite.
    """
    sys = build_markov_system(f, point_budget)
    if sys.recurrence.branching:
        raise StructureError("recurrent class branches; structural period set unavailable")
    return _bare_cycle_orbits(sys)


def _bare_cycle_orbits(sys: MarkovSystem) -> tuple[PeriodicOrbit, ...]:
    """The orbit of each bare cycle, then the cycles of f on the partition.

    A bare cycle's composed affine branch has one fixed point in its first
    cell, b/(den*m) in integers (see _orbits_from_cell). On the partition it
    is a cycle of f there, read from image; off it, walked through the
    branches it tours the cycle, and both one-sided slopes of f^n are the
    composed slope. The partition cycles add the attracting plateau cycles
    the graph cannot see.
    """
    nums = sys.nums
    orbits: dict[tuple[Rat, ...], PeriodicOrbit] = {}
    for cyc in sys.recurrence.cycles:
        a, b = 1, 0
        for row in cyc:
            s, t = sys.branches[row]
            a, b = s * a, s * b + t
        if a == 1:
            raise StructureError("neutral cycle composition; cannot solve fixed point")
        m = 1 - a
        if m < 0:
            m, b = -m, -b
        cell = sys.nonflat[cyc[0]]
        if not nums[cell] * m <= b <= nums[cell + 1] * m:
            raise StructureError("cycle fixed point escaped its cell")
        i = bisect_left(nums, b // m)
        if b % m == 0 and nums[i] == b // m:
            cycle = [i]
            while sys.image[cycle[-1]] != i:
                cycle.append(sys.image[cycle[-1]])
            orb = _partition_orbit(sys, tuple(cycle))
        else:
            cs = [b]
            for row in cyc[:-1]:
                s, t = sys.branches[row]
                cs.append(s * cs[-1] + t * m)
            k = cs.index(min(cs))
            orb = _off_partition_orbit(cs[k:] + cs[:k], sys.den * m, a)
        orbits.setdefault(orb.points, orb)
    for orb in _partition_cycles(sys):
        orbits.setdefault(orb.points, orb)
    return tuple(orbits.values())


def complete_period_set(f: PiecewiseLinearMap, point_budget: int = 4096) -> PeriodSetReport:
    """Exhaustive period set through the Markov graph; zero-entropy maps only."""
    reps: dict[int, PeriodicOrbit] = {}
    for orb in markov_orbit_inventory(f, point_budget):
        reps.setdefault(orb.period, orb)
    return PeriodSetReport(
        periods=frozenset(reps),
        n_max_checked=max(reps) if reps else 0,
        complete=True,
        exhaustive=True,
        representatives=reps,
    )


def periodic_orbits(
    f: PiecewiseLinearMap, n_max: int, piece_budget: int = 1_000_000, point_budget: int = 4096
) -> Iterator[tuple[int, tuple[PeriodicOrbit, ...]]]:
    """Yield (n, orbits of minimal period n) for n = 1..n_max.

    Each tuple is sorted by smallest point, as periodic_points lists it. The
    Markov graph of f is built once under point_budget (a
    BudgetExceeded("partition") surfaces at n = 1); classify passes the
    partition budget its entropy stage used, so both read one graph.
    When no recurrent class branches, the bare-cycle inventory answers every
    n at once. Otherwise the orbits of period n are read off the closed walks
    of length n (_walk_orbits); their count trace(A^n) is checked against
    piece_budget before any is enumerated, and a BudgetExceeded("walks")
    surfaces at the n that needed it.
    """
    sys = build_markov_system(f, point_budget)
    if not sys.recurrence.branching:
        ordered = sorted(_bare_cycle_orbits(sys), key=lambda o: o.points[0])
        for n in range(1, n_max + 1):
            yield n, tuple(o for o in ordered if o.period == n)
        return
    yield from _walk_orbits(sys, n_max, piece_budget)


_INT64_MAX = (1 << 63) - 1


def _run_product(lo: np.ndarray, hi: np.ndarray, p: np.ndarray, pre: np.ndarray) -> None:
    """Overwrite p with A @ p, for the 0/1 matrix A whose row a is 1 exactly on
    columns lo[a] .. hi[a] - 1.

    pre is a (k + 1) x k buffer of p's dtype with pre[0] = 0. It takes the
    prefix sums of p's rows, pre[i + 1] = p[0] + ... + p[i], so row a of the
    product is pre[hi[a]] - pre[lo[a]]: O(k^2), and an empty run gives a zero
    row. Once the sums are taken p is free to hold the product.
    """
    np.cumsum(p, axis=0, out=pre[1:])
    np.take(pre, hi, axis=0, out=p)
    p -= pre[lo]


def _walk_powers(sys: MarkovSystem) -> Iterator[np.ndarray]:
    """A, A^2, A^3, ... for the transition matrix A of a graph, each product
    through its successor ranges, from the identity on: A is never written out.

    A^n = A @ A^(n-1) is read off the prefix sums of A^(n-1)'s rows
    (_run_product): O(k^2) per power, where a dense product costs O(k^3).
    A^n is kept in int64 while its largest entry is at most INT64_MAX // k,
    in Python integers after that, so it stays exact: every prefix sum, and
    so every entry of the next power, is at most k times that entry. One
    buffer holds the powers and one the prefix sums, so each yielded array
    is overwritten by the next power.
    """
    k = len(sys.successors)
    lo, hi = np.array([(r.start, r.stop) for r in sys.successors], dtype=np.intp).T
    power = np.eye(k, dtype=np.int64)
    pre = np.zeros((k + 1, k), dtype=np.int64)
    while True:
        if power.dtype != object and power.max() > _INT64_MAX // k:
            power = power.astype(object)
            pre = np.zeros((k + 1, k), dtype=object)
        _run_product(lo, hi, power, pre)
        yield power


def _walk_orbits(
    sys: MarkovSystem, n_max: int, piece_budget: int
) -> Iterator[tuple[int, tuple[PeriodicOrbit, ...]]]:
    """periodic_orbits on a graph with a branching class.

    f maps the partition P into itself, so an orbit either lies in P, where
    it is a cycle of f on a finite set, or avoids P. An orbit that avoids P
    visits the interiors of nonflat cells, and its itinerary from each point
    is a closed walk of length n in the cell graph; conversely the affine
    branch composed along a closed walk maps its cylinder onto its first
    cell, so it has exactly one fixed point there (or is the identity). That
    makes the orbits of period n off P the fixed points, off P, of the closed
    walks of length n, one walk per orbit point. Every branch is x -> s*x +
    t/den with integers s and t (build_markov_system refuses a map with a
    non-integer slope), so the walks are composed in integers.

    The walks are counted (trace(A^n), checked against piece_budget) and
    pruned by the powers of A. _walk_powers forms them through the successor
    ranges, sys.successors, O(k^2) each, and exactly: in int64 while no
    prefix sum can overflow, in Python integers after. The depth-first walks
    step along the same ranges.
    """
    k = len(sys.successors)
    lattice = frozenset(sys.nums)
    cycles = _partition_cycles(sys)
    # bit u of back[m][s]: some walk of length m leads from cell u to cell s
    back = [[1 << s for s in range(k)]]
    for n, power in zip(range(1, n_max + 1), _walk_powers(sys)):
        walks = int(np.trace(power))
        if walks > piece_budget:
            raise BudgetExceeded("walks", piece_budget, needed=walks)
        packed = np.packbits(power > 0, axis=0, bitorder="little")
        back.append([int.from_bytes(packed[:, s].tobytes(), "little") for s in range(k)])
        found = [o for o in cycles if o.period == n]
        for s0 in range(k):
            if back[n][s0] >> s0 & 1:
                found += _orbits_from_cell(sys, s0, n, back, lattice)
        found.sort(key=lambda o: o.points[0])
        yield n, tuple(found)


def _orbits_from_cell(sys: MarkovSystem, s0, n, back, lattice) -> list[PeriodicOrbit]:
    """Orbits of minimal period n off the partition whose smallest point lies in cell s0.

    Depth-first over the closed walks of length n from s0 through cells
    >= s0, so each orbit is met only from its lowest cell. Walks share their
    prefixes: a stack entry carries the affine branch x -> a*x + b/den
    composed along its walk so far, in integers: entering a cell with branch
    (s, t) makes it (s*a, s*b + t). A step is taken only when the cell it
    enters can still return to s0 in the steps left.

    A closed walk's fixed point is b/(den*m) with m = 1 - a, signs chosen so
    that m > 0. It is on the partition when den*x = b/m is one of the
    partition's numerators (lattice). Otherwise it is kept when walking it
    through the branches, as numerators c over den*m (c -> s*c + t*m), meets
    no point at or below it: the orbit's smallest point, with minimal period
    n. Only a kept orbit's points become Fractions. Off the partition both
    one-sided slopes of f^n are a.
    """
    branch, succ = sys.branches, sys.successors
    home = [back[m][s0] for m in range(n)]  # bit u of home[m]: u returns to s0 in m steps
    path = [s0] * n
    found = []
    s, t = branch[s0]
    stack = [(0, s0, s, t)]
    while stack:
        d, c, a, b = stack.pop()
        path[d] = c
        if d < n - 1:
            ok = home[n - d - 1]
            for u in succ[c]:
                if u >= s0 and ok >> u & 1:
                    s, t = branch[u]
                    stack.append((d + 1, u, s * a, s * b + t))
            continue
        m = 1 - a
        if m == 0:
            if b == 0:
                raise StructureError("slope-1 closed walk fixed pointwise; continuum of solutions")
            continue
        if m < 0:
            m, b = -m, -b
        if b % m == 0 and b // m in lattice:
            continue
        cs = [b]
        for cell in path[:-1]:
            s, t = branch[cell]
            y = s * cs[-1] + t * m
            if y <= b:
                break
            cs.append(y)
        else:
            found.append(_off_partition_orbit(cs, sys.den * m, a))
    return found


def _off_partition_orbit(cs: list[int], q: int, slope: int) -> PeriodicOrbit:
    """The orbit through the points c/q, in orbit order, whose f^n has this slope on both sides."""
    return PeriodicOrbit(tuple(Fraction(c, q) for c in cs), len(cs), _stability(slope, slope))


def _partition_orbit(sys: MarkovSystem, cycle: tuple[int, ...]) -> PeriodicOrbit:
    """The orbit of a cycle of f on the partition, given by index, from its smallest point."""
    k = cycle.index(min(cycle))
    idx = cycle[k:] + cycle[:k]
    return PeriodicOrbit(
        tuple(sys.points[i] for i in idx),
        len(idx),
        _stability(sys.side_slope(idx, -1), sys.side_slope(idx, +1)),
    )


def _partition_cycles(sys: MarkovSystem) -> tuple[PeriodicOrbit, ...]:
    """The periodic orbits through partition points, plateau cycles among them:
    f maps the partition into itself, so they are the cycles of f on a finite set."""
    orbits = []
    seen = [False] * len(sys.points)
    for i in range(len(sys.points)):
        trail: dict[int, int] = {}  # point index -> step, along the orbit from i
        while not seen[i]:
            seen[i] = True
            trail[i] = len(trail)
            i = sys.image[i]
        if i in trail:
            orbits.append(_partition_orbit(sys, tuple(trail)[trail[i]:]))
    return tuple(orbits)


# === Sharkovskii order ===


def _sharkovskii_key(n: int):
    if n < 1:
        raise StructureError("periods are positive")
    e = 0
    m = n
    while m % 2 == 0:
        e += 1
        m //= 2
    if m > 1:
        return (0, e, m)
    return (1, -e, 0)


def sharkovskii_forces(a: int, b: int) -> bool:
    """True when the presence of period a forces period b (a at or before b)."""
    return _sharkovskii_key(a) <= _sharkovskii_key(b)


def sharkovskii_closure(periods, n_max: int) -> frozenset[int]:
    """All periods <= n_max forced by the given set."""
    ps = set(periods)
    return frozenset(
        b for b in range(1, n_max + 1) if any(sharkovskii_forces(a, b) for a in ps)
    )


def omega_accumulation(
    f: PiecewiseLinearMap,
    k_min: int,
    k_max: int,
    cluster_radius,
    piece_budget: int = 1_000_000,
    point_budget: int = 4096,
) -> tuple[Rat, ...]:
    """Cluster centers of 2^k-periodic points, k_min <= k <= k_max.

    Approximates where high-period doubling orbits pile up. Points closer
    than cluster_radius merge; centers are hull midpoints, exact.
    periodic_orbits reads the orbits off the Markov graph on either side of
    the boundary, so f is never composed to the 2^k-th power, which would
    grind on the huge denominators the boundary refinement produces.
    """
    radius = Fraction(cluster_radius)
    wanted = {1 << k for k in range(k_min, k_max + 1)}
    pts: set[Rat] = set()
    for n, orbits in periodic_orbits(f, 1 << k_max, piece_budget, point_budget):
        if n in wanted:
            for orb in orbits:
                pts.update(orb.points)
    if not pts:
        return ()
    ordered = sorted(pts)
    centers: list[Rat] = []
    lo = hi = ordered[0]
    for x in ordered[1:]:
        if x - hi <= radius:
            hi = x
        else:
            centers.append((lo + hi) / 2)
            lo = hi = x
    centers.append((lo + hi) / 2)
    return tuple(centers)
