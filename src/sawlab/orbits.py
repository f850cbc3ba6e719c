"""Periodic orbits, period sets, and stability.

Periodic points of a rational PL map solve affine equations, so everything
here is exact. One answer, WalkTable.period, gives the orbits of minimal
period n to every caller: periodic_orbits sweeps it for period_set,
find_homoclinic and the gap report, orbits_of_period reads one n for `sawlab
orbits --period`, and omega_accumulation reads the powers of 2. The table
reads them off the Markov graph, which records f on the partition points and
the affine branch of each nonflat cell: no iterate is composed and no orbit
is walked under f. When every recurrent class is a bare cycle (the zero
entropy situation) the table holds every periodic orbit at once
(markov_orbit_inventory): one solved orbit per bare cycle plus the cycles of
f on the partition, the plateau cycles among them. Otherwise the orbits of
period n are the partition cycles plus one orbit per closed walk of length n
in the cell graph whose fixed point avoids the partition (Block,
Guckenheimer, Misiurewicz and Young, 1980).

A closed walk never leaves its strongly connected class, so the walks are
enumerated class by class, and their count is trace(A^n) = sum over the
recurrent classes C of trace(A_C^n). A bare cycle of length p has p closed
walks of each length n divisible by p and one orbit, solved from its composed
branch with no power of A. Every closed walk in a branching class of period d
has a length divisible by d (Frobenius; Gantmacher, The Theory of Matrices
II, ch. XIII), so its block A_C is first powered when a sweep reaches n = d,
and transient cells never are.

The walks are kept at two lifetimes. Counts, powers and reachability bits,
in Python integers, read only the successor runs, so they sit in one
WalkCounts per combinatorial type (markov.Combinatorics.walks), shared by
every map of the type while its entry stays in the type cache. What reads
the map's numbers, its partition, its cycles there, its bare cycles' orbits
and the branches of its cells, sits in one WalkTable per graph
(MarkovSystem.walks), with the orbits each period solved.

An orbit stays integers until a caller reads its points: a PeriodicOrbit
holds numerators over one denominator, den for a partition cycle and den*m
for a closed walk's fixed point, and makes its Fractions on first read.
Each period's orbits are sorted on one Fraction per orbit, its smallest
point, and the bare cycles are matched with the partition cycles on the
smallest point's reduced pair; the period sweep and the homoclinic search
read no orbit's points.

periodic_points (f^n by repeated squaring, then its fixed points piece by
piece, and each orbit's stability from the one-sided slopes of f^n at its
smallest point) is the literal reference route the tests compare the
enumerator against; nothing in the package calls it. complete_period_set is
the exhaustive all-periods answer of the structural route.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress
from math import gcd, lcm

from .errors import BudgetExceeded, ConstraintViolation, StructureError
from .markov import MarkovSystem, Recurrence, build_markov_system
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


@dataclass(frozen=True, eq=False)
class PeriodicOrbit(Wire):
    """One periodic orbit, in orbit order from its smallest point: the
    points nums[i]/q over one positive denominator q, which need not be the
    least (the walk table solves an orbit over den*m). points, the
    Fractions, are made on first read; to_json writes each point's "p/q"
    from (c, q) with one gcd, and equality and hashing read the least common
    denominator, so neither makes a Fraction."""

    nums: tuple[int, ...]
    q: int
    period: int
    stability: str

    @cached_property
    def points(self) -> tuple[Rat, ...]:
        return tuple(Fraction(c, self.q) for c in self.nums)

    @cached_property
    def _key(self) -> tuple:
        g = gcd(self.q, *self.nums)
        return tuple(c // g for c in self.nums), self.q // g, self.period, self.stability

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def to_json(self) -> dict:
        points = ["%d/%d" % _reduced(c, self.q) for c in self.nums]
        return {"points": points, "period": self.period, "stability": self.stability}


def _orbit_of(points: Sequence[Rat], stability: str) -> PeriodicOrbit:
    """The orbit through these Fractions, over their least common denominator."""
    q = lcm(*(x.denominator for x in points))
    nums = tuple(x.numerator * (q // x.denominator) for x in points)
    return PeriodicOrbit(nums, q, len(points), stability)


def _low(orbit: PeriodicOrbit) -> Rat:
    """An orbit's smallest point, the one Fraction its sort key needs."""
    return Fraction(orbit.nums[0], orbit.q)


def _reduced(c: int, q: int) -> tuple[int, int]:
    """c/q in lowest terms, as an integer pair."""
    g = gcd(c, q)
    return c // g, q // g


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
        # x = f^n(x), so its orbit first repeats at x itself within n steps
        cycle = f.orbit_eventually_periodic(x, n).cycle
        consumed.update(cycle)
        if len(cycle) == n:
            p = min(cycle)
            i = cycle.index(p)
            stability = _stability(g.left_slope(p), g.right_slope(p))
            orbits[p] = _orbit_of(cycle[i:] + cycle[:i], stability)
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
    branching class the orbit list is infinite. A refused period (see
    _cycle_orbits) raises StructureError too.
    """
    table = build_markov_system(f, point_budget).walks
    if table.shape.blocks:
        raise StructureError("recurrent class branches; structural period set unavailable")
    if table.refused:
        raise StructureError(next(iter(table.refused.values())))
    return table.orbits


_CONTINUUM = "slope-1 closed walk fixed pointwise; continuum of solutions"


def _cycle_orbits(sys: MarkovSystem) -> tuple[tuple[PeriodicOrbit, ...], dict[int, str]]:
    """The orbit each bare cycle carries, in recurrence order, then the
    cycles of f on the partition, plateau cycles among them, each orbit once;
    and the refused periods, each with its first refusing cycle's message.
    Each bare cycle is solved once (_bare_cycle_tour), as the walk table is
    built; on the partition its orbit is the partition cycle with its
    smallest point. A cycle of p cells refuses p when its composed slope is 1
    or its fixed point escapes its cell, and 2p when its slope is -1."""
    cycles = {_reduced(o.nums[0], o.q): o for o in _partition_cycles(sys)}
    orbits: dict[tuple[int, int], PeriodicOrbit] = {}  # by smallest point, reduced
    refused: dict[int, str] = {}
    for cyc in sys.recurrence.cycles:
        try:
            a, cs, m = _bare_cycle_tour(sys, cyc)
        except StructureError as e:
            refused.setdefault(len(cyc), str(e))
            continue
        if a == -1:
            refused.setdefault(2 * len(cyc), _CONTINUUM)
        low = _reduced(cs[0], sys.den * m)
        orbits.setdefault(low, cycles.get(low) or _off_partition_orbit(cs, sys.den * m, a))
    return tuple({**orbits, **cycles}.values()), refused  # the partition cycles last


def _bare_cycle_tour(sys: MarkovSystem, cyc: tuple[int, ...]) -> tuple[int, list[int], int]:
    """Solve a bare cycle of p cells, cyc in tour order: the slope a of the
    branch composed along the tour, and the one orbit the cycle carries, as
    numerators cs over den*m (m > 0) from its smallest point.

    The composed branch maps the first cell onto itself, so it has one fixed
    point there, b/(den*m) in integers (see _orbits_from_cell); walked
    through the branches, c -> s*c + t*m, it tours the cycle. Either every
    point of the orbit is a partition point or none is, and off the
    partition its minimal period is p and both one-sided slopes of f^p are
    a. A slope of 1 fixes the cell pointwise and raises StructureError. A
    slope of -1 reflects the cell about the fixed point, so every other point
    of the cell has minimal period 2p: a continuum, which _cycle_orbits
    refuses.
    """
    nums = sys.nums
    a, b = 1, 0
    for row in cyc:
        s, t = sys.branches[row]
        a, b = s * a, s * b + t
    if a == 1:
        raise StructureError(_CONTINUUM)
    m = 1 - a
    if m < 0:
        m, b = -m, -b
    cell = sys.nonflat[cyc[0]]
    if not nums[cell] * m <= b <= nums[cell + 1] * m:
        raise StructureError("cycle fixed point escaped its cell")
    cs = [b]
    for row in cyc[:-1]:
        s, t = sys.branches[row]
        cs.append(s * cs[-1] + t * m)
    k = cs.index(min(cs))
    return a, cs[k:] + cs[:k], m


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

    Each tuple is WalkTable.period's answer, sorted by smallest point as
    periodic_points lists it. The Markov graph of f is built once under
    point_budget (a BudgetExceeded("partition") surfaces at n = 1); classify
    passes the partition budget its entropy stage used, so both read one
    graph. A walk count trace(A^n) past piece_budget, or a refused period,
    surfaces at the n that needed it: the sweeps that stop early (period_set,
    find_homoclinic) never pay for the counts past their stop.
    """
    table = build_markov_system(f, point_budget).walks
    for n in range(1, n_max + 1):
        yield n, table.period(n, piece_budget)


def orbits_of_period(
    f: PiecewiseLinearMap, n: int, piece_budget: int = 1_000_000, point_budget: int = 4096
) -> tuple[PeriodicOrbit, ...]:
    """The orbits of minimal period n (WalkTable.period), once every walk
    count up to n has passed piece_budget (WalkTable.check): a period past
    the budget is refused before any walk is solved. With no branching class
    it reads the cycles' orbits alone, at any n."""
    if n < 1:
        raise ConstraintViolation(f"period must be >= 1, got {n}")
    table = build_markov_system(f, point_budget).walks
    table.check(n, piece_budget)
    return table.period(n, piece_budget)


def _run_product(runs: Sequence[range], cols: list[list[int]]) -> list[list[int]]:
    """A @ P, in Python integers and by columns, for the 0/1 matrix A whose
    row a is 1 exactly on the columns in runs[a]. Row a of A @ v is the sum of
    v over runs[a], a difference of two prefix sums of v: O(k) per column, and
    an empty run gives a zero row."""
    out = []
    for col in cols:
        pre = list(accumulate(col, initial=0))
        out.append([pre[r.stop] - pre[r.start] for r in runs])
    return out


def _class_runs(successors: Sequence[range], members: Sequence[int]) -> tuple[range, ...]:
    """Each member's successors among the members, as indices into members.

    members is a sorted list of cells. A successor range is one contiguous
    run of cells, so the members inside it are one contiguous run of
    members, found by bisection at its two ends.
    """
    return tuple(
        range(bisect_left(members, r.start), bisect_left(members, r.stop))
        for r in (successors[v] for v in members)
    )


class _Block:
    """One branching class of period d, in member coordinates: its members
    (cells, ascending), each member's successor run among the members, the
    last power of the block A_C formed, as a list of columns, the traces of
    its powers, and back[m][s], whose bit u is set when a walk of length m
    leads from member u to s.

    A_C holds every walk of length n inside C, since a closed walk never
    leaves its class, and A_C^n = A_C @ A_C^(n-1) goes through the runs
    (_run_product): O(k^2) for k members where a dense product costs
    O(k^3), and Python integers keep every entry exact at any size. The
    zeroth power, the k x k identity, is formed by the first trace: a class
    whose period passes every sweep's n_max is never powered, and holds no
    k^2 table.
    """

    def __init__(self, successors: Sequence[range], members: list[int], d: int):
        self.members, self.d = members, d
        self.runs = _class_runs(successors, members)
        self.back: list[list[int]] = []
        self.traces: list[int] = []

    def trace(self, n: int) -> int:
        """trace(A_C^n), the block powered to n first. Each power is stored
        only once it is whole, so a sweep cut off inside a product (by an
        interrupt, say) leaves the block, which every graph of its type
        shares, as it was."""
        if not self.back:
            k = len(self.members)
            self.power = [[int(u == s) for u in range(k)] for s in range(k)]
            self.bits = [1 << u for u in range(k)]
            self.traces = [k]
            self.back = [self.bits]
        while len(self.back) <= n:
            power = _run_product(self.runs, self.power)
            back = [sum(compress(self.bits, col)) for col in power]
            trace = sum(col[s] for s, col in enumerate(power))
            self.power = power
            self.back.append(back)
            self.traces.append(trace)
        return self.traces[n]


class WalkCounts:
    """The closed walks of one combinatorial type, counted: the lengths of
    its bare cycles, a _Block per branching class, and counts[n] =
    trace(A^n), the closed walks of length n. A bare cycle of length p adds
    p when p divides n, a block its trace, which is 0 below its period d; so
    a block is first powered at n = d, and the counts grow only when a sweep
    asks for an n past every earlier one.

    Everything here reads the successor runs alone, so Combinatorics.walks
    keeps one per type, and every graph of the type reads it while the
    type's entry stays in the cache. It holds no map's numbers; each sweep
    compares its own piece_budget with the counts.
    """

    def __init__(self, successors: Sequence[range], rec: Recurrence):
        self.lengths = [len(cyc) for cyc in rec.cycles]
        self.blocks = [
            _Block(successors, sorted(comp), d) for comp, d in zip(rec.branching, rec.periods)
        ]
        self.counts = [0]

    def check(self, n: int, piece_budget: int) -> None:
        """Extend the counts to n; BudgetExceeded("walks") when trace(A^n)
        passes piece_budget."""
        while len(self.counts) <= n:
            m = len(self.counts)
            walks = sum(p for p in self.lengths if m % p == 0)
            self.counts.append(walks + sum(b.trace(m) for b in self.blocks if b.d <= m))
        if self.counts[n] > piece_budget:
            raise BudgetExceeded("walks", piece_budget, needed=self.counts[n])


class WalkTable:
    """The periodic orbits of one Markov graph, shared by every query of
    that graph: MarkovSystem.walks builds it on first use, so it lives
    exactly as long as the cached graph. period answers "the orbits of
    minimal period n" for every caller, and check refuses a period past the
    walk budget before any walk is solved.

    It holds what the map's numbers decide: the partition's numerators over
    den (lattice), each block's branches, aligned with the type's blocks
    (WalkCounts, read as shape), the bare cycles' and partition cycles'
    orbits with the periods they refuse (orbits and refused, solved by
    _cycle_orbits as the table is built), and solved[n], the orbits of each
    period a sweep has reached.
    """

    def __init__(self, sys: MarkovSystem):
        self.shape = sys.combinatorics.walks
        self.den = sys.den
        self.lattice = frozenset(sys.nums)
        self.orbits, self.refused = _cycle_orbits(sys)
        self.branches = [tuple(sys.branches[v] for v in b.members) for b in self.shape.blocks]
        self.solved: list[tuple[PeriodicOrbit, ...]] = [()]

    def check(self, n: int, piece_budget: int) -> None:
        """Check every walk count trace(A^m), m <= n, against piece_budget
        (WalkCounts.check); nothing is counted when no class branches."""
        if self.shape.blocks:
            for m in range(1, n + 1):
                self.shape.check(m, piece_budget)

    def period(self, n: int, piece_budget: int) -> tuple[PeriodicOrbit, ...]:
        """The orbits of minimal period n, sorted by smallest point: the one
        answer every orbit query reads.

        With no branching class they are the cycles' orbits of period n, read
        at any n with no count checked, and any refused period raises the
        first refusal's StructureError. Otherwise each m <= n in turn is
        checked against piece_budget in the type's counts, raises its refusal
        (refused[m]) and is solved once per graph (_solve_period) into solved,
        so each period is solved after every one below it.
        """
        if not self.shape.blocks:
            if self.refused:
                raise StructureError(next(iter(self.refused.values())))
            return tuple(sorted((o for o in self.orbits if o.period == n), key=_low))
        for m in range(1, n + 1):
            self.shape.check(m, piece_budget)
            if m in self.refused:
                raise StructureError(self.refused[m])
            if m == len(self.solved):
                self.solved.append(_solve_period(self, m))
        return self.solved[n]


def _solve_period(table: WalkTable, n: int) -> tuple[PeriodicOrbit, ...]:
    """The orbits of minimal period n of a graph with a branching class,
    sorted by smallest point; the type's blocks are powered to n at least.

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

    A closed walk stays in one recurrent class, so the sweep runs class by
    class. The bare cycles' orbits, with the partition cycles, are read from
    table.orbits: a bare cycle's walks of length n > p tour it again and
    close no new orbit. A branching class of period d has closed walks only
    at the multiples of d, and the transient cells have none; the
    depth-first walks step along its block's runs.
    """
    found = [o for o in table.orbits if o.period == n]
    for block, branches in zip(table.shape.blocks, table.branches):
        if n % block.d == 0:
            for s0, bits in enumerate(block.back[n]):
                if bits >> s0 & 1:
                    found += _orbits_from_cell(block, branches, table.den, s0, n, table.lattice)
    found.sort(key=_low)
    return tuple(found)


def _orbits_from_cell(block: _Block, branches, den, s0, n, lattice) -> list[PeriodicOrbit]:
    """Orbits of minimal period n off the partition whose smallest point
    lies in member s0 of block, which is powered to n at least; branches
    lists the members' branches.

    Members are numbered in the cells' order. Depth-first over the closed
    walks of length n from s0 through members >= s0, so each orbit is met
    only from its lowest cell. Walks
    share their prefixes: a stack entry carries the affine branch x -> a*x +
    b/den composed along its walk so far, in integers: entering a cell with
    branch (s, t) makes it (s*a, s*b + t). A step is taken only when the
    member it enters can still return to s0 in the steps left.

    A closed walk's fixed point is b/(den*m) with m = 1 - a, signs chosen so
    that m > 0. It is on the partition when den*x = b/m is one of the
    partition's numerators (lattice). Otherwise it is kept when walking it
    through the branches, as numerators c over den*m (c -> s*c + t*m), meets
    no point at or below it: the orbit's smallest point, with minimal period
    n. A kept orbit holds those numerators over den*m and makes no
    Fraction. Off the partition both one-sided slopes of f^n are a.
    """
    runs = block.runs
    home = [block.back[m][s0] for m in range(n)]  # bit u of home[m]: u returns to s0 in m steps
    path = [s0] * n
    found = []
    s, t = branches[s0]
    stack = [(0, s0, s, t)]
    while stack:
        d, c, a, b = stack.pop()
        path[d] = c
        if d < n - 1:
            ok = home[n - d - 1]
            for u in runs[c]:
                if u >= s0 and ok >> u & 1:
                    s, t = branches[u]
                    stack.append((d + 1, u, s * a, s * b + t))
            continue
        m = 1 - a
        if m == 0:
            if b == 0:
                raise StructureError(_CONTINUUM)
            continue
        if m < 0:
            m, b = -m, -b
        if b % m == 0 and b // m in lattice:
            continue
        cs = [b]
        for cell in path[:-1]:
            s, t = branches[cell]
            y = s * cs[-1] + t * m
            if y <= b:
                break
            cs.append(y)
        else:
            found.append(_off_partition_orbit(cs, den * m, a))
    return found


def _off_partition_orbit(cs: list[int], q: int, slope: int) -> PeriodicOrbit:
    """The orbit through the points c/q, in orbit order, whose f^n has this slope on both sides."""
    return PeriodicOrbit(tuple(cs), q, len(cs), _stability(slope, slope))


def _partition_cycles(sys: MarkovSystem) -> tuple[PeriodicOrbit, ...]:
    """The periodic orbits through partition points, plateau cycles among them,
    each from its smallest point: f maps the partition into itself, so they
    are the cycles of f on a finite set."""
    orbits = []
    seen = [False] * len(sys.nums)
    for i in range(len(sys.nums)):
        trail: dict[int, int] = {}  # point index -> step, along the orbit from i
        while not seen[i]:
            seen[i] = True
            trail[i] = len(trail)
            i = sys.image[i]
        if i in trail:
            cycle = tuple(trail)[trail[i]:]
            k = cycle.index(min(cycle))
            idx = cycle[k:] + cycle[:k]
            stability = _stability(sys.side_slope(idx, -1), sys.side_slope(idx, +1))
            nums = tuple(sys.nums[j] for j in idx)
            orbits.append(PeriodicOrbit(nums, sys.den, len(idx), stability))
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
    Every walk count up to 2^k_max is checked first (WalkTable.check), then
    the walk table reads each period 2^k off the Markov graph on either side
    of the boundary, so f is never composed to the 2^k-th power, which would
    grind on the huge denominators the boundary refinement produces.
    """
    radius = Fraction(cluster_radius)
    table = build_markov_system(f, point_budget).walks
    table.check(1 << k_max, piece_budget)
    pts: set[Rat] = set()
    for k in range(k_min, k_max + 1):
        for orb in table.period(1 << k, piece_budget):
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
