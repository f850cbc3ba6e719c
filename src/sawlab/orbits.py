"""Periodic orbits, period sets, and stability.

Periodic points of a rational PL map solve affine equations piece by piece on
the exact iterate, so everything here is exact. One enumerator,
periodic_orbits, lists the orbits of each period for every caller that sweeps
periods (period_set, find_homoclinic, omega_accumulation). It goes
structural first: when every recurrent class of the Markov graph is a bare
cycle (the zero entropy situation) the graph lists every periodic orbit at
once, and only otherwise does it compose the iterates f^n one at a time.

periodic_points (f^n by repeated squaring) is the literal reference route the
tests compare the enumerator against; complete_period_set is the exhaustive
all-periods answer of the structural route.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, ConstraintViolation, StructureError
from .markov import build_markov_system, cycle_orbit_point
from .plmap import PiecewiseLinearMap
from .rational import Rat, format_rat


def orbit_side_slope(f: PiecewiseLinearMap, points, side: int) -> Rat:
    """Derivative of f^n along an orbit, taken from one side at the start.

    Chain rule with side tracking: a negative slope reflects the approach
    side, a zero slope kills the product for good. points is the orbit
    x_0 .. x_{n-1}; side is -1 (left) or +1 (right) at x_0. At domain edges
    the only available side is used.
    """
    total = Fraction(1)
    cur = side
    for p in points:
        if p == 0:
            cur = 1
        elif p == 1:
            cur = -1
        s = f.left_slope(p) if cur < 0 else f.right_slope(p)
        if s == 0:
            return Fraction(0)
        total *= s
        if s < 0:
            cur = -cur
    return total


def classify_stability(f: PiecewiseLinearMap, cycle_points) -> str:
    left = orbit_side_slope(f, cycle_points, -1)
    right = orbit_side_slope(f, cycle_points, +1)
    al, ar = abs(left), abs(right)
    if al < 1 and ar < 1:
        if left == 0 and right == 0:
            return "superattracting_plateau"
        return "attracting"
    if al > 1 and ar > 1:
        return "repelling"
    return "one_sided_attracting"


@dataclass(frozen=True)
class PeriodicOrbit:
    """One periodic orbit, points in orbit order starting at the smallest."""

    points: tuple[Rat, ...]
    period: int
    stability: str

    def to_json(self) -> dict:
        return {
            "points": [format_rat(p) for p in self.points],
            "period": self.period,
            "stability": self.stability,
        }


def _canonical_orbit(f: PiecewiseLinearMap, x: Rat, period: int) -> PeriodicOrbit:
    pts = [x]
    for _ in range(period - 1):
        pts.append(f(pts[-1]))
    k = pts.index(min(pts))
    pts = pts[k:] + pts[:k]
    return PeriodicOrbit(tuple(pts), period, classify_stability(f, pts))


def _minimal_period(f: PiecewiseLinearMap, x: Rat, n: int) -> int | None:
    """Minimal p <= n with f^p(x) = x, or None."""
    cur = x
    for p in range(1, n + 1):
        cur = f(cur)
        if cur == x:
            return p
    return None


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


def orbits_of_iterate(
    f: PiecewiseLinearMap, g: PiecewiseLinearMap, n: int
) -> tuple[PeriodicOrbit, ...]:
    """Orbits of minimal period exactly n, given the precomputed iterate g = f^n."""
    orbits: dict[Rat, PeriodicOrbit] = {}
    consumed: set[Rat] = set()
    for x in iterate_fixed_points(g):
        if x in consumed:
            continue
        p = _minimal_period(f, x, n)
        if p is None:
            raise StructureError("iterate fixed point does not close under the map")
        orb = _canonical_orbit(f, x, p)
        consumed.update(orb.points)
        if p == n:
            orbits[orb.points[0]] = orb
    return tuple(orbits[k] for k in sorted(orbits))


def periodic_points(
    f: PiecewiseLinearMap, n: int, piece_budget: int = 1_000_000
) -> tuple[PeriodicOrbit, ...]:
    """All orbits of minimal period exactly n, via the exact n-th iterate."""
    if n < 1:
        raise ConstraintViolation(f"period must be >= 1, got {n}")
    g = f if n == 1 else f.compose_self(n, piece_budget)
    return orbits_of_iterate(f, g, n)


@dataclass(frozen=True)
class PeriodSetReport:
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

    def to_json(self) -> dict:
        return {
            "periods": sorted(self.periods),
            "n_max_checked": self.n_max_checked,
            "complete": self.complete,
            "exhaustive": self.exhaustive,
            "stopped_early": self.stopped_early,
            "stop_witness": self.stop_witness.to_json() if self.stop_witness else None,
            "budget_note": self.budget_note,
            "representatives": {
                str(p): o.to_json() for p, o in sorted(self.representatives.items())
            },
        }


def period_set(
    f: PiecewiseLinearMap,
    n_max: int,
    piece_budget: int = 1_000_000,
    stop_on_non_power_of_two: bool = False,
) -> PeriodSetReport:
    """Minimal periods n = 1..n_max, each represented by its lowest orbit."""
    if n_max < 1:
        raise ConstraintViolation(f"n_max must be >= 1, got {n_max}")
    reps: dict[int, PeriodicOrbit] = {}
    n = 0
    note = None
    witness = None
    try:
        for n, orbits in periodic_orbits(f, n_max, piece_budget):
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
    f: PiecewiseLinearMap, point_budget: int = 4096, max_steps: int = 100_000
) -> tuple[PeriodicOrbit, ...]:
    """Every periodic orbit of a zero-entropy map, via bare cell cycles.

    Every recurrent class must be a bare cycle, else StructureError: with a
    branching class the orbit list is infinite. Bare cycles contribute their
    solved orbit points; plateau values contribute the attracting cycles the
    graph cannot see.
    """
    sys = build_markov_system(f, point_budget)
    if sys.recurrence.branching:
        raise StructureError("recurrent class branches; structural period set unavailable")
    orbits: dict[tuple[Rat, ...], PeriodicOrbit] = {}
    for cyc in sys.recurrence.cycles:
        x = cycle_orbit_point(sys, cyc)
        p = _minimal_period(f, x, len(cyc))
        if p is None:
            raise StructureError("cycle point does not close under the map")
        orb = _canonical_orbit(f, x, p)
        orbits.setdefault(orb.points, orb)
    for plat in f.plateaus():
        rec = f.orbit_eventually_periodic(f(plat.lo), max_steps)
        orb = _canonical_orbit(f, rec.points[rec.preperiod], rec.period)
        orbits.setdefault(orb.points, orb)
    return tuple(orbits.values())


def complete_period_set(
    f: PiecewiseLinearMap, point_budget: int = 4096, max_steps: int = 100_000
) -> PeriodSetReport:
    """Exhaustive period set through the Markov graph; zero-entropy maps only."""
    reps: dict[int, PeriodicOrbit] = {}
    for orb in markov_orbit_inventory(f, point_budget, max_steps):
        reps.setdefault(orb.period, orb)
    return PeriodSetReport(
        periods=frozenset(reps),
        n_max_checked=max(reps) if reps else 0,
        complete=True,
        exhaustive=True,
        representatives=reps,
    )


def periodic_orbits(
    f: PiecewiseLinearMap, n_max: int, piece_budget: int = 1_000_000
) -> Iterator[tuple[int, tuple[PeriodicOrbit, ...]]]:
    """Yield (n, orbits of minimal period n) for n = 1..n_max.

    Each tuple is sorted by smallest point, as orbits_of_iterate lists it.
    When every recurrent class is a bare cycle the Markov inventory answers
    every n at once. Otherwise f^n is composed from f^(n-1) as n grows, and a
    BudgetExceeded from that composition surfaces at the n that needed it.
    """
    try:
        inventory = markov_orbit_inventory(f)
    except (StructureError, BudgetExceeded):
        inventory = None
    if inventory is not None:
        ordered = sorted(inventory, key=lambda o: o.points[0])
        for n in range(1, n_max + 1):
            yield n, tuple(o for o in ordered if o.period == n)
        return
    g = f
    for n in range(1, n_max + 1):
        if n > 1:
            g = g.compose_with(f, piece_budget)
        yield n, orbits_of_iterate(f, g, n)


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
) -> tuple[Rat, ...]:
    """Cluster centers of 2^k-periodic points, k_min <= k <= k_max.

    Approximates where high-period doubling orbits pile up. Points closer
    than cluster_radius merge; centers are hull midpoints, exact. At the
    zero-entropy maps this is used on, periodic_orbits reads the orbits off
    the Markov graph; composing f to the 2^k-th power would grind on the huge
    denominators the boundary refinement produces.
    """
    radius = Fraction(cluster_radius)
    wanted = {1 << k for k in range(k_min, k_max + 1)}
    pts: set[Rat] = set()
    for n, orbits in periodic_orbits(f, 1 << k_max, piece_budget):
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
