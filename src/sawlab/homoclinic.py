"""Unstable sets and homoclinic search.

The unstable set of an expanding fixed point is computed as the stabilized
union of forward images of a shrinking seed neighborhood; for a point
expanding on both available sides every image contains the point, so the
union is an interval and the calculation is exact interval arithmetic.

A homoclinic witness for a repelling periodic orbit is a point x, not on the
orbit, lying strictly inside the unstable set and mapping onto the orbit
after finitely many steps. The search walks the preimage tree of the orbit's
base point, pruned hard by one fact: forward invariance of the unstable sets
means any candidate's whole forward chain must stay inside the matching
orbit-point's unstable set, so tree nodes outside it can be dropped with all
their descendants. On zero-entropy maps the pruned tree is finite, which is
what makes a definitive "no homoclinic point" answer possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, ConstraintViolation
from .orbits import PeriodicOrbit, orbit_side_slope, periodic_orbits
from .plmap import Ivl, PiecewiseLinearMap
from .rational import Rat, Wire

ZERO = Fraction(0)
ONE = Fraction(1)


def unstable_manifold(
    f: PiecewiseLinearMap,
    p,
    max_images: int = 256,
    seed_rounds: int = 12,
    power: int = 1,
) -> Ivl:
    """Closure of the union of forward images of small neighborhoods of p.

    p must be a fixed point of f, or of f^power when power > 1; image steps
    then apply f power times, factor by factor, so the iterate is never
    composed. Returns the degenerate interval when p does not expand on
    either available side. When p expands on both sides the result is
    exactly the unstable set; with one-sided expansion it is the interval
    hull of it.
    """
    p = Fraction(p)
    cycle = [p]
    for _ in range(power - 1):
        cycle.append(f(cycle[-1]))
    if f(cycle[-1]) != p:
        raise ConstraintViolation(f"{p} is not a fixed point")
    if (
        abs(orbit_side_slope(f, cycle, -1)) <= 1
        and abs(orbit_side_slope(f, cycle, +1)) <= 1
    ):
        return Ivl(p, p)
    prev: Ivl | None = None
    for r in range(seed_rounds):
        delta = Fraction(1, 1 << (8 + r))
        J = Ivl(max(ZERO, p - delta), min(ONE, p + delta))
        U = J
        stable = 0
        for _ in range(max_images):
            for _ in range(power):
                J = f.image_of_interval(J)
            nu = U.hull(J)
            if nu == U:
                stable += 1
                if stable >= 3:
                    break
            else:
                stable = 0
            U = nu
        if prev is not None and U == prev:
            return U
        prev = U
    return prev


@dataclass(frozen=True)
class HomoclinicWitness(Wire):
    orbit: PeriodicOrbit
    x: Rat
    m: int  # f^m(x) = base point of the orbit
    unstable: Ivl


@dataclass(frozen=True)
class HomoclinicReport(Wire):
    witness: HomoclinicWitness | None
    definitive: bool
    period_bound: int
    m_budget: int
    orbits_searched: int
    truncated: bool
    notes: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.witness is not None


def _search_orbit(
    f: PiecewiseLinearMap,
    orb: PeriodicOrbit,
    m_budget: int,
    frontier_budget: int,
) -> tuple[HomoclinicWitness | None, bool]:
    """(witness, saturated) for one repelling orbit."""
    n = orb.period
    wsets = [unstable_manifold(f, q, power=n) for q in orb.points]
    base = orb.points[0]
    w0 = wsets[0]
    if w0.is_degenerate:
        return None, True
    orbit_set = set(orb.points)

    visited: set[Rat] = {base}
    current: list[Rat] = [base]
    for k in range(1, m_budget + 1):
        allowed = wsets[(n - k % n) % n]
        nxt: list[Rat] = []
        for y in current:
            pts, flats = f.preimages_of_point(y)
            cands = list(pts)
            for fl in flats:
                lo = max(fl.lo, allowed.lo)
                hi = min(fl.hi, allowed.hi)
                if lo <= hi:
                    cands.extend((lo, hi, (lo + hi) / 2))
            for z in cands:
                if not allowed.contains(z) or z in visited:
                    continue
                visited.add(z)
                if len(visited) > frontier_budget:
                    return None, False
                if k % n == 0 and z not in orbit_set and w0.lo < z < w0.hi:
                    return HomoclinicWitness(orbit=orb, x=z, m=k, unstable=w0), True
                nxt.append(z)
        if not nxt:
            return None, True
        current = nxt
    return None, False


def find_homoclinic(
    f: PiecewiseLinearMap,
    period_bound: int = 6,
    m_budget: int = 64,
    piece_budget: int = 1_000_000,
    frontier_budget: int = 20_000,
    point_budget: int = 4096,
) -> HomoclinicReport:
    """Search all repelling orbits of period <= period_bound for a witness."""
    if period_bound < 1:
        raise ConstraintViolation(f"period_bound must be >= 1, got {period_bound}")
    notes: list[str] = []
    truncated = False
    complete_sweep = True
    searched = 0
    n = 0
    try:
        for n, orbits in periodic_orbits(f, period_bound, piece_budget, point_budget):
            for orb in orbits:
                if orb.stability != "repelling":
                    continue
                searched += 1
                witness, saturated = _search_orbit(f, orb, m_budget, frontier_budget)
                if witness is not None:
                    return HomoclinicReport(
                        witness=witness,
                        definitive=True,
                        period_bound=period_bound,
                        m_budget=m_budget,
                        orbits_searched=searched,
                        truncated=False,
                        notes=tuple(notes),
                    )
                if not saturated:
                    truncated = True
                    notes.append(f"search tree truncated at orbit through {orb.points[0]}")
    except BudgetExceeded as e:
        complete_sweep = False
        notes.append(f"period {n + 1} enumeration: {e}")
    return HomoclinicReport(
        witness=None,
        definitive=complete_sweep and not truncated,
        period_bound=period_bound,
        m_budget=m_budget,
        orbits_searched=searched,
        truncated=truncated,
        notes=tuple(notes),
    )
