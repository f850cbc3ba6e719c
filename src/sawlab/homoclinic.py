"""Unstable sets and homoclinic search.

The unstable set of a point q of period n is read from the Markov partition
P that the orbit sweep has already built, and it is exact. A side of q
expands when the one-sided slope of f^2n there exceeds 1: then f^2n takes
that side of q back to itself and stretches it, so the unstable set contains
the partition cell next to q on that side (on either side when q is off P,
where f^n has one slope around q). A side whose f^n slope folds it onto a
side that does not expand, a flat one say, adds only neighbourhoods that
shrink to q. From the hull W of the cells next to q on its expanding sides,
W <- hull(W ∪ f^n(W)) reaches the unstable set. f is affine on each cell and
maps P into itself, so f of a partition interval [P_i, P_j] is the partition
interval spanned by the images of P_i .. P_j: every step is an index range
and a lookup, and the loop ends within as many steps as there are cells.

A homoclinic witness for a repelling periodic orbit is a point x, not on the
orbit, lying strictly inside the unstable set and mapping onto the orbit
after finitely many steps. The search walks the preimage tree of the orbit's
base point, pruned hard by one fact: forward invariance of the unstable sets
means any candidate's whole forward chain must stay inside the matching
orbit-point's unstable set, so tree nodes outside it can be dropped with all
their descendants. On zero-entropy maps the pruned tree is finite, which is
what makes a definitive "no homoclinic point" answer possible.

The tree walks integers on the Markov system. A node x = c/(den*q) is the
reduced pair (c, q); the branch (s, t) of a piece of f inverts to
(sign(s)(c - tq), |s|q), and a flat piece at x's height adds its ends and
midpoint. The orbit's own nodes come from its integers, nums over q, with
one gcd each, so the search reads no orbit point as a Fraction. The
unstable sets are read on the same nodes, and each is a pair of partition
indices, so the pruning test is two integer products. Only a witness and
its unstable set become Fractions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import BudgetExceeded, ConstraintViolation
from .markov import MarkovSystem, build_markov_system
from .orbits import PeriodicOrbit, _low, _reduced, periodic_orbits
from .plmap import Ivl, PiecewiseLinearMap
from .rational import Rat, Wire


def unstable_manifold(
    f: PiecewiseLinearMap, p, power: int = 1, point_budget: int = 4096
) -> Ivl:
    """The unstable set of p under f^power, exact.

    p must be a fixed point of f^power, power >= 1; the iterate is never
    composed. The set is read from the Markov partition of f, built as
    build_markov_system(f, point_budget). Returns the degenerate interval
    when neither side of p expands.
    """
    if power < 1:
        raise ConstraintViolation(f"power must be >= 1, got {power}")
    p = Fraction(p)
    cycle = [p]
    for _ in range(power - 1):
        cycle.append(f(cycle[-1]))
    if f(cycle[-1]) != p:
        raise ConstraintViolation(f"{p} is not a fixed point")
    sys = build_markov_system(f, point_budget)
    w = _unstable_set(sys, _nodes(cycle, sys.den))
    return Ivl(p, p) if w is None else Ivl(*(Fraction(sys.nums[e], sys.den) for e in w))


def _nodes(points, den: int) -> list[tuple[int, int]]:
    """Each point x as the reduced integer pair (c, q) with x = c/(den*q)."""
    return [((x * den).numerator, (x * den).denominator) for x in points]


def _orbit_nodes(orb: PeriodicOrbit, den: int) -> list[tuple[int, int]]:
    """_nodes of the orbit's points, read off its integers: the point c/q
    is (c*den/q)/den, one gcd each."""
    return [_reduced(c * den, orb.q) for c in orb.nums]


def _unstable_set(sys: MarkovSystem, nodes) -> tuple[int, int] | None:
    """Unstable set of the first node under f^n, given its orbit as n nodes
    (c, q), the points c/(den*q), as the indices of its ends in the
    partition; None off the partition when neither side expands. A node's
    index is that of the first numerator at or above c/q, equal to it on the
    partition."""
    nums, image = sys.nums, sys.image
    idx = [bisect_left(nums, -(-c // q)) for c, q in nodes]
    (c, q), i = nodes[0], idx[0]
    if nums[i] * q != c:
        # off the partition, so is the whole orbit, and f^n is affine around
        # it with one slope, the product of the slopes of the cells it visits
        if abs(prod(sys.slopes[j - 1] for j in idx)) <= 1:
            return None
        lo, hi = i - 1, i
    else:
        twice = idx + idx
        lo = i - 1 if i > 0 and sys.side_slope(twice, -1) > 1 else i
        hi = i + 1 if i + 1 < len(nums) and sys.side_slope(twice, +1) > 1 else i
    while True:
        a, b = lo, hi
        for _ in nodes:
            span = image[a : b + 1]
            a, b = min(span), max(span)
        if lo <= a and b <= hi:
            return lo, hi
        lo, hi = min(lo, a), max(hi, b)


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
    sys: MarkovSystem,
    orb: PeriodicOrbit,
    m_budget: int,
    frontier_budget: int,
) -> tuple[HomoclinicWitness | None, bool]:
    """(witness, saturated) for one repelling orbit of sys.map, on integer nodes."""
    n, nums, den = orb.period, sys.nums, sys.den
    nodes = _orbit_nodes(orb, den)
    wsets = [_unstable_set(sys, nodes[k:] + nodes[:k]) for k in range(n)]
    w0 = wsets[0]
    if None in wsets or w0[0] == w0[1]:
        return None, True
    lo0, hi0 = nums[w0[0]], nums[w0[1]]
    pieces = sys.pieces
    visited, current = {nodes[0]}, [nodes[0]]
    for k in range(1, m_budget + 1):
        lo, hi = (nums[e] for e in wsets[-k % n])
        nxt = []
        for c, q in current:
            # isolated preimages ascend; a flat at the node's height drops those on
            # it and adds its ends and midpoint in the allowed set
            found, flats = [], []
            for u, v, (s, t) in pieces:
                if s == 0:
                    if t * q == c:
                        flats.append((u, v))
                    continue
                x, r = (c - t * q, s * q) if s > 0 else (t * q - c, -s * q)
                if u * r <= x <= v * r:
                    found.append((x, r))
            cands = [(x, r) for x, r in found if not any(u * r <= x <= v * r for u, v in flats)]
            for u, v in flats:
                a, b = max(u, lo), min(v, hi)
                if a <= b:
                    cands += [(a, 1), (b, 1), (a + b, 2)]
            for x, r in cands:
                g = gcd(x, r)
                z = (x // g, r // g)
                if not lo * r <= x <= hi * r or z in visited:
                    continue
                visited.add(z)
                if len(visited) > frontier_budget:
                    return None, False
                if k % n == 0 and z not in nodes and lo0 * z[1] < z[0] < hi0 * z[1]:
                    unstable = Ivl(*(Fraction(e, den) for e in (lo0, hi0)))
                    return HomoclinicWitness(orb, Fraction(z[0], den * z[1]), k, unstable), True
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
        # the graph periodic_orbits reads, from the same cache entry
        sys = build_markov_system(f, point_budget)
        for n, orbits in periodic_orbits(f, period_bound, piece_budget, point_budget):
            for orb in orbits:
                if orb.stability != "repelling":
                    continue
                searched += 1
                witness, saturated = _search_orbit(sys, orb, m_budget, frontier_budget)
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
                    notes.append(f"search tree truncated at orbit through {_low(orb)}")
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
