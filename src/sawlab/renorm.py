"""Renormalization towers and gap fixed points.

Towers stack renormalization windows along the doubling cascade: at level n
the cycle of the principal critical value splits into 2^n residue classes,
and each class hull is a block. A level is kept when its blocks have
pairwise disjoint interiors and each block maps into its successor, the
block of the odometer step of its n-bit word, which is block (r + 1) mod 2^n
for block r. So each kept level is the depth-n semiconjugacy onto the binary
adding machine, and the tower is the whole certificate of it: a Boundary2Inf
record and `sawlab renorm` carry the tower and nothing that restates it.
The semiconjugacy report reads level n's answer off a tower; nothing in the
package asks for it.

The window of level n is block 0, and the blocks alone certify it. The
successor test puts the exact image of block r inside block r + 1, so the
i-th image of the window lies inside block i mod 2^n: the first 2^n images
have disjoint interiors and the 2^n-th returns into the window. The windows
nest strictly: block 0 of level n is the hull of every other cycle point of
block 0 of level n-1, so it lies inside. When the cycle is longer than 2^n,
every block holds two or more points, and equal windows would put block
2^(n-1) of level n inside block 0, an overlap. When it is 2^n long, the
window is one point and the level-(n-1) window holds two.

Both tests run on the member's integers: the cycle is walked by
StuntedSawtoothMap.walk, and it and the block ends are numerators over den.
S_w's only interior extrema are its plateaus, and a block's ends map to cycle
points of the next class, so the successor test checks only the heights of
the plateaus the block meets, which the ranks of its ends give (step).
A kept level holds its block ends as those numerators and makes no Fraction
until its blocks are read. build_tower is the one walk of the cycle: the gap
report reads the cycle off the tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import ConstraintViolation, StructureError
from .family import StuntedSawtoothMap
from .homoclinic import unstable_manifold
from .orbits import _reduced, periodic_orbits
from .plmap import Ivl
from .rational import Rat, Wire


@dataclass(frozen=True)
class GapFixedPointReport(Wire):
    """The fixed point in the gap of the level-1 cycle and its certified mate.

    period: the period of the principal critical cycle. cycle: its points,
    only when the period is 2; no other period has a level-1 gap, and the
    report then stops at the period.
    p: smallest fixed point strictly between the two cycle points.
    q: the largest second-iterate fixed point at or above p whose unstable set
    under the second iterate covers the cycle hull. Candidates are tried in
    descending order; ones whose unstable set collapses (plateau-absorbed) are
    skipped.
    """

    ok: bool
    level: int
    period: int
    cycle: tuple[Rat, ...] | None
    p: Rat | None
    q: Rat | None
    unstable: Ivl | None
    reason: str | None = None


def gap_fixed_point(m: StuntedSawtoothMap, tower: RenormTower) -> GapFixedPointReport:
    """The gap report of m's principal critical cycle, read off m's tower.

    The period is the tower's cycle period. At period 2 the cycle is the two
    one-point blocks of level 1, which build_tower always keeps: they cannot
    overlap, and each maps onto the other.
    """
    period = tower.cycle_period
    if period != 2:
        return GapFixedPointReport(
            ok=False,
            level=1,
            period=period,
            cycle=None,
            p=None,
            q=None,
            unstable=None,
            reason=f"critical value cycle has period {period}, not 2",
        )
    f = m.map
    cycle = tuple(b.lo for b in tower.levels[0].blocks)
    lo, hi = min(cycle), max(cycle)
    hull = Ivl(lo, hi)
    orbits = dict(periodic_orbits(f, 2))
    fixed = [o.points[0] for o in orbits[1] if lo < o.points[0] < hi]
    if not fixed:
        # f(lo) = hi > lo and f(hi) = lo < hi: f(x) - x changes sign in the gap
        raise StructureError("no fixed point inside the cycle gap")
    p = min(fixed)
    candidates = sorted(
        (x for n in (1, 2) for o in orbits[n] for x in o.points if p <= x <= hi),
        reverse=True,
    )
    for q in candidates:
        w = unstable_manifold(f, q, power=2)
        if w.contains_interval(hull):
            return GapFixedPointReport(
                ok=True, level=1, period=period, cycle=cycle, p=p, q=q, unstable=w
            )
    return GapFixedPointReport(
        ok=False,
        level=1,
        period=period,
        cycle=cycle,
        p=p,
        q=None,
        unstable=None,
        reason="no second-iterate fixed point certifies the cycle hull",
    )


@dataclass(frozen=True)
class TowerLevel(Wire):
    """Level n of a tower: the 2^n blocks, in the cycle's residue order,
    block r from lo[r]/den to hi[r]/den. blocks, the Ivls, are made on first
    read, and equality and hashing read them; to_json writes each end's
    "p/q" from its integers with one gcd."""

    n: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    den: int

    @cached_property
    def blocks(self) -> tuple[Ivl, ...]:
        return tuple(Ivl(Fraction(a, self.den), Fraction(b, self.den)) for a, b in zip(self.lo, self.hi))

    @property
    def window(self) -> Ivl:
        return self.blocks[0]

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (self.n, self.blocks) == (other.n, other.blocks)

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def to_json(self) -> dict:
        ends = ["%d/%d" % _reduced(c, self.den) for c in (*self.lo, *self.hi)]
        return {"n": self.n, "blocks": [{"lo": a, "hi": b} for a, b in zip(ends, ends[len(self.lo):])]}


@dataclass(frozen=True)
class RenormTower(Wire):
    levels: tuple[TowerLevel, ...]
    cycle_period: int
    stop_reason: str | None

    @property
    def depth(self) -> int:
        return len(self.levels)

    def to_json(self) -> dict:
        return {**super().to_json(), "depth": self.depth}


def build_tower(
    m: StuntedSawtoothMap, max_depth: int = 6, max_steps: int = 1_000_000
) -> RenormTower:
    """Stack doubling levels out of the principal critical value cycle.

    Stops at the first level that fails: period not divisible, blocks
    overlapping, or a block escaping its successor, block (r + 1) mod 2^n,
    the odometer step of its n-bit word (so a kept level is the depth-n
    semiconjugacy). The window and nesting follow from these; see the
    module docstring. The tower reports how deep it got and why it stopped.
    """
    if max_depth < 1:
        raise ConstraintViolation("depth must be positive")
    pts, j = m.walk(m.heights[0], max_steps)
    cycle = pts[j:-1]
    period = len(cycle)
    levels: list[TowerLevel] = []
    stop = None
    for n in range(1, max_depth + 1):
        q = 1 << n
        if period % q != 0:
            stop = f"cycle period {period} not divisible by {q}"
            break
        # block r: hull of the residue class r mod 2^n along the temporal order
        lo = [min(cycle[r::q]) for r in range(q)]
        hi = [max(cycle[r::q]) for r in range(q)]
        overlap = _first_overlap(lo, hi)
        if overlap:
            stop = f"blocks {overlap[0]} and {overlap[1]} overlap at level {n}"
            break
        # plateau j meets [a, b] exactly when rank(a) <= 2j - 1 <= rank(b)
        escape = None
        for r in range(q):
            met = m.heights[m.step(lo[r])[0] // 2 : (m.step(hi[r])[0] + 1) // 2]
            a, b = lo[(r + 1) % q], hi[(r + 1) % q]
            if not all(a <= h <= b for h in met):
                escape = r
                break
        if escape is not None:
            stop = f"image of block {escape} escapes its successor at level {n}"
            break
        levels.append(TowerLevel(n, tuple(lo), tuple(hi), m.den))
    return RenormTower(levels=tuple(levels), cycle_period=period, stop_reason=stop)


def _first_overlap(lo: list[int], hi: list[int]) -> tuple[int, int] | None:
    """The first pair i < k of blocks [lo, hi] whose interiors meet, in
    lexicographic order, or None.

    A point block has no interior. The others, ordered by lo, have disjoint
    interiors exactly when each ends at or before the next one starts, so
    the O(q^2) pairwise scan runs only when some neighbours overlap, to name
    the first pair.
    """
    spans = sorted((a, b) for a, b in zip(lo, hi) if a < b)
    if all(b <= c for (_, b), (c, _) in zip(spans, spans[1:])):
        return None
    pairs = combinations(range(len(lo)), 2)
    return next((i, k) for i, k in pairs if max(lo[i], lo[k]) < min(hi[i], hi[k]))


@dataclass(frozen=True)
class SemiconjugacyReport(Wire):
    """Depth-n comparison of the block dynamics with the adding machine."""

    ok: bool
    n: int
    cycle_period: int
    fiber_max_points: int
    fiber_max_length: Rat | None
    reason: str | None = None


def semiconjugacy_check(tower: RenormTower, n: int) -> SemiconjugacyReport:
    """Does the level-n block dynamics factor onto the n-bit adding machine?

    build_tower already checked that the map advances each block into the
    one whose n-bit word is the odometer step of its own, so this reads level
    n: yes with fibers of cycle_period / 2^n points when the tower reached
    it, no with the tower's stop reason when it stopped below n.
    """
    if n < 1:
        raise ConstraintViolation("level must be positive")
    if n > tower.depth:
        return SemiconjugacyReport(
            ok=False,
            n=n,
            cycle_period=tower.cycle_period,
            fiber_max_points=0,
            fiber_max_length=None,
            reason=f"tower stopped at depth {tower.depth}: "
            f"{tower.stop_reason or 'depth limit reached'}",
        )
    return SemiconjugacyReport(
        ok=True,
        n=n,
        cycle_period=tower.cycle_period,
        fiber_max_points=tower.cycle_period >> n,
        fiber_max_length=max(b.length for b in tower.levels[n - 1].blocks),
    )
