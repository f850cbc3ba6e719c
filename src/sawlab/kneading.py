"""Kneading data for stunted sawtooth maps.

The data records, for each critical orbit i and each plateau j, the sign of
f^n(c_i) relative to plateau j: -1 left of it, 0 inside it, +1 right of it.
The orbit starts at the critical value, f(c_i) = w_i. Fixing j and letting i
run gives the j-th kneading sequence.

Positions are compared in the signed lexicographic order: each sign vector
over j collapses to a rank 0..2d (even ranks are gaps between plateaus, odd
ranks are plateau hits), sequences compare at the first differing rank, and
the verdict is flipped once per orientation-reversing lap in the agreed
prefix. A plateau hit contributes a neutral +1 to the orientation; two
sequences agreeing on a plateau hit have identical tails anyway, since both
orbits continue from the same plateau value.

The orbits are walked by StuntedSawtoothMap, exactly, on integers over the
heights' common denominator; the rank fixes the sign vector, so no point is
compared with a plateau as a Fraction and no map is built.

Realization runs backwards, from ranks to heights, on a parameter line
w(t) = w0 + t·v. The heights, the plateau edges and, along fixed ranks, the
orbit point are affine in t, so the t whose orbit has a given rank prefix
form one interval with exact ends (`itinerary_cylinder`). realize_kneading
moves each height to the midpoint of its row's cylinder; nothing is
bisected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .errors import ConstraintViolation, KneadingNotRealizable
from .family import Shape, StuntedSawtoothMap
from .rational import Rat, Wire

ZERO = Fraction(0)
ONE = Fraction(1)
# realize_kneading's coordinate sweeps per depth before a stage counts as stalled
MAX_SWEEPS = 24


def _signs(m: StuntedSawtoothMap, depth: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """signs[i-1][n-1] for n = 1..depth. A rank r fixes the sign vector:
    plateau j reads +1 when 2j <= r (left of the point), 0 when 2j = r + 1
    (holding it) and -1 otherwise."""
    vectors = [
        tuple(1 if 2 * j <= r else 0 if 2 * j == r + 1 else -1 for j in range(1, m.d + 1))
        for r in range(2 * m.d + 1)
    ]
    # row i starts at f(c_i) = w_i, the critical value
    return tuple(
        tuple(vectors[r] for r in m.ranks(h, depth)) for h in m.heights
    )


def _rank(signs: tuple[int, ...]) -> int:
    return sum(2 * (s > 0) + (s == 0) for s in signs)


def _parity(shape: Shape, rank: int) -> int:
    if rank % 2 == 1:
        return 1  # plateau hit, orientation neutral
    return shape.signs[rank // 2]


@dataclass(frozen=True)
class KneadingSequence(Wire):
    """The j-th sequence: time-ordered sign vectors over the orbits i."""

    j: int
    entries: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class KneadingData(Wire):
    """signs[i-1][n-1][j-1] = position of f^n(c_i) relative to plateau j."""

    shape: Shape
    depth: int
    signs: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def d(self) -> int:
        return self.shape.d

    def row(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Time-ordered sign vectors of orbit i against all plateaus."""
        return self.signs[i - 1]

    def row_ranks(self, i: int) -> tuple[int, ...]:
        return tuple(_rank(v) for v in self.row(i))

    def sequence(self, j: int) -> KneadingSequence:
        if not (1 <= j <= self.d):
            raise ConstraintViolation(f"no plateau {j}")
        return KneadingSequence(
            j=j,
            entries=tuple(
                tuple(self.signs[i][n][j - 1] for i in range(self.d))
                for n in range(self.depth)
            ),
        )


def kneading_data(m: StuntedSawtoothMap, depth: int) -> KneadingData:
    if depth < 1:
        raise ConstraintViolation("depth must be positive")
    return KneadingData(shape=m.shape, depth=depth, signs=_signs(m, depth))


def compare_orbit_itineraries(shape: Shape, ranks_a, ranks_b) -> int:
    """Signed-lex comparison of two rank sequences over a common shape."""
    orient = 1
    for ra, rb in zip(ranks_a, ranks_b):
        if ra != rb:
            return orient * (1 if ra > rb else -1)
        orient *= _parity(shape, ra)
    return 0


def compare_kneading(a: KneadingData, b: KneadingData, orbit: int | None = None) -> int | None:
    """Order two kneading data sets, orbitwise.

    With orbit given, compares that orbit's itinerary alone. Otherwise
    compares all orbits and returns the shared verdict, or None when orbits
    disagree in sign (incomparable data).
    """
    if a.shape != b.shape:
        raise ConstraintViolation("kneading data from different shapes")
    depth = min(a.depth, b.depth)
    if orbit is not None:
        return compare_orbit_itineraries(
            a.shape, a.row_ranks(orbit)[:depth], b.row_ranks(orbit)[:depth]
        )
    verdicts = [
        compare_orbit_itineraries(a.shape, a.row_ranks(i)[:depth], b.row_ranks(i)[:depth])
        for i in range(1, a.d + 1)
    ]
    nonzero = {v for v in verdicts if v != 0}
    if not nonzero:
        return 0
    if len(nonzero) == 1:
        return nonzero.pop()
    return None


@dataclass(frozen=True)
class Cylinder:
    """An interval of the line parameter t from lo to hi, each end closed or
    open; lo == hi only as a closed point."""

    lo: Rat
    hi: Rat
    lo_closed: bool
    hi_closed: bool

    @property
    def midpoint(self) -> Rat:
        return (self.lo + self.hi) / 2


class _Line:
    """The heights and plateau edges of w(t) = w0 + t·v as affine forms
    (a, b), meaning a + b·t, in Fractions: heights[j-1] is w_j, and lo[j-1]
    and hi[j-1] are the ends of plateau j."""

    def __init__(self, shape: Shape, w0, v):
        d = shape.d
        w0, v = tuple(Fraction(x) for x in w0), tuple(Fraction(x) for x in v)
        if len(w0) != d or len(v) != d:
            raise ConstraintViolation(f"need {d} heights and {d} direction coordinates")
        if not any(v):
            raise ConstraintViolation("the direction v must be nonzero")
        n = d + 1
        self.shape = shape
        self.n = n
        self.heights = tuple(zip(w0, v))
        # plateau j reaches half_j / n to either side of j / n, with
        # half_j = 1 - w_j at a max and w_j at a min
        halves = [(1 - a, -b) if s > 0 else (a, b) for s, (a, b) in zip(shape.signs, self.heights)]
        self.lo = tuple(((j - a) / n, -b / n) for j, (a, b) in enumerate(halves, start=1))
        self.hi = tuple(((j + a) / n, b / n) for j, (a, b) in enumerate(halves, start=1))

    def admissibility(self):
        """(a, b, strict): a + b·t >= 0, or > 0 when strict, keeps w(t)
        admissible."""
        for a, b in self.heights:
            yield a, b, False
            yield 1 - a, -b, False
        h, signs = self.heights, self.shape.signs
        for j in range(1, self.shape.d):
            # (w_j - w_{j+1}) * s_{j+1} < 0
            s = signs[j]
            yield s * (h[j][0] - h[j - 1][0]), s * (h[j][1] - h[j - 1][1]), True

    def conditions(self, x, r: int):
        """(a, b, strict) conditions for the point x to have rank r."""
        (xa, xb), d = x, self.shape.d
        if r % 2:
            (la, lb), (ha, hb) = self.lo[r // 2], self.hi[r // 2]
            yield xa - la, xb - lb, False
            yield ha - xa, hb - xb, False
        else:
            k = r // 2
            if k >= 1:
                ha, hb = self.hi[k - 1]
                yield xa - ha, xb - hb, True
            if k < d:
                la, lb = self.lo[k]
                yield la - xa, lb - xb, True

    def image(self, x, r: int):
        """The image of the point x of rank r."""
        if r % 2:
            return self.heights[r // 2]
        k = r // 2
        (a, b), n = x, self.n
        if self.shape.signs[k] > 0:
            return n * a - k, n * b
        return k + 1 - n * a, -n * b

    def ranks_beside(self, orbit: int, t: Rat, side: int, depth: int) -> tuple[int, ...]:
        """The first depth ranks of orbit's critical value at t + side·ε for
        every small enough ε > 0, or at t itself when side is 0: a condition
        that holds with equality at t goes by its slope."""

        def holds(a, b, strict) -> bool:
            value = a + b * t
            sign = (value > 0) - (value < 0) if value else side * ((b > 0) - (b < 0))
            return sign > 0 or (sign == 0 and not strict)

        x = self.heights[orbit - 1]
        out = []
        for _ in range(depth):
            r = next(
                r for r in range(2 * self.shape.d + 1)
                if all(holds(*c) for c in self.conditions(x, r))
            )
            out.append(r)
            x = self.image(x, r)
        return tuple(out)

    def cylinders(self, orbit: int, ranks):
        """Yield the cylinder of each prefix of ranks, the empty prefix's (the
        admissible range) first, and stop at the first empty one.

        Along fixed ranks the orbit point is affine in t, so each step meets
        the cylinder with at most two half-lines."""
        lo, hi, lo_closed, hi_closed = -inf, inf, True, True

        def meet(conditions) -> bool:
            nonlocal lo, hi, lo_closed, hi_closed
            for a, b, strict in conditions:
                if not b:
                    if a < 0 or (strict and not a):
                        return False
                    continue
                t = -a / b
                if b > 0:
                    if t > lo:
                        lo, lo_closed = t, not strict
                    elif t == lo and strict:
                        lo_closed = False
                elif t < hi:
                    hi, hi_closed = t, not strict
                elif t == hi and strict:
                    hi_closed = False
            return lo < hi or (lo == hi and lo_closed and hi_closed)

        if not meet(self.admissibility()):
            return
        yield Cylinder(lo, hi, lo_closed, hi_closed)
        x = self.heights[orbit - 1]
        for r in ranks:
            if not meet(self.conditions(x, r)):
                return
            yield Cylinder(lo, hi, lo_closed, hi_closed)
            x = self.image(x, r)


def itinerary_cylinder(shape: Shape, w0, v, orbit: int, ranks) -> Cylinder | None:
    """The set of t for which w(t) = w0 + t·v is admissible and the critical
    orbit `orbit` has the rank prefix `ranks`, or None when it is empty.

    On the line every height and every plateau edge is affine in t. Along
    fixed ranks so is the orbit point: a lap multiplies it by ±(d+1) and adds
    an offset, and plateau j resets it to w_j(t). Each step is then at most
    two linear inequalities in t, and admissibility adds its own
    (0 <= w_j <= 1, strict pair order), so the set is one interval with
    exact ends. An end set by a plateau hit or by 0 <= w_j <= 1 is closed,
    one set by a gap or by the pair order open."""
    if type(orbit) is not int or not 1 <= orbit <= shape.d:
        raise ConstraintViolation(f"no critical orbit {orbit!r}")
    ranks = tuple(ranks)
    if not all(type(r) is int and 0 <= r <= 2 * shape.d for r in ranks):
        raise ConstraintViolation(f"ranks must be integers in 0..{2 * shape.d}")
    cells = list(_Line(shape, w0, v).cylinders(orbit, ranks))
    return cells[-1] if len(cells) == len(ranks) + 1 else None


def realize_kneading(
    target: KneadingData,
    depth: int | None = None,
    tol: Rat | None = None,
) -> tuple[Rat, ...]:
    """Heights whose kneading data matches the target to the given depth.

    Coordinatewise sweeps, one depth at a time: stage n moves each height
    whose row does not yet match the target truncated at n to the midpoint of
    that row's target cylinder along its own axis (`itinerary_cylinder` with
    v = e_i). Matching at depth n is a prefix condition, so each stage refines
    inside the cell the previous stage found and earlier matches are never
    lost. Going depth by depth matters: with the other heights far off, a
    row's target cylinder can be empty, and the wide depth-1 cells give every
    coordinate a reachable target before the cells shrink. If some stage
    stalls without matching, the search reports failure.

    A row is first probed at its current height, walking orbit i up to the
    current stage on the integers of the member; no Fraction map is built.
    Every height is an exact point: a cylinder midpoint, or the midpoint of
    the cell next to an end of a cylinder when the row parks.

    tol is not read: the cylinders are exact, so no height is bisected. It
    stays in the signature, and a value that is not positive is still
    refused, because the benchmark's crosscheck workload passes it
    positionally; it goes once that call drops it.
    """
    shape = target.shape
    if depth is None:
        depth = target.depth
    if not 1 <= depth <= target.depth:
        raise ConstraintViolation(f"depth must be in 1..{target.depth}")
    if tol is not None and Fraction(tol) <= 0:
        raise ConstraintViolation("tol must be positive")
    d = shape.d
    # admissible seed: staggered heights, maxes high, mins low
    w: list[Rat] = []
    for i in range(1, d + 1):
        w.append(Fraction(2, 3) if shape.turning_kind(i) == "max" else Fraction(1, 3))
    axes = [tuple(ONE if j == i else ZERO for j in range(d)) for i in range(d)]

    tgt_ranks = [target.row_ranks(i)[:depth] for i in range(1, d + 1)]
    tgt_signs = tuple(tuple(row[:depth]) for row in target.signs)
    stage = 1

    def row_cmp(i: int, ranks) -> int:
        return compare_orbit_itineraries(shape, ranks, tgt_ranks[i - 1][:stage])

    def beside(line: _Line, i: int, cell: Cylinder, upper: bool):
        # the ranks next to one end of cell, from inside it, and their cylinder
        side = 0 if cell.lo == cell.hi else -1 if upper else 1
        ranks = line.ranks_beside(i, cell.hi if upper else cell.lo, side, stage)
        *_, near = line.cylinders(i, ranks)
        return ranks, near

    def park(line: _Line, i: int, cells: list[Cylinder]) -> Rat:
        # the row's target cylinder is empty while other heights are still
        # wrong. An open end is not admissible, so the row parks in the cell
        # next to an end, at its midpoint, never on the end itself: parking at
        # the edge of a band can pin a neighbor's matching set to a single
        # point (a height of 1 shrinks that plateau to a point).
        lo_ranks, lo_cell = beside(line, i, cells[0], upper=False)
        hi_ranks, hi_cell = beside(line, i, cells[0], upper=True)
        ca, cb = row_cmp(i, lo_ranks), row_cmp(i, hi_ranks)
        if ca == cb:
            # out of reach: park next to the end that falls short the least
            direction = compare_orbit_itineraries(shape, hi_ranks, lo_ranks)
            return (hi_cell if (ca < 0) == (direction >= 0) else lo_cell).midpoint
        # the row jumps past its target. On the longest cylinder of a target
        # prefix the first differing rank cannot cross the target's, so the
        # verdict is constant there and flips beyond the end that faces the
        # admissible end comparing the other way; park next to that end
        ranks, near = beside(line, i, cells[-1], upper=False)
        if row_cmp(i, ranks) == ca:
            _, near = beside(line, i, cells[-1], upper=True)
        return near.midpoint

    def run_stage() -> bool:
        stage_signs = tuple(row[:stage] for row in tgt_signs)
        for _ in range(MAX_SWEEPS):
            moved = False
            m = StuntedSawtoothMap(shape, w)
            for i in range(1, d + 1):
                if row_cmp(i, m.ranks(m.heights[i - 1], stage)) == 0:
                    continue
                line = _Line(shape, w, axes[i - 1])
                cells = list(line.cylinders(i, tgt_ranks[i - 1][:stage]))
                t = cells[-1].midpoint if len(cells) > stage else park(line, i, cells)
                if t:
                    w[i - 1] += t
                    m = StuntedSawtoothMap(shape, w)
                    moved = True
            if _signs(m, stage) == stage_signs:
                return True
            if not moved:
                return False
        return False

    for stage in range(1, depth + 1):
        if not run_stage():
            raise KneadingNotRealizable(
                f"no admissible heights found matching the target to depth "
                f"{stage}"
            )
    return tuple(w)
