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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _admissible_bracket(shape: Shape, w: list[Rat], i: int) -> tuple[Rat, Rat]:
    """Open range of w_i keeping the height constraints, other coords fixed."""
    lo, hi = ZERO, ONE
    kind = shape.turning_kind(i)
    for j in (i - 1, i + 1):
        if 1 <= j <= shape.d:
            if kind == "max":
                lo = max(lo, w[j - 1])
            else:
                hi = min(hi, w[j - 1])
    return lo, hi


def realize_kneading(
    target: KneadingData,
    depth: int | None = None,
    tol: Rat | None = None,
) -> tuple[Rat, ...]:
    """Heights whose kneading data matches the target to the given depth.

    Coordinatewise bisection, one depth at a time: stage n adjusts each height
    to match that orbit's itinerary truncated at n, bracketing inside the
    admissible range down to width tol. Matching at depth n is a prefix
    condition, so each stage refines inside the parameter cell the previous
    stage found and earlier matches are never lost. Going depth by depth
    matters: with the other heights far off, a row can jump past its target
    with no match anywhere, and the wide depth-1 cells give every coordinate
    a hittable target before the cells shrink. If some stage stalls without
    matching, the search reports failure.

    A probe walks one row, orbit i up to the current stage, on the integers
    of the trial member; no Fraction map is built.
    """
    shape = target.shape
    if depth is None:
        depth = target.depth
    if not 1 <= depth <= target.depth:
        raise ConstraintViolation(f"depth must be in 1..{target.depth}")
    tol = Fraction(1, 10**12) if tol is None else Fraction(tol)
    if tol <= 0:
        raise ConstraintViolation("tol must be positive")
    d = shape.d
    # admissible seed: staggered heights, maxes high, mins low
    w: list[Rat] = []
    for i in range(1, d + 1):
        w.append(Fraction(2, 3) if shape.turning_kind(i) == "max" else Fraction(1, 3))

    tgt_ranks = [target.row_ranks(i)[:depth] for i in range(1, d + 1)]
    tgt_signs = tuple(tuple(row[:depth]) for row in target.signs)
    stage = 1

    def ranks_at(i: int, wi: Rat) -> tuple[int, ...]:
        # the constructor checks the trial heights: an inadmissible one
        # raises the ConstraintViolation that run_stage catches at a bracket end
        trial = w.copy()
        trial[i - 1] = wi
        m = StuntedSawtoothMap(shape, trial)
        return m.ranks(m.heights[i - 1], stage)

    def row_cmp(i: int, wi: Rat) -> int:
        return compare_orbit_itineraries(
            shape, ranks_at(i, wi), tgt_ranks[i - 1][:stage]
        )

    def band_edge(i: int, z: Rat, far: Rat) -> Rat:
        # boundary of the matching interval between a matching point z and a
        # non-matching point far, from the matching side
        a, b = z, far
        while abs(b - a) > tol:
            mid = (a + b) / 2
            if row_cmp(i, mid) == 0:
                a = mid
            else:
                b = mid
        return a

    def run_stage() -> bool:
        stage_signs = tuple(row[:stage] for row in tgt_signs)
        for _ in range(MAX_SWEEPS):
            moved = False
            for i in range(1, d + 1):
                if row_cmp(i, w[i - 1]) == 0:
                    continue
                lo, hi = _admissible_bracket(shape, w, i)
                span = hi - lo
                if span <= 0:
                    continue
                # pair constraints are strict, so the bracket end shared
                # with a neighbor height is only approachable; the outer end
                # (0 or 1) is a legal height and targets generated there
                # need the exact probe
                try:
                    ca = row_cmp(i, lo)
                except ConstraintViolation:
                    lo = lo + span / 1024
                    ca = row_cmp(i, lo)
                try:
                    cb = row_cmp(i, hi)
                except ConstraintViolation:
                    hi = hi - span / 1024
                    cb = row_cmp(i, hi)
                # the matching set is an interval: each row's itinerary is
                # monotone in its own height.  Settle on its midpoint, never
                # an endpoint: parking at the edge of the band can pin a
                # neighbor's matching set to a single point (a height of 1
                # shrinks that plateau to a point) and strand the sweep.
                if ca == 0 and cb == 0:
                    target = (lo + hi) / 2
                elif ca == 0:
                    target = (lo + band_edge(i, lo, hi)) / 2
                elif cb == 0:
                    target = (band_edge(i, hi, lo) + hi) / 2
                elif ca == cb:
                    # the target row is out of reach while the other heights
                    # are still wrong; park at the end that falls short the
                    # least so the next sweep starts from there
                    direction = compare_orbit_itineraries(
                        shape, ranks_at(i, hi), ranks_at(i, lo)
                    )
                    if ca < 0:
                        target = hi if direction >= 0 else lo
                    else:
                        target = lo if direction >= 0 else hi
                else:
                    a, b = lo, hi
                    if ca > cb:
                        a, b = b, a
                    z = None
                    while abs(b - a) > tol:
                        mid = (a + b) / 2
                        c = row_cmp(i, mid)
                        if c == 0:
                            z = mid
                            break
                        if c < 0:
                            a = mid
                        else:
                            b = mid
                    if z is None:
                        # the row jumps past its target here because another
                        # height is still wrong; move to the jump locus
                        # anyway so the next sweep sees the neighbor
                        # constraint from the right side
                        target = (a + b) / 2
                    else:
                        target = (band_edge(i, z, a) + band_edge(i, z, b)) / 2
                moved = moved or w[i - 1] != target
                w[i - 1] = target
            if _signs(StuntedSawtoothMap(shape, w), stage) == stage_signs:
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
