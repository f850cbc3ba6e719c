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

Realization runs backwards, from ranks to heights. The plateau edges and,
along fixed ranks, every orbit point are affine in the height vector w, so
the heights whose orbits have given rank prefixes are one convex polytope,
cut out by integer linear inequalities in w (`_conditions`). On a parameter
line w(t) = w0 + t·v it is one interval with exact ends
(`itinerary_cylinder`); realize_kneading finds a point of the whole
polytope with one exact simplex solve, or proves that it is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from .errors import ConstraintViolation, KneadingNotRealizable
from .family import Shape, StuntedSawtoothMap
from .rational import Rat, Wire

ZERO = Fraction(0)


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


def _conditions(shape: Shape, rows):
    """Integer forms (c, strict), c = (c_0, c_1, ..., c_d), such that w is
    admissible and each critical orbit i of rows, pairs (i, ranks), has the
    rank prefix ranks exactly when c_0 + c_1·w_1 + ... + c_d·w_d >= 0 for
    every form, > 0 for the strict ones.

    Along fixed ranks every orbit point is affine in w: a lap sends x to
    ±(d+1)·x plus an integer and plateau j resets it to w_j. A point is
    carried as (d+1)·x, so plateau j's ends, (d+1)·x = j ∓ half_j with
    half_j = 1 - w_j at a max and w_j at a min, are integral forms too. A
    plateau hit is closed, a gap open."""
    d, n = shape.d, shape.d + 1
    one = (1,) + (0,) * d
    w = [tuple(int(k == j) for k in range(d + 1)) for j in range(1, d + 1)]

    def lin(*terms):
        return tuple(sum(k * f[i] for k, f in terms) for i in range(d + 1))

    half = [lin((1, one), (-1, wj)) if s > 0 else wj for s, wj in zip(shape.signs, w)]
    lo = [lin((j, one), (-1, h)) for j, h in enumerate(half, start=1)]
    hi = [lin((j, one), (1, h)) for j, h in enumerate(half, start=1)]
    for wj in w:
        yield wj, False
        yield lin((1, one), (-1, wj)), False
    for j in range(1, d):
        # (w_j - w_{j+1}) * s_{j+1} < 0
        s = shape.signs[j]
        yield lin((s, w[j]), (-s, w[j - 1])), True
    for orbit, ranks in rows:
        x = lin((n, w[orbit - 1]))
        for r in ranks:
            k = r // 2
            if r % 2:
                yield lin((1, x), (-1, lo[k])), False
                yield lin((1, hi[k]), (-1, x)), False
                x = lin((n, w[k]))
                continue
            if k:
                yield lin((1, x), (-1, hi[k - 1])), True
            if k < d:
                yield lin((1, lo[k]), (-1, x)), True
            if shape.signs[k] > 0:
                x = lin((n, x), (-n * k, one))
            else:
                x = lin((n * (k + 1), one), (-n, x))


def itinerary_cylinder(shape: Shape, w0, v, orbit: int, ranks) -> Cylinder | None:
    """The set of t for which w(t) = w0 + t·v is admissible and the critical
    orbit `orbit` has the rank prefix `ranks`, or None when it is empty.

    Each of `_conditions`' forms is affine in t on the line, so the set is
    one interval with exact ends. An end set by a plateau hit or by
    0 <= w_j <= 1 is closed, one set by a gap or by the pair order open."""
    if type(orbit) is not int or not 1 <= orbit <= shape.d:
        raise ConstraintViolation(f"no critical orbit {orbit!r}")
    ranks = tuple(ranks)
    if not all(type(r) is int and 0 <= r <= 2 * shape.d for r in ranks):
        raise ConstraintViolation(f"ranks must be integers in 0..{2 * shape.d}")
    w0, v = tuple(Fraction(x) for x in w0), tuple(Fraction(x) for x in v)
    if len(w0) != shape.d or len(v) != shape.d:
        raise ConstraintViolation(f"need {shape.d} heights and {shape.d} direction coordinates")
    if not any(v):
        raise ConstraintViolation("the direction v must be nonzero")
    lo, hi, lo_closed, hi_closed = -inf, inf, True, True
    for (c0, *c), strict in _conditions(shape, [(orbit, ranks)]):
        a = c0 + sum(ck * x for ck, x in zip(c, w0))
        b = sum(ck * x for ck, x in zip(c, v))
        if not b:
            if a < 0 or (strict and not a):
                return None
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
    if lo < hi or (lo == hi and lo_closed and hi_closed):
        return Cylinder(lo, hi, lo_closed, hi_closed)
    return None


def _max_slack(d: int, forms) -> tuple[Rat, ...] | None:
    """A vertex w of {c·(1, w) >= s on the strict forms, >= 0 on the others}
    at which the common slack s, capped at 1, is largest, or None when that
    largest s is not positive or no w meets the forms at all.

    An exact simplex with Bland's rule, on an integer dictionary: row i
    reads p·x_B + Σ_j a_j·x_N_j = b with p > 0, each row divided by its
    gcd, so the basic variable x_B sits at b/p. The variables are x_0, the
    auxiliary that starts an infeasible dictionary (phase 1), then w_1..w_d,
    s, and one slack per form and for s <= 1; every one is >= 0. A row is
    [p, b, a_1, ..., a_k] over the k = d + 2 nonbasic columns, which start
    as x_0, w_1..w_d, s; the objective rows never leave the basis."""
    k = d + 2
    rows = [[1, c[0], -1, *(-x for x in c[1:]), int(strict)] for c, strict in forms]
    rows.append([1, 1, -1, *(0,) * d, 1])
    m = len(rows)
    # maximize z = -x_0 (phase 1), then z = s (phase 2)
    rows.append([1, 0, 1, *(0,) * (k - 1)])
    rows.append([1, 0, *(0,) * (k - 1), -1])
    cols = list(range(k))
    basis = list(range(k, k + m))

    def pivot(r: int, e: int):
        row_r, col = rows[r], 2 + e
        pe = row_r[col]
        # row r with x_e eliminated and its old basic variable in column e
        held = row_r[:]
        held[0], held[col] = 0, row_r[0]
        for i, row in enumerate(rows):
            if i == r:
                new = [pe, *held[1:]]
            elif row[col]:
                ae, row = row[col], row[:]
                row[col] = 0
                new = [pe * x - ae * y for x, y in zip(row, held)]
            else:
                continue
            g = gcd(*new) if new[0] > 0 else -gcd(*new)
            rows[i] = [x // g for x in new]
        basis[r], cols[e] = cols[e], basis[r]

    def optimize(z: int, barred: int | None):
        while True:
            objective = rows[z]
            entering = [j for j in range(k) if objective[2 + j] < 0 and cols[j] != barred]
            if not entering:
                return
            e = min(entering, key=cols.__getitem__)
            # bounded: w <= 1 and s <= 1 are rows, and phase 1 stops at x_0 = 0
            r = min(
                (i for i in range(m) if rows[i][2 + e] > 0),
                key=lambda i: (Fraction(rows[i][1], rows[i][2 + e]), basis[i]),
            )
            pivot(r, e)

    r = min(range(m), key=lambda i: rows[i][1])
    if rows[r][1] < 0:
        pivot(r, 0)
        optimize(m, None)
        # x_0 has the smallest index, so Bland's rule lets it leave as soon
        # as it can reach 0: still basic means it cannot
        if 0 in basis:
            return None
    optimize(m + 1, 0)
    if rows[m + 1][1] <= 0:
        return None
    value = {x: Fraction(row[1], row[0]) for x, row in zip(basis, rows)}
    return tuple(value.get(j, ZERO) for j in range(1, d + 1))


def realize_kneading(
    target: KneadingData,
    depth: int | None = None,
    tol: Rat | None = None,
) -> tuple[Rat, ...]:
    """Heights whose kneading data matches the target to the given depth.

    The heights w that match are the solutions of `_conditions` for every
    row's target ranks: one convex polytope, cut out by linear inequalities
    in w, some of them strict. `_max_slack` finds the vertex where the
    smallest slack on a strict row is largest; the target is realizable
    exactly when that slack is positive, so KneadingNotRealizable is a
    proof that no admissible heights match. The heights are checked against
    the target's signs by a walk on the member's integers; a sign vector
    that no rank produces fails there.

    tol is not read: the solve is exact. It stays in the signature, and a
    value that is not positive is still refused, because the benchmark's
    crosscheck workload passes it positionally; it goes once that call
    drops it.
    """
    shape = target.shape
    if depth is None:
        depth = target.depth
    if not 1 <= depth <= target.depth:
        raise ConstraintViolation(f"depth must be in 1..{target.depth}")
    if tol is not None and Fraction(tol) <= 0:
        raise ConstraintViolation("tol must be positive")
    rows = [(i, target.row_ranks(i)[:depth]) for i in range(1, shape.d + 1)]
    w = _max_slack(shape.d, dict.fromkeys(_conditions(shape, rows)))
    if w is None or _signs(StuntedSawtoothMap(shape, w), depth) != tuple(
        row[:depth] for row in target.signs
    ):
        raise KneadingNotRealizable(
            f"no admissible heights match the target to depth {depth}"
        )
    return w
