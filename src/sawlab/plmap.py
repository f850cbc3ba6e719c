"""Piecewise linear self-maps of [0, 1] over exact rationals.

The representation is the breakpoint-value table: strictly increasing
breakpoints from 0 to 1 and the map's value at each. Between breakpoints the
map is the straight line through the neighboring table entries, so slopes are
derived, never stored independently. The constructor merges collinear interior
breakpoints, which makes the representation canonical: two tables describe the
same function iff they normalize to the same tuple pair.

Everything here is exact Fraction arithmetic. Budgets guard the operations
whose output size can blow up (composition, long orbits); they raise
BudgetExceeded rather than grinding.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .errors import BudgetExceeded, DomainError, StructureError
from .rational import Rat, Wire, to_wire

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Ivl(Wire):
    """Closed rational interval [lo, hi], possibly degenerate."""

    lo: Rat
    hi: Rat

    def __post_init__(self):
        if self.lo > self.hi:
            raise StructureError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    def contains_interval(self, other: "Ivl") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    @property
    def length(self) -> Rat:
        return self.hi - self.lo


@dataclass(frozen=True)
class OrbitRecord(Wire):
    """Eventually periodic orbit: x_0 .. x_{preperiod+period}.

    The last listed point equals points[preperiod], closing the cycle; period
    is minimal. Every orbit of a rational point under a rational PL map closes,
    but possibly not within the step budget.
    """

    start: Rat
    points: tuple[Rat, ...]
    preperiod: int
    period: int

    @property
    def cycle(self) -> tuple[Rat, ...]:
        return self.points[self.preperiod : self.preperiod + self.period]


def _sign_runs(slopes) -> list[tuple[int, int]]:
    """The laps of a table of slopes: (start, end) slices of the maximal runs
    of slopes that share a nonzero sign."""
    runs, start = [], 0
    for sign, run in groupby(slopes, key=lambda s: (s > 0) - (s < 0)):
        end = start + len(list(run))
        if sign:
            runs.append((start, end))
        start = end
    return runs


class PiecewiseLinearMap:
    """A continuous piecewise linear map of [0, 1] into itself."""

    __slots__ = ("breakpoints", "values", "slopes", "_hash")

    def __init__(self, breakpoints, values):
        bps = [b if type(b) is Fraction else Fraction(b) for b in breakpoints]
        vals = [v if type(v) is Fraction else Fraction(v) for v in values]
        if len(bps) != len(vals):
            raise StructureError("breakpoints and values must have equal length")
        if len(bps) < 2:
            raise StructureError("need at least two breakpoints")
        if bps[0] != ZERO or bps[-1] != ONE:
            raise StructureError("domain must be exactly [0, 1]")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise StructureError("breakpoints must be strictly increasing")
        for v in vals:
            if not (ZERO <= v <= ONE):
                raise StructureError(f"value {v} escapes [0, 1]")
        slopes = [(v1 - v0) / (b1 - b0) for b0, b1, v0, v1 in zip(bps, bps[1:], vals, vals[1:])]
        self._merge_collinear(bps, vals, slopes)

    def _merge_collinear(self, bps: list[Rat], vals: list[Rat], slopes: list[Rat]) -> None:
        """Store the table without the breakpoints where the slope does not change."""
        keep = [0, *(i for i in range(1, len(slopes)) if slopes[i] != slopes[i - 1]), len(bps) - 1]
        self.breakpoints = tuple(bps[i] for i in keep)
        self.values = tuple(vals[i] for i in keep)
        self.slopes = tuple(slopes[i] for i in keep[:-1])
        self._hash = None  # hashed on first use: a graph cache lookup hashes the map

    @property
    def piece_count(self) -> int:
        return len(self.slopes)

    def _piece_index(self, x: Rat) -> int:
        """Index of the piece whose closed interval contains x (rightmost match)."""
        i = bisect_right(self.breakpoints, x) - 1
        return min(i, self.piece_count - 1)

    def __call__(self, x) -> Rat:
        x = Fraction(x)
        if not (ZERO <= x <= ONE):
            raise DomainError(f"{x} outside [0, 1]")
        i = self._piece_index(x)
        return self.values[i] + self.slopes[i] * (x - self.breakpoints[i])

    def orbit_eventually_periodic(self, x, max_steps: int = 100_000) -> OrbitRecord:
        """Follow x until the orbit revisits a point; exact detection.

        Raises BudgetExceeded if no repeat appears within max_steps steps.
        """
        x = Fraction(x)
        seen: dict[Rat, int] = {x: 0}
        pts = [x]
        cur = x
        for t in range(1, max_steps + 1):
            cur = self(cur)
            pts.append(cur)
            if cur in seen:
                j = seen[cur]
                return OrbitRecord(start=x, points=tuple(pts), preperiod=j, period=t - j)
            seen[cur] = t
        raise BudgetExceeded("steps", max_steps)

    # --- structure queries ---

    def lap_count(self) -> int:
        """Laps are the maximal runs of pieces whose slopes share a nonzero
        sign: a flat piece or a sign change ends one."""
        return len(_sign_runs(self.slopes))

    def left_slope(self, x) -> Rat:
        """Slope just left of x; at x = 0 duplicates the right slope."""
        x = Fraction(x)
        if not (ZERO <= x <= ONE):
            raise DomainError(f"{x} outside [0, 1]")
        if x == ZERO:
            return self.slopes[0]
        i = bisect_right(self.breakpoints, x) - 1
        if self.breakpoints[i] == x:
            return self.slopes[i - 1] if i > 0 else self.slopes[0]
        return self.slopes[min(i, self.piece_count - 1)]

    def right_slope(self, x) -> Rat:
        """Slope just right of x; at x = 1 duplicates the left slope."""
        x = Fraction(x)
        if not (ZERO <= x <= ONE):
            raise DomainError(f"{x} outside [0, 1]")
        if x == ONE:
            return self.slopes[-1]
        i = bisect_right(self.breakpoints, x) - 1
        return self.slopes[min(i, self.piece_count - 1)]

    # --- composition ---

    def compose_with(self, inner: "PiecewiseLinearMap", piece_budget: int = 1_000_000) -> "PiecewiseLinearMap":
        """Exact self ∘ inner.

        Breakpoints of the composition: inner's breakpoints plus every point
        where inner crosses a breakpoint of self. A nonflat inner piece
        crosses a run of self's sorted breakpoints, found by bisection, so
        the piece count is known before anything is built; it is checked
        against piece_budget as it grows. At a crossing the value is the
        crossed breakpoint's value and the slopes are products, all read
        from the two tables.
        """
        outer = self.breakpoints
        count = inner.piece_count
        runs = []
        for i, s in enumerate(inner.slopes):
            u, v = inner.values[i], inner.values[i + 1]
            lo = bisect_right(outer, min(u, v))
            hi = bisect_left(outer, max(u, v))
            # the pieces of self that inner's piece i passes through, in order
            runs.append(range(lo - 1, hi) if s > 0 else range(hi - 1, lo - 2, -1))
            count += max(hi - lo, 0)
            if count > piece_budget:
                raise BudgetExceeded("pieces", piece_budget, needed=count)
        bps, vals, slopes = [], [], []
        scaled: dict[Rat, dict[int, Rat]] = {}
        for b, fb, s, run in zip(inner.breakpoints, inner.values, inner.slopes, runs):
            bps.append(b)
            vals.append(self(fb))
            if s == 0:
                slopes.append(s)
                continue
            # inner(x) = c at x = b + (c - fb) / s; entering piece j of self
            # crosses the end of j that faces fb
            step, ends = 1 / s, [j + (s < 0) for j in run[1:]]
            start = b - fb * step
            bps += [start + outer[e] * step for e in ends]
            vals += [self.values[e] for e in ends]
            # few distinct slopes recur across pieces: multiply each pair once
            row = scaled.setdefault(s, {})
            for j in run:
                sl = row.get(j)
                if sl is None:
                    sl = row[j] = self.slopes[j] * s
                slopes.append(sl)
        bps.append(ONE)
        vals.append(self(inner.values[-1]))
        g = object.__new__(PiecewiseLinearMap)
        g._merge_collinear(bps, vals, slopes)
        return g

    def compose_self(self, n: int, piece_budget: int = 1_000_000) -> "PiecewiseLinearMap":
        """Exact n-th iterate f^n as a map, by repeated squaring."""
        if n < 1:
            raise StructureError("iterate count must be >= 1")
        result: PiecewiseLinearMap | None = None
        base = self
        k = n
        while True:
            if k & 1:
                result = base if result is None else result.compose_with(base, piece_budget)
            k >>= 1
            if k == 0:
                break
            base = base.compose_with(base, piece_budget)
        return result

    # --- serialization, equality ---

    def to_json(self) -> dict:
        return to_wire({"breakpoints": self.breakpoints, "values": self.values})

    def __eq__(self, other):
        if not isinstance(other, PiecewiseLinearMap):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.values == other.values

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.breakpoints, self.values))
        return self._hash

    def __repr__(self):
        return f"PiecewiseLinearMap({self.piece_count} pieces)"
