"""The stunted sawtooth family.

A shape is a strictly alternating sign word s_1 .. s_{d+1} giving the lap
directions of the degree-(d+1) sawtooth: breakpoints at k/(d+1), values
alternating between 0 and 1, every lap of slope ±(d+1). Turning point i sits
at c_i = i/(d+1) and is a local max when s_i = +1, a local min when s_i = -1.

Stunting truncates each turning point at a height w_i: a max is cut to the
plateau [c_i - (1-w_i)/(d+1), c_i + (1-w_i)/(d+1)] at value w_i, a min is
filled to [c_i - w_i/(d+1), c_i + w_i/(d+1)]. Heights must strictly
alternate against the lap signs, (w_j - w_{j+1}) * s_{j+1} < 0 for adjacent
turning points, which keeps the plateaus pairwise disjoint.

Off its plateaus S_w is the sawtooth, x -> ±(d+1)x + k, and a plateau sends
its points to its height. So with D the lcm of the heights' denominators,
an orbit that starts at a/D stays on points a'/D with a' an integer.
StuntedSawtoothMap holds S_w as those integer numerators and walks its
orbits on them: the kneading data, the boundary probe and the
renormalization tower's critical cycle read it, and no Fraction map is
evaluated along the way. Its plateaus and its Fraction map are read off the
same integers when first asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BudgetExceeded, ConstraintViolation
from .plmap import Ivl, PiecewiseLinearMap
from .rational import Rat, Wire, parse_rat, to_wire

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Shape:
    """Alternating lap-direction word, e.g. "+-" for the tent."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) < 2:
            raise ConstraintViolation("shape needs at least two laps")
        for s in self.signs:
            if s not in (-1, 1):
                raise ConstraintViolation("shape signs must be +1 or -1")
        for a, b in zip(self.signs, self.signs[1:]):
            if a == b:
                raise ConstraintViolation("shape signs must strictly alternate")

    @staticmethod
    def from_string(word: str) -> "Shape":
        table = {"+": 1, "-": -1}
        if not isinstance(word, str):
            raise ConstraintViolation(f"shape must be a string, got {word!r}")
        try:
            return Shape(tuple(table[ch] for ch in word.strip()))
        except KeyError as e:
            raise ConstraintViolation(f"bad shape character in {word!r}") from e

    def to_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def to_json(self) -> str:
        """A shape goes on the wire as its word."""
        return self.to_string()

    @property
    def d(self) -> int:
        """Number of turning points."""
        return len(self.signs) - 1

    def lap_sign(self, i: int) -> int:
        """Sign of lap i, 1-based."""
        return self.signs[i - 1]

    def turning_kind(self, i: int) -> str:
        """"max" or "min" for turning point i, 1-based."""
        return "max" if self.signs[i - 1] > 0 else "min"

    def turning_point(self, i: int) -> Rat:
        return Fraction(i, self.d + 1)

    def mirrored(self) -> "Shape":
        return Shape(tuple(-s for s in self.signs))


@dataclass(frozen=True)
class Plateau(Wire):
    """One truncation: turning point index (1-based), kind, interval, height.

    The interval is degenerate exactly when the height is extreme (w=1 for a
    max, w=0 for a min) and the turning point survives unstunted.
    """

    index: int
    kind: str
    interval: Ivl
    height: Rat


def validate_heights(shape: Shape, w: tuple[Rat, ...]) -> tuple[int, tuple[int, ...]]:
    """Refuse heights outside [0, 1] or out of the lap order. Admissible
    heights come back as den, the lcm of their denominators, and their
    numerators over den, on which both tests ran."""
    if len(w) != shape.d:
        raise ConstraintViolation(f"need {shape.d} heights, got {len(w)}")
    den = lcm(*(x.denominator for x in w))
    heights = tuple(x.numerator * (den // x.denominator) for x in w)
    for i, h in enumerate(heights, start=1):
        if not 0 <= h <= den:
            raise ConstraintViolation(f"height w_{i} = {w[i - 1]} outside [0, 1]")
    for j in range(1, shape.d):
        if (heights[j - 1] - heights[j]) * shape.lap_sign(j + 1) >= 0:
            raise ConstraintViolation(
                f"heights must satisfy (w_{j} - w_{j+1}) * s_{j+1} < 0; "
                f"got w_{j} = {w[j-1]}, w_{j+1} = {w[j]}"
            )
    return den, heights


def build_sawtooth(shape: Shape) -> PiecewiseLinearMap:
    """The unstunted sawtooth: full-height teeth, slopes ±(d+1). It is the
    member whose heights are at their extremes, 1 at a max and 0 at a min."""
    return StuntedSawtoothMap(shape, [int(s > 0) for s in shape.signs[:-1]]).map


class StuntedSawtoothMap:
    """A member S_w of the stunted family, held on integer numerators over
    one common denominator.

    The point a/den, with den the lcm of the heights' denominators, steps
    to a point over den again: on lap k (0-based, sign s) to (d+1)a - k*den
    when s = +1 and to (k+1)*den - (d+1)a when s = -1, and on plateau j to
    heights[j-1]. Positions are compared in units of 1/((d+1)*den): turning
    point j sits at j*den, and its plateau reaches den - heights[j-1] (a
    max) or heights[j-1] (a min) to either side. A plateau can reach past
    the middle of the lap next to it (plateau 1 of +-+ at heights
    (3/10, 1/10) does), so a point is tested against both turning points
    that bound its lap.

    A rank locates a point among the plateaus: 2j - 1 on plateau j, 2j in
    the gap right of plateau j (0 left of plateau 1).

    The plateaus and the Fraction map are views of the same integers, built
    when first read.
    """

    __slots__ = (
        "shape", "w", "den", "heights", "_n", "_d", "_lo", "_hi", "_lap", "_plateaus", "_map"
    )

    def __init__(self, shape: Shape, w):
        w = tuple(x if type(x) is Fraction else Fraction(x) for x in w)
        den, heights = validate_heights(shape, w)
        n = shape.d + 1
        half = [den - h if s > 0 else h for s, h in zip(shape.signs, heights)]
        self.shape = shape
        self.w = w
        self.den = den
        self.heights = heights
        self._n = n
        self._d = shape.d
        # index 0 is never read: lap 0 has no turning point on its left
        self._lo = (None, *(j * den - h for j, h in enumerate(half, start=1)))
        self._hi = (None, *(j * den + h for j, h in enumerate(half, start=1)))
        # lap k as (sign, offset): a -> sign * (d+1)a + offset
        self._lap = tuple(
            (1, -k * den) if s > 0 else (-1, (k + 1) * den) for k, s in enumerate(shape.signs)
        )
        self._plateaus = self._map = None

    @property
    def d(self) -> int:
        return self.shape.d

    @property
    def plateaus(self) -> tuple[Plateau, ...]:
        """Plateau j is [lo_j, hi_j] / ((d+1)*den) at height w_j."""
        if self._plateaus is None:
            s = self._n * self.den
            self._plateaus = tuple(
                Plateau(j, self.shape.turning_kind(j), Ivl(Fraction(lo, s), Fraction(hi, s)), wj)
                for j, lo, hi, wj in zip(range(1, self._n), self._lo[1:], self._hi[1:], self.w)
            )
        return self._plateaus

    def plateau(self, i: int) -> Plateau:
        return self.plateaus[i - 1]

    @property
    def map(self) -> PiecewiseLinearMap:
        """S_w as a breakpoint table read off the integers: breakpoints over
        (d+1)*den, values 0, 1 and the heights, lap slopes ±(d+1)."""
        if self._map is None:
            scale = self._n * self.den
            signs = self.shape.signs
            # the corners 0, lo_1, hi_1, ..., lo_d, hi_d, 1 with their values;
            # piece i runs from corner i to corner i + 1, lap i/2 when i is even
            xs, ys = [0], [ZERO if signs[0] > 0 else ONE]
            for j, wj in enumerate(self.w, start=1):
                xs += [self._lo[j], self._hi[j]]
                ys += [wj, wj]
            xs.append(scale)
            ys.append(ONE if signs[-1] > 0 else ZERO)
            # a point plateau, or a lap a plateau covers to its end, has no piece
            keep = [i for i in range(len(xs) - 1) if xs[i] < xs[i + 1]]
            bps = [*(Fraction(xs[i], scale) for i in keep), ONE]
            vals = [ys[i] for i in (*keep, -1)]
            slope = {1: Fraction(self._n), -1: Fraction(-self._n)}
            slopes = [slope[signs[i // 2]] if i % 2 == 0 else ZERO for i in keep]
            f = object.__new__(PiecewiseLinearMap)
            f._merge_collinear(bps, vals, slopes)
            self._map = f
        return self._map

    def step(self, a: int) -> tuple[int, int]:
        """(rank of a/den, numerator of its image)."""
        x = self._n * a
        k = min(x // self.den, self._d)
        if k and x <= self._hi[k]:
            return 2 * k - 1, self.heights[k - 1]
        if k < self._d and x >= self._lo[k + 1]:
            return 2 * k + 1, self.heights[k]
        sign, offset = self._lap[k]
        return 2 * k, sign * x + offset

    def ranks(self, a: int, n: int) -> tuple[int, ...]:
        """Ranks of a/den and its first n - 1 images."""
        step = self.step
        out = []
        for _ in range(n):
            r, a = step(a)
            out.append(r)
        return tuple(out)

    def walk(self, a: int, max_steps: int) -> tuple[list[int], int]:
        """Numerators a_0 .. a_t up to the first repeat, and the index j < t
        with a_j = a_t. Raises BudgetExceeded if no repeat appears within
        max_steps steps."""
        step = self.step
        seen = {a: 0}
        pts = [a]
        for t in range(1, max_steps + 1):
            a = step(a)[1]
            pts.append(a)
            j = seen.setdefault(a, t)
            if j != t:
                return pts, j
        raise BudgetExceeded("steps", max_steps)

    def to_json(self) -> dict:
        return to_wire({"shape": self.shape, "w": self.w, "map": self.map})

    @staticmethod
    def from_json(obj: dict) -> "StuntedSawtoothMap":
        if not isinstance(obj, dict):
            raise ConstraintViolation("family JSON must be an object")
        try:
            shape, w = obj["shape"], obj["w"]
        except KeyError as e:
            raise ConstraintViolation(f"family JSON missing key {e}") from e
        if not isinstance(w, list):
            raise ConstraintViolation(f"family w must be a list of heights, got {w!r}")
        return StuntedSawtoothMap(Shape.from_string(shape), [parse_rat(x) for x in w])

    def __repr__(self):
        return f"StuntedSawtoothMap({self.shape.to_string()}, w={[str(x) for x in self.w]})"


@dataclass(frozen=True)
class PlateauSelection(Wire):
    """Subset of plateau indices (1-based) chosen for targeted perturbation."""

    indices: frozenset[int]
    delta: Rat


def select_lambda_plateaus(m: StuntedSawtoothMap, omega_points, delta) -> PlateauSelection:
    """Plateaus within distance delta of some accumulation point.

    Distance is from the plateau interval (zero when a point lands inside).
    """
    delta = Fraction(delta)
    pts = [Fraction(p) for p in omega_points]
    chosen = set()
    for p in m.plateaus:
        for x in pts:
            dist = max(ZERO, p.interval.lo - x, x - p.interval.hi)
            if dist <= delta:
                chosen.add(p.index)
                break
    return PlateauSelection(frozenset(chosen), delta)


def _chaosward_direction(kind: str) -> int:
    # taller max / deeper min sharpens the tooth
    return 1 if kind == "max" else -1


def perturb_toward_chaos(m: StuntedSawtoothMap, eps, selection: PlateauSelection | None = None) -> StuntedSawtoothMap:
    """Sharpen the selected plateaus by up to eps, staying strictly admissible.

    Each selected height moves toward its extreme (max up, min down) by
    min(eps, half the remaining room). Moving this direction widens the gaps
    between adjacent plateaus, so pair constraints cannot break. Raises when a
    selected plateau has no room at all.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ConstraintViolation("perturbation size must be positive")
    indices = set(range(1, m.d + 1)) if selection is None else set(selection.indices)
    if not indices:
        raise ConstraintViolation("empty plateau selection")
    new_w = list(m.w)
    for i in sorted(indices):
        p = m.plateau(i)
        room = (ONE - p.height) if p.kind == "max" else p.height
        if room == 0:
            raise ConstraintViolation(f"plateau {i} already at its extreme height")
        step = min(eps, room / 2)
        new_w[i - 1] = p.height + _chaosward_direction(p.kind) * step
    return StuntedSawtoothMap(m.shape, new_w)


def perturb_toward_order(m: StuntedSawtoothMap, eps) -> StuntedSawtoothMap:
    """Flatten every plateau by one uniform step, staying strictly admissible.

    All heights move toward the flat middle (max down, min up) by a common
    delta = min(eps, half the smallest room, quarter the smallest pair gap);
    the quarter keeps each strict pair inequality intact when both ends of a
    pair move toward each other.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ConstraintViolation("perturbation size must be positive")
    step = eps
    for p in m.plateaus:
        room = p.height if p.kind == "max" else (ONE - p.height)
        if room == 0:
            raise ConstraintViolation(f"plateau {p.index} already fully flattened")
        step = min(step, room / 2)
    for j in range(1, m.d):
        gap = abs(m.w[j - 1] - m.w[j])
        step = min(step, gap / 4)
    new_w = [
        p.height - _chaosward_direction(p.kind) * step
        for p in m.plateaus
    ]
    return StuntedSawtoothMap(m.shape, new_w)
