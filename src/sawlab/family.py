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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintViolation
from .plmap import Ivl, PiecewiseLinearMap
from .rational import Rat, format_rat, parse_rat

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
class Plateau:
    """One truncation: turning point index (1-based), kind, interval, height.

    The interval is degenerate exactly when the height is extreme (w=1 for a
    max, w=0 for a min) and the turning point survives unstunted.
    """

    index: int
    kind: str
    interval: Ivl
    height: Rat

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "interval": self.interval.to_json(),
            "height": format_rat(self.height),
        }


def validate_heights(shape: Shape, w: tuple[Rat, ...]) -> None:
    if len(w) != shape.d:
        raise ConstraintViolation(f"need {shape.d} heights, got {len(w)}")
    for i, wi in enumerate(w, start=1):
        if not (ZERO <= wi <= ONE):
            raise ConstraintViolation(f"height w_{i} = {wi} outside [0, 1]")
    for j in range(1, shape.d):
        if (w[j - 1] - w[j]) * shape.lap_sign(j + 1) >= 0:
            raise ConstraintViolation(
                f"heights must satisfy (w_{j} - w_{j+1}) * s_{j+1} < 0; "
                f"got w_{j} = {w[j-1]}, w_{j+1} = {w[j]}"
            )


def build_sawtooth(shape: Shape) -> PiecewiseLinearMap:
    """The unstunted sawtooth: full-height teeth, slopes ±(d+1)."""
    n = shape.d + 1
    bps = [Fraction(k, n) for k in range(n + 1)]
    y0 = ZERO if shape.signs[0] > 0 else ONE
    vals = [y0 if k % 2 == 0 else ONE - y0 for k in range(n + 1)]
    return PiecewiseLinearMap(bps, vals)


class StuntedSawtoothMap:
    """A member S_w of the stunted family: shape + heights + realized map."""

    __slots__ = ("shape", "w", "map", "plateaus")

    def __init__(self, shape: Shape, w):
        w = tuple(Fraction(x) for x in w)
        validate_heights(shape, w)
        d = shape.d
        n = d + 1
        plateaus = []
        for i in range(1, d + 1):
            c = Fraction(i, n)
            wi = w[i - 1]
            if shape.turning_kind(i) == "max":
                half = (ONE - wi) / n
            else:
                half = wi / n
            plateaus.append(Plateau(i, shape.turning_kind(i), Ivl(c - half, c + half), wi))

        y0 = ZERO if shape.signs[0] > 0 else ONE
        y_end = y0 if n % 2 == 0 else ONE - y0
        pts: list[tuple[Rat, Rat]] = [(ZERO, y0)]
        for p in plateaus:
            pts.append((p.interval.lo, p.height))
            pts.append((p.interval.hi, p.height))
        pts.append((ONE, y_end))
        bps, vals = [], []
        for b, v in pts:
            if bps and b == bps[-1]:
                # coincidence only at extreme heights, where values agree
                assert v == vals[-1], "inconsistent value at shared breakpoint"
                continue
            bps.append(b)
            vals.append(v)

        self.shape = shape
        self.w = w
        self.map = PiecewiseLinearMap(bps, vals)
        self.plateaus = tuple(plateaus)

    @property
    def d(self) -> int:
        return self.shape.d

    def plateau(self, i: int) -> Plateau:
        return self.plateaus[i - 1]

    def with_heights(self, w) -> "StuntedSawtoothMap":
        return StuntedSawtoothMap(self.shape, w)

    def to_json(self) -> dict:
        return {
            "shape": self.shape.to_string(),
            "w": [format_rat(x) for x in self.w],
            "map": self.map.to_json(),
        }

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
class PlateauSelection:
    """Subset of plateau indices (1-based) chosen for targeted perturbation."""

    indices: frozenset[int]
    delta: Rat

    def to_json(self) -> dict:
        return {"indices": sorted(self.indices), "delta": format_rat(self.delta)}


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
