"""Classification of family members and boundary exploration.

The verdicts: Finite(P) for maps whose complete period set tops out at
P = 2^j below the resolution budget 2^k; Boundary2Inf(depth) for maps at the
doubling accumulation at that resolution, certified by a renormalization
tower; Chaotic for positive entropy; Inconclusive when a budget ran out
before the evidence closed, with the budget named.

The pipeline decides the sign of entropy first, exactly, from the Markov
graph: the entropy is positive if and only if some recurrent class branches
(Block, Guckenheimer, Misiurewicz and Young, 1980). No float is compared with
a threshold. With entropy zero the period set is a finite set of powers of
two and comes whole from the transition graph, so no period sweep is needed;
with positive entropy the sweep runs only to collect a non-power-of-two
witness orbit, and a homoclinic search supplies the second certificate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .entropy import EntropyEstimate, entropy_markov
from .errors import BudgetExceeded, ConstraintViolation, StructureError
from .family import (
    PlateauSelection,
    Shape,
    StuntedSawtoothMap,
    perturb_toward_chaos,
    perturb_toward_order,
    select_lambda_plateaus,
)
from .homoclinic import find_homoclinic
from .kneading import Cylinder, doubling_word, itinerary_cylinder
from .markov import build_markov_system
from .orbits import (
    complete_period_set,
    omega_accumulation,
    period_set,
)
from .rational import Rat, Wire, format_rat, to_wire
from .renorm import build_tower

# halvings allowed to bisect_boundary
BISECT_MAX_ITERATIONS = 10_000
# the largest dyadic exponent e of a point refine_to_boundary returns: the
# halvings of the bracket a bisection would take to reach it
REFINE_MAX_ITERATIONS = 3000


@dataclass(frozen=True)
class Budgets(Wire):
    """Resource limits for classification. k is the verdict resolution: maps
    whose periods stay below 2^k are Finite, at or beyond it the tower takes
    over."""

    k: int = 8
    piece_budget: int = 1_000_000
    partition_budget: int = 4096
    step_budget: int = 1_000_000
    tower_depth: int = 6
    sweep_n_max: int = 16
    sweep_piece_budget: int = 50_000
    homoclinic_period_bound: int = 6
    homoclinic_m_budget: int = 64
    homoclinic_frontier: int = 20_000

    def __post_init__(self):
        # every count is at least 1: a zero search bound would certify
        # "nothing found" after searching nothing
        for f in fields(self):
            value = getattr(self, f.name)
            if not value >= 1:
                raise ConstraintViolation(f"budget {f.name!r} must be >= 1, got {value!r}")

    @staticmethod
    def from_json(obj: dict) -> "Budgets":
        """Defaults overridden by obj. An unknown key, a value that is not an
        int or one out of range is a ConstraintViolation."""
        if not isinstance(obj, dict):
            raise ConstraintViolation("budgets must be a JSON object")
        names = {f.name for f in fields(Budgets)}
        for key, value in obj.items():
            if key not in names:
                raise ConstraintViolation(f"unknown budget {key!r}")
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConstraintViolation(f"budget {key!r} must be int, got {value!r}")
        return Budgets(**obj)


@dataclass(frozen=True)
class ClassificationRecord(Wire):
    verdict: str  # Finite | Boundary2Inf | Chaotic | Inconclusive
    label: str  # e.g. Finite(4), Boundary2Inf(6), Chaotic
    shape: str
    w: tuple[Rat, ...]
    entropy: EntropyEstimate | None
    detail: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    budgets: Budgets = field(default_factory=Budgets)
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        """classify builds detail and certificates from wire values (every
        report in them went in through its to_json), so they go out as they
        are instead of through to_wire again."""
        return {
            "verdict": self.verdict,
            "label": self.label,
            "shape": self.shape,
            "w": [format_rat(x) for x in self.w],
            "entropy": to_wire(self.entropy),
            "detail": self.detail,
            "certificates": self.certificates,
            "budgets": self.budgets.to_json(),
            "notes": list(self.notes),
        }


def _positive_entropy(f, b: Budgets) -> bool:
    """The exact sign of entropy: positive if and only if some recurrent
    class of the Markov graph branches."""
    return bool(build_markov_system(f, b.partition_budget).recurrence.branching)


def classify(m: StuntedSawtoothMap, budgets: Budgets | None = None) -> ClassificationRecord:
    b = budgets or Budgets()
    base = dict(shape=m.shape.to_string(), w=m.w, budgets=b)

    def stopped(error, entropy, certificates=None, **detail) -> ClassificationRecord:
        """Inconclusive: a stage ran out of budget or met a structure it
        cannot read; detail names the stage, the note is the error or stop reason."""
        return ClassificationRecord(
            verdict="Inconclusive",
            label="Inconclusive",
            entropy=entropy,
            detail=detail,
            certificates=certificates or {},
            notes=(str(error),),
            **base,
        )

    try:
        h = entropy_markov(m.map, b.partition_budget)
    except BudgetExceeded as e:
        return stopped(e, None, stage="entropy")

    if _positive_entropy(m.map, b):  # a cache hit: entropy_markov built this graph
        sweep = period_set(
            m.map,
            b.sweep_n_max,
            piece_budget=b.sweep_piece_budget,
            stop_on_non_power_of_two=True,
            point_budget=b.partition_budget,
        )
        homo = find_homoclinic(
            m.map,
            period_bound=b.homoclinic_period_bound,
            m_budget=b.homoclinic_m_budget,
            piece_budget=b.piece_budget,
            frontier_budget=b.homoclinic_frontier,
            point_budget=b.partition_budget,
        )
        witness = sweep.stop_witness
        detail = {
            "period_witness": witness.to_json() if witness else None,
            "homoclinic_found": homo.found,
        }
        return ClassificationRecord(
            verdict="Chaotic",
            label="Chaotic",
            entropy=h,
            detail=detail,
            certificates={
                "period_sweep": sweep.to_json(),
                "homoclinic": homo.to_json(),
            },
            **base,
        )

    # zero entropy: the structural period set is finite and exhaustive
    try:
        psr = complete_period_set(m.map, b.partition_budget)
    except (BudgetExceeded, StructureError) as e:
        return stopped(e, h, stage="period_structure")
    bad = [p for p in psr.periods if p & (p - 1) != 0]
    if bad:
        raise StructureError(
            f"zero entropy but non-power-of-two periods {sorted(bad)}; inconsistent evidence"
        )
    max_p = max(psr.periods) if psr.periods else 1
    if max_p.bit_length() <= b.k:  # max_p < 2^k, without building 2^k
        return ClassificationRecord(
            verdict="Finite",
            label=f"Finite({max_p})",
            entropy=h,
            detail={"max_period": max_p, "period_set": sorted(psr.periods)},
            certificates={"period_set": psr.to_json()},
            **base,
        )

    try:
        tower = build_tower(m, max_depth=b.tower_depth, max_steps=b.step_budget)
    except BudgetExceeded as e:
        return stopped(e, h, stage="tower", max_period=max_p)
    if tower.depth >= b.tower_depth:
        return ClassificationRecord(
            verdict="Boundary2Inf",
            label=f"Boundary2Inf({tower.depth})",
            entropy=h,
            detail={"tower_depth": tower.depth, "max_period": max_p},
            certificates={"period_set": psr.to_json(), "tower": tower.to_json()},
            **base,
        )
    return stopped(
        f"tower stopped at depth {tower.depth}: {tower.stop_reason}",
        h,
        {"tower": tower.to_json()},
        stage="tower",
        tower_depth=tower.depth,
        max_period=max_p,
    )


# === boundary bracketing ===


@dataclass(frozen=True)
class BoundaryBracket(Wire):
    shape: str
    lo_w: tuple[Rat, ...]
    hi_w: tuple[Rat, ...]
    midpoint_w: tuple[Rat, ...]
    width: Rat
    iterations: int
    lo_record: ClassificationRecord
    hi_record: ClassificationRecord

    def to_json(self) -> dict:
        return {**super().to_json(), "width_float": float(self.width)}


def _width(lo: StuntedSawtoothMap, hi: StuntedSawtoothMap) -> Rat:
    return max(abs(x - y) for x, y in zip(lo.w, hi.w))


def _midpoint(lo: StuntedSawtoothMap, hi: StuntedSawtoothMap) -> StuntedSawtoothMap:
    return StuntedSawtoothMap(lo.shape, [(a + c) / 2 for a, c in zip(lo.w, hi.w)])


def _flanked(shape: str, lo, hi, iterations: int, b: Budgets) -> BoundaryBracket:
    """The bracket between two flanks, both classified in full."""
    return BoundaryBracket(
        shape=shape,
        lo_w=lo.w,
        hi_w=hi.w,
        midpoint_w=_midpoint(lo, hi).w,
        width=_width(lo, hi),
        iterations=iterations,
        lo_record=classify(lo, b),
        hi_record=classify(hi, b),
    )


def bisect_boundary(
    shape: Shape,
    w_lo,
    w_hi,
    target_width,
    budgets: Budgets | None = None,
) -> BoundaryBracket:
    """Shrink a zero-entropy/positive-entropy bracket to the target width.

    Midpoints are discriminated by the exact entropy sign alone, read from
    the Markov graph (some recurrent class branches), so a probe solves no
    Perron root; the sign split is the Finite/non-Finite split being
    bracketed. The final flanks get full classifications. Endpoints stay
    exact rationals throughout, so the bracket can be refined again later.
    """
    b = budgets or Budgets()
    target = Fraction(target_width)
    if target <= 0:
        raise ConstraintViolation("target width must be positive")
    lo = StuntedSawtoothMap(shape, w_lo)
    hi = StuntedSawtoothMap(shape, w_hi)
    if _positive_entropy(lo.map, b):
        raise ConstraintViolation("low endpoint must have zero entropy")
    if not _positive_entropy(hi.map, b):
        raise ConstraintViolation("high endpoint must have positive entropy")
    iters = 0
    while _width(lo, hi) > target:
        if iters >= BISECT_MAX_ITERATIONS:
            raise BudgetExceeded("steps", BISECT_MAX_ITERATIONS)
        mid = _midpoint(lo, hi)
        if _positive_entropy(mid.map, b):
            hi = mid
        else:
            lo = mid
        iters += 1
    return _flanked(shape.to_string(), lo, hi, iters, b)


@dataclass(frozen=True)
class RefinedBoundary(Wire):
    bracket: BoundaryBracket
    level: int
    record: ClassificationRecord
    extra_iterations: int


def _least_dyadic(cell: Cylinder) -> tuple[int, int]:
    """(j, e) for the dyadic j/2^e in the cell and in (0, 1) of least e, the
    first midpoint that halvings of (0, 1) toward the cell reach; its j is the
    only one at that e, since between two lies an even j, a smaller e. Such
    j at e stay such at e + 1 as 2j, so e is bisected on their count."""
    (a, p), (b, q) = cell.lo.as_integer_ratio(), cell.hi.as_integer_ratio()

    def ends(e: int) -> tuple[int, int]:  # the least and the largest such j at e
        least = max(((a << e) - cell.lo_closed) // p + 1, 1)
        return least, min(((b << e) - (not cell.hi_closed)) // q, (1 << e) - 1)

    e = bisect_left(range(REFINE_MAX_ITERATIONS + 1), True, key=lambda e: ends(e)[0] <= ends(e)[1])
    if e > REFINE_MAX_ITERATIONS:
        raise BudgetExceeded("steps", REFINE_MAX_ITERATIONS)
    return ends(e)[0], e


def refine_to_boundary(
    bracket: BoundaryBracket,
    budgets: Budgets | None = None,
    target_level: int | None = None,
) -> RefinedBoundary:
    """The first point a bisection of the bracket meets in a doubling cell
    at the verdict resolution, solved instead of searched.

    On the line w(t) = lo_w + t·(hi_w - lo_w) the level-L doubling cell,
    where critical orbit 1 runs through the word K_L (`doubling_word`)
    and so has period 2^L, is one exact interval of t
    (`itinerary_cylinder`). In the first cell that meets 0 < t < 1 the
    point is the dyadic t = j/2^e of least e, the midpoint that e halvings
    reach first, bracketed by w((j ± 1)/2^e), solved in integers from the
    cell's ends (`_least_dyadic`). The full classifier certifies it, or the
    next level's cell is tried. No orbit or halving is walked.

    The level sought is max(target_level, k) for the budgets' k, and k when
    target_level is None, and a level L is tried while 2^L is within the
    step budget. Below level k the classifier answers Finite (Boundary2Inf
    needs a period of at least 2^k), so a lower target would only add full
    classifies that cannot end the search. When no level's cell is
    certified, StructureError names the levels tried: only orbit 1's
    doubling words are solved, and on a line where another critical orbit
    doubles they find no cell.
    """
    if target_level is not None and target_level < 1:
        raise ConstraintViolation(f"target level must be >= 1, got {target_level}")
    b = budgets or Budgets()
    shape = Shape.from_string(bracket.shape)
    lo_w = bracket.lo_w
    v = tuple(y - x for x, y in zip(lo_w, bracket.hi_w))

    def at(t) -> StuntedSawtoothMap:
        return StuntedSawtoothMap(shape, [x + t * y for x, y in zip(lo_w, v)])

    # K_1 starts at the rank of w_1 on the low end, or on the high end when
    # w_1 sits on a plateau at the low end (level 0)
    ranks = [m.step(m.heights[0])[0] for m in (at(0), at(1))]
    first = ranks[ranks[0] % 2]
    levels = range(max(target_level or b.k, b.k), b.step_budget.bit_length())
    for level in levels:
        cell = itinerary_cylinder(shape, lo_w, v, 1, doubling_word(shape, first, level))
        if cell is None or cell.hi <= 0 or cell.lo >= 1:
            continue
        j, e = _least_dyadic(cell)
        mid = at(Fraction(j, 1 << e))
        record = classify(mid, b)
        if record.verdict == "Boundary2Inf":
            # t is the midpoint of its flanks (j -+ 1)/2^e
            lo, hi = at(Fraction(j - 1, 1 << e)), at(Fraction(j + 1, 1 << e))
            new_bracket = _flanked(bracket.shape, lo, hi, bracket.iterations + e, b)
            return RefinedBoundary(new_bracket, level, record, extra_iterations=e)
    tried = f"levels {levels.start} to {levels.stop - 1}" if levels else "no level in the step budget"
    raise StructureError(
        f"no doubling cell of critical orbit 1 on the bracket is Boundary2Inf; tried {tried}"
    )


# === the two-sided perturbation experiment ===


@dataclass(frozen=True)
class PerturbationTrial(Wire):
    eps: Rat
    chaos_w: tuple[Rat, ...]
    chaos_label: str
    chaos_ok: bool
    order_w: tuple[Rat, ...]
    order_label: str
    order_ok: bool
    clamped: bool


@dataclass(frozen=True)
class PerturbationExperiment(Wire):
    base: ClassificationRecord
    selection: PlateauSelection
    omega_points: tuple[Rat, ...]
    radius: Rat
    trials: tuple[PerturbationTrial, ...]
    ok: bool


def two_sided_perturbation_experiment(
    m: StuntedSawtoothMap,
    eps_values=(Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)),
    budgets: Budgets | None = None,
) -> PerturbationExperiment:
    """At a certified doubling-accumulation member, sharpening the plateaus
    near the attractor tips the map chaotic, flattening them makes it finite
    at every perturbation size tried. The precondition is strict: anything
    but a Boundary2Inf base is refused."""
    eps_values = tuple(Fraction(eps) for eps in eps_values)
    if not eps_values:
        # no trial would make every trial pass
        raise ConstraintViolation("the experiment needs at least one perturbation size")
    b = budgets or Budgets()
    if b.k < 3:
        # the accumulation set is read off the orbits of periods 8 to 2^min(6, k)
        raise ConstraintViolation(f"the experiment needs k >= 3, got k = {b.k}")
    base = classify(m, b)
    if base.verdict != "Boundary2Inf":
        raise ConstraintViolation(
            f"experiment requires a Boundary2Inf base, got {base.label}"
        )
    k_hi = min(6, b.k)
    # a Boundary2Inf base has orbits of periods 8 to 2^k_hi, so pts is not
    # empty, and at radius 1 every plateau lies within reach of any point
    for radius in (Fraction(1, 100), Fraction(1, 10), Fraction(1)):
        pts = omega_accumulation(m.map, 3, k_hi, radius, b.piece_budget, b.partition_budget)
        sel = select_lambda_plateaus(m, pts, radius)
        if sel.indices:
            break

    trials = []
    for eps in eps_values:
        chaos_m = perturb_toward_chaos(m, eps, sel)
        order_m = perturb_toward_order(m, eps)
        chaos_rec = classify(chaos_m, b)
        order_rec = classify(order_m, b)
        clamped = any(
            abs(a - c) < eps for a, c in zip(m.w, chaos_m.w)
        ) or any(abs(a - c) < eps for a, c in zip(m.w, order_m.w))
        trials.append(
            PerturbationTrial(
                eps=eps,
                chaos_w=chaos_m.w,
                chaos_label=chaos_rec.label,
                chaos_ok=chaos_rec.verdict == "Chaotic",
                order_w=order_m.w,
                order_label=order_rec.label,
                order_ok=order_rec.verdict == "Finite",
                clamped=clamped,
            )
        )
    return PerturbationExperiment(
        base=base,
        selection=sel,
        omega_points=pts,
        radius=radius,
        trials=tuple(trials),
        ok=all(t.chaos_ok and t.order_ok for t in trials),
    )
