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

from dataclasses import dataclass, field, fields
from fractions import Fraction

from .entropy import EntropyEstimate, entropy_markov
from .errors import BudgetExceeded, ConstraintViolation, StructureError
from .family import (
    OrbitKernel,
    PlateauSelection,
    Shape,
    StuntedSawtoothMap,
    perturb_toward_chaos,
    perturb_toward_order,
    select_lambda_plateaus,
)
from .homoclinic import find_homoclinic
from .markov import build_markov_system
from .orbits import (
    complete_period_set,
    omega_accumulation,
    period_set,
)
from .rational import Rat, Wire
from .renorm import build_tower, semiconjugacy_check


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


def _positive_entropy(f, b: Budgets) -> bool:
    """The exact sign of entropy: positive if and only if some recurrent
    class of the Markov graph branches."""
    return bool(build_markov_system(f, b.partition_budget).recurrence.branching)


def classify(m: StuntedSawtoothMap, budgets: Budgets | None = None) -> ClassificationRecord:
    b = budgets or Budgets()
    base = dict(shape=m.shape.to_string(), w=m.w, budgets=b)

    def stopped(error, entropy, **detail) -> ClassificationRecord:
        """Inconclusive: a stage ran out of budget or met a structure it
        cannot read; detail names the stage, the note is the error."""
        return ClassificationRecord(
            verdict="Inconclusive",
            label="Inconclusive",
            entropy=entropy,
            detail=detail,
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
        semi = semiconjugacy_check(tower, tower.depth)
        return ClassificationRecord(
            verdict="Boundary2Inf",
            label=f"Boundary2Inf({tower.depth})",
            entropy=h,
            detail={
                "tower_depth": tower.depth,
                "max_period": max_p,
                "semiconjugacy_ok": semi.ok,
            },
            certificates={
                "period_set": psr.to_json(),
                "tower": tower.to_json(),
                "semiconjugacy": semi.to_json(),
            },
            **base,
        )
    return ClassificationRecord(
        verdict="Inconclusive",
        label="Inconclusive",
        entropy=h,
        detail={"stage": "tower", "tower_depth": tower.depth, "max_period": max_p},
        certificates={"tower": tower.to_json()},
        notes=(f"tower stopped at depth {tower.depth}: {tower.stop_reason}",),
        **base,
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


def _vec(shape: Shape, w) -> tuple[Rat, ...]:
    w = tuple(Fraction(x) for x in w)
    if len(w) != shape.d:
        raise ConstraintViolation(f"need {shape.d} heights, got {len(w)}")
    return w


def _vec_width(a, b) -> Rat:
    return max(abs(x - y) for x, y in zip(a, b))


def bisect_boundary(
    shape: Shape,
    w_lo,
    w_hi,
    target_width,
    budgets: Budgets | None = None,
    max_iterations: int = 10_000,
) -> BoundaryBracket:
    """Shrink a zero-entropy/positive-entropy bracket to the target width.

    Midpoints are discriminated by the exact entropy sign alone, read from
    the Markov graph (some recurrent class branches), so a probe runs no
    eigensolver; the sign split is the Finite/non-Finite split being
    bracketed. The final flanks get full classifications. Endpoints stay
    exact rationals throughout, so the bracket can be refined again later.
    """
    b = budgets or Budgets()
    target = Fraction(target_width)
    if target <= 0:
        raise ConstraintViolation("target width must be positive")
    lo = _vec(shape, w_lo)
    hi = _vec(shape, w_hi)
    if _positive_entropy(StuntedSawtoothMap(shape, lo).map, b):
        raise ConstraintViolation("low endpoint must have zero entropy")
    if not _positive_entropy(StuntedSawtoothMap(shape, hi).map, b):
        raise ConstraintViolation("high endpoint must have positive entropy")
    iters = 0
    while _vec_width(lo, hi) > target:
        if iters >= max_iterations:
            raise BudgetExceeded("steps", max_iterations)
        mid = tuple((a + c) / 2 for a, c in zip(lo, hi))
        if _positive_entropy(StuntedSawtoothMap(shape, mid).map, b):
            hi = mid
        else:
            lo = mid
        iters += 1
    mid = tuple((a + c) / 2 for a, c in zip(lo, hi))
    return BoundaryBracket(
        shape=shape.to_string(),
        lo_w=lo,
        hi_w=hi,
        midpoint_w=mid,
        width=_vec_width(lo, hi),
        iterations=iters,
        lo_record=classify(StuntedSawtoothMap(shape, lo), b),
        hi_record=classify(StuntedSawtoothMap(shape, hi), b),
    )


@dataclass(frozen=True)
class RefinedBoundary(Wire):
    bracket: BoundaryBracket
    level: int
    record: ClassificationRecord
    extra_iterations: int


def refine_to_boundary(
    bracket: BoundaryBracket,
    budgets: Budgets | None = None,
    target_level: int | None = None,
    max_iterations: int = 3000,
) -> RefinedBoundary:
    """Keep halving until the midpoint reaches the doubling accumulation at
    the verdict resolution.

    The per-midpoint probe is cheap: the principal critical orbit of a
    zero-entropy member is purely periodic with a power-of-two period 2^L,
    and L climbs without bound as the bracket closes on the accumulation
    parameter. The probe walks that orbit in the integer kernel of the
    midpoint's heights and builds no map. Once the midpoint's L reaches the
    target the full classifier re-certifies it; the probe never decides the
    final verdict on its own.
    """
    if target_level is not None and target_level < 1:
        raise ConstraintViolation(f"target level must be >= 1, got {target_level}")
    b = budgets or Budgets()
    level_goal = b.k if target_level is None else target_level
    shape = Shape.from_string(bracket.shape)
    lo = bracket.lo_w
    hi = bracket.hi_w
    for it in range(1, max_iterations + 1):
        mid = tuple((a + c) / 2 for a, c in zip(lo, hi))
        kernel = OrbitKernel(shape, mid)
        finite_side = False
        level = 0
        try:
            pts, preperiod = kernel.walk(kernel.heights[0], b.step_budget)
            period = len(pts) - 1 - preperiod
            if preperiod == 0 and period & (period - 1) == 0:
                finite_side = True
                level = period.bit_length() - 1
        except BudgetExceeded:
            pass  # no cycle within the step budget: treated as the chaotic side
        if finite_side and level >= level_goal:
            m = StuntedSawtoothMap(shape, mid)
            record = classify(m, b)
            if record.verdict == "Boundary2Inf":
                new_bracket = BoundaryBracket(
                    shape=bracket.shape,
                    lo_w=lo,
                    hi_w=hi,
                    midpoint_w=mid,
                    width=_vec_width(lo, hi),
                    iterations=bracket.iterations + it,
                    lo_record=classify(StuntedSawtoothMap(shape, lo), b),
                    hi_record=classify(StuntedSawtoothMap(shape, hi), b),
                )
                return RefinedBoundary(
                    bracket=new_bracket,
                    level=level,
                    record=record,
                    extra_iterations=it,
                )
        if finite_side:
            lo = mid
        else:
            hi = mid
    raise BudgetExceeded("steps", max_iterations)


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
    b = budgets or Budgets()
    base = classify(m, b)
    if base.verdict != "Boundary2Inf":
        raise ConstraintViolation(
            f"experiment requires a Boundary2Inf base, got {base.label}"
        )
    radius = Fraction(1, 100)
    k_hi = min(6, b.k)
    pts: tuple[Rat, ...] = ()
    sel = PlateauSelection(frozenset(), radius)
    for _ in range(4):
        pts = omega_accumulation(m.map, 3, k_hi, radius, b.piece_budget, b.partition_budget)
        sel = select_lambda_plateaus(m, pts, radius)
        if sel.indices:
            break
        radius *= 10
    if not sel.indices:
        raise ConstraintViolation("no plateau lies near the accumulation set")

    trials = []
    for eps in eps_values:
        eps = Fraction(eps)
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
