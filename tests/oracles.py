"""Fraction references the tests compare sawlab against.

The package reads every map through its integer Markov system; these are the
literal Fraction routes on a PiecewiseLinearMap and an Ivl, kept apart from
the package so that nothing in it can come to lean on them. The boundary
refinement's bisection, which probes midpoints one walk at a time where the
package solves the doubling cell, is kept here for the same reason, and so
are the halving walk to the cell's first dyadic midpoint and the pass over
every form of an itinerary cylinder, where the package solves the midpoint
from the cell's ends and stops at the first form that empties the cell, the
doubling word's gap from the parity of the whole word, which the package
alternates, the orbit sweep over the whole cell graph, which the package runs class
by class, the endless sequence of powers, which the package forms one
block at a time, and the binary adding machine on words, whose step the
package's tower takes as r -> r + 1 mod 2^n.
"""

from fractions import Fraction
from math import lcm, prod
from operator import mul

import numpy as np

from sawlab import (
    BoundaryBracket,
    BudgetExceeded,
    Budgets,
    ConstraintViolation,
    Cylinder,
    DomainError,
    Ivl,
    RefinedBoundary,
    Shape,
    StructureError,
    StuntedSawtoothMap,
    classify,
)
from sawlab.explore import REFINE_MAX_ITERATIONS, _midpoint, _width
from sawlab.homoclinic import HomoclinicWitness, unstable_manifold
from sawlab.kneading import _conditions, _parity
from sawlab.markov import build_markov_system
from sawlab.orbits import _off_partition_orbit, _partition_cycles, _run_product


def validate_heights(shape, w) -> None:
    """Admissibility compared as Fractions: each height in [0, 1], adjacent
    heights strictly ordered against the lap signs."""
    if len(w) != shape.d:
        raise ConstraintViolation(f"need {shape.d} heights, got {len(w)}")
    for i, wi in enumerate(w, start=1):
        if not (0 <= wi <= 1):
            raise ConstraintViolation(f"height w_{i} = {wi} outside [0, 1]")
    for j in range(1, shape.d):
        if (w[j - 1] - w[j]) * shape.lap_sign(j + 1) >= 0:
            raise ConstraintViolation(
                f"heights must satisfy (w_{j} - w_{j+1}) * s_{j+1} < 0; "
                f"got w_{j} = {w[j-1]}, w_{j+1} = {w[j]}"
            )


def contains(ivl, x) -> bool:
    return ivl.lo <= x <= ivl.hi


def is_degenerate(ivl) -> bool:
    return ivl.lo == ivl.hi


def interior_intersects(a, b) -> bool:
    """True iff the open interiors overlap. Degenerate intervals never do."""
    return max(a.lo, b.lo) < min(a.hi, b.hi)


def hull(a, b):
    return Ivl(min(a.lo, b.lo), max(a.hi, b.hi))


def iterate(f, x, n: int):
    """f^n(x), one evaluation at a time."""
    x = Fraction(x)
    for _ in range(n):
        x = f(x)
    return x


def orbit(f, x, n: int) -> tuple:
    """x, f(x), ..., f^n(x): n+1 points."""
    pts = [Fraction(x)]
    for _ in range(n):
        pts.append(f(pts[-1]))
    return tuple(pts)


def plateaus(f) -> tuple:
    """Maximal closed intervals on which f is constant: its flat pieces, as
    the map merges collinear neighbours."""
    bps = f.breakpoints
    return tuple(Ivl(a, b) for a, b, s in zip(bps, bps[1:], f.slopes) if s == 0)


def image_of_interval(f, ivl):
    """Exact image f([a, b]): extremes occur at endpoints or breakpoints."""
    if not (0 <= ivl.lo and ivl.hi <= 1):
        raise DomainError(f"{ivl} outside [0, 1]")
    cand = [f(ivl.lo), f(ivl.hi)]
    cand += [v for b, v in zip(f.breakpoints, f.values) if ivl.lo < b < ivl.hi]
    return Ivl(min(cand), max(cand))


def preimages_of_point(f, y):
    """All solutions of f(x) = y: isolated points ascending, plus flat intervals."""
    y = Fraction(y)
    pts = []
    flats = []
    for i, s in enumerate(f.slopes):
        b0, b1 = f.breakpoints[i], f.breakpoints[i + 1]
        v0 = f.values[i]
        if s == 0:
            if v0 == y:
                flats.append(Ivl(b0, b1))
            continue
        x = b0 + (y - v0) / s
        if b0 <= x <= b1:
            pts.append(x)
    pts = sorted(set(pts))
    # drop points swallowed by a flat preimage interval
    out_pts = tuple(p for p in pts if not any(contains(fl, p) for fl in flats))
    return out_pts, tuple(flats)


def search_orbit(sys, orb, m_budget: int, frontier_budget: int):
    """The preimage tree on Fractions: (witness, saturated) for one repelling
    orbit of sys.map, a drop-in for sawlab.homoclinic._search_orbit.

    Each node's preimages come from preimages_of_point and each orbit
    point's unstable set from unstable_manifold under its default point
    budget, so it stands in only for find_homoclinic runs under that budget.
    """
    f, n = sys.map, orb.period
    wsets = [unstable_manifold(f, q, power=n) for q in orb.points]
    base = orb.points[0]
    w0 = wsets[0]
    if is_degenerate(w0):
        return None, True
    orbit_set = set(orb.points)

    visited = {base}
    current = [base]
    for k in range(1, m_budget + 1):
        allowed = wsets[(n - k % n) % n]
        nxt = []
        for y in current:
            pts, flats = preimages_of_point(f, y)
            cands = list(pts)
            for fl in flats:
                lo = max(fl.lo, allowed.lo)
                hi = min(fl.hi, allowed.hi)
                if lo <= hi:
                    cands.extend((lo, hi, (lo + hi) / 2))
            for z in cands:
                if not contains(allowed, z) or z in visited:
                    continue
                visited.add(z)
                if len(visited) > frontier_budget:
                    return None, False
                if k % n == 0 and z not in orbit_set and w0.lo < z < w0.hi:
                    return HomoclinicWitness(orbit=orb, x=z, m=k, unstable=w0), True
                nxt.append(z)
        if not nxt:
            return None, True
        current = nxt
    return None, False


def refine_by_bisection(
    bracket: BoundaryBracket,
    budgets: Budgets | None = None,
    target_level: int | None = None,
) -> RefinedBoundary:
    """Keep halving until the midpoint reaches the doubling accumulation at
    the verdict resolution: the bisection that sawlab.refine_to_boundary
    solves in one step, kept as its reference.

    The per-midpoint probe is cheap: the principal critical orbit of a
    zero-entropy member is purely periodic with a power-of-two period 2^L,
    and L climbs without bound as the bracket closes on the accumulation
    parameter. The probe walks that orbit on the midpoint's integers and
    builds no Fraction map. Once the midpoint's L reaches the target the
    full classifier re-certifies that same midpoint; the probe never decides
    the final verdict on its own.

    The level sought is max(target_level, k) for the budgets' k, and k when
    target_level is None. Below level k the classifier answers Finite
    (Boundary2Inf needs a period of at least 2^k), so a lower target would
    only add full classifies that cannot end the search.
    """
    if target_level is not None and target_level < 1:
        raise ConstraintViolation(f"target level must be >= 1, got {target_level}")
    b = budgets or Budgets()
    level_goal = max(target_level or b.k, b.k)
    shape = Shape.from_string(bracket.shape)
    lo = StuntedSawtoothMap(shape, bracket.lo_w)
    hi = StuntedSawtoothMap(shape, bracket.hi_w)
    for it in range(1, REFINE_MAX_ITERATIONS + 1):
        mid = _midpoint(lo, hi)
        finite_side = False
        level = 0
        try:
            pts, preperiod = mid.walk(mid.heights[0], b.step_budget)
            period = len(pts) - 1 - preperiod
            if preperiod == 0 and period & (period - 1) == 0:
                finite_side = True
                level = period.bit_length() - 1
        except BudgetExceeded:
            pass  # no cycle within the step budget: treated as the chaotic side
        if finite_side and level >= level_goal:
            record = classify(mid, b)
            if record.verdict == "Boundary2Inf":
                new_bracket = BoundaryBracket(
                    shape=bracket.shape,
                    lo_w=lo.w,
                    hi_w=hi.w,
                    midpoint_w=mid.w,
                    width=_width(lo, hi),
                    iterations=bracket.iterations + it,
                    lo_record=classify(lo, b),
                    hi_record=classify(hi, b),
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
    raise BudgetExceeded("steps", REFINE_MAX_ITERATIONS)


def least_dyadic_by_halving(cell: Cylinder) -> tuple[int, int]:
    """(j, e) for the first midpoint j/2^e of the halvings of (0, 1) toward
    the cell that lies in it, one Fraction probe per halving: the walk that
    sawlab.explore._least_dyadic solves from the cell's ends. The cell must
    meet (0, 1); past REFINE_MAX_ITERATIONS halvings it raises
    BudgetExceeded("steps")."""
    j, e = 1, 1
    while (t := Fraction(j, 1 << e)) not in cell:
        if e == REFINE_MAX_ITERATIONS:
            raise BudgetExceeded("steps", REFINE_MAX_ITERATIONS)
        j, e = 2 * j + (1 if t < cell.hi else -1), e + 1
    return j, e


def itinerary_cylinder_by_every_form(shape, w0, v, orbit: int, ranks) -> Cylinder | None:
    """sawlab.itinerary_cylinder's set from a pass over every one of the
    kneading forms, empty or not decided only once all are read: the package
    stops at the first form that empties it. w0 and v are Fractions."""
    den = lcm(*(x.denominator for x in (*w0, *v)))
    p, q = ([x.numerator * (den // x.denominator) for x in u] for u in (w0, v))
    (ln, lm), (hn, hm), lo_closed, hi_closed = (-1, 0), (1, 0), True, True
    empty = False
    for (c0, *c), strict in _conditions(shape, [(orbit, tuple(ranks))]):
        a = c0 * den + sum(map(mul, c, p))
        b = sum(map(mul, c, q))
        if not b:
            empty = empty or a < 0 or (strict and not a)
        elif b > 0:  # t >= -a/b
            if -a * lm > ln * b:
                ln, lm, lo_closed = -a, b, not strict
            elif -a * lm == ln * b and strict:
                lo_closed = False
        elif a * hm < hn * -b:  # t <= a/-b
            hn, hm, hi_closed = a, -b, not strict
        elif a * hm == hn * -b and strict:
            hi_closed = False
    lo, hi = Fraction(ln, lm), Fraction(hn, hm)
    if not empty and (lo < hi or (lo == hi and lo_closed and hi_closed)):
        return Cylinder(lo, hi, lo_closed, hi_closed)
    return None


def doubling_word_by_parity_product(shape, first: int, level: int) -> tuple[int, ...]:
    """sawlab.doubling_word with each level's gap x read from the product of
    the parities over the whole word A·0: x = 0 when A·0 reverses
    orientation, else 2. The package takes x once from K_1 and alternates
    it."""
    word = (first, 1)
    for _ in range(level - 1):
        a = word[:-1]
        x = 0 if prod(_parity(shape, r) for r in (*a, 0)) < 0 else 2
        word = (*a, x, *a, 1)
    return word


def walk_powers(runs):
    """A, A^2, A^3, ... as lists of columns, for the 0/1 matrix A whose row a
    is 1 exactly on the columns in runs[a], each product through the runs
    (_run_product) from the identity on, as the package's blocks form them:
    A is never written out."""
    k = len(runs)
    power = [[int(u == s) for u in range(k)] for s in range(k)]
    while True:
        power = _run_product(runs, power)
        yield power


def whole_graph_walk_orbits(f, n_max: int, piece_budget: int = 1_000_000, point_budget: int = 4096):
    """periodic_orbits' walk route over the whole cell graph, for a map with a
    branching class: yields (n, orbits of minimal period n) for n = 1..n_max.

    Every power of the full transition matrix A is formed, densely, and its
    trace checked against piece_budget; every cell with a closed walk of
    length n starts a depth-first walk. The package powers only the blocks of
    the branching classes a period can close in and solves bare cycles
    without powers. The dense powers are int64 and checked for headroom, so
    this is for small n.
    """
    sys = build_markov_system(f, point_budget)
    if not sys.recurrence.branching:
        raise ValueError("no branching class: the bare-cycle inventory answers")
    k = len(sys.successors)
    adj = np.zeros((k, k), dtype=np.int64)
    for a, run in enumerate(sys.successors):
        adj[a, run.start : run.stop] = 1
    lattice = frozenset(sys.nums)
    cycles = _partition_cycles(sys)
    # bit u of back[m][s]: some walk of length m leads from cell u to cell s
    back = [[1 << s for s in range(k)]]
    power = np.eye(k, dtype=np.int64)
    for n in range(1, n_max + 1):
        assert power.max() < (1 << 62) // k  # the next product cannot wrap
        power = adj @ power
        walks = int(np.trace(power))
        if walks > piece_budget:
            raise BudgetExceeded("walks", piece_budget, needed=walks)
        back.append([sum(1 << u for u in range(k) if power[u, s]) for s in range(k)])
        found = [o for o in cycles if o.period == n]
        for s0 in range(k):
            if back[n][s0] >> s0 & 1:
                found += _whole_graph_orbits_from_cell(sys, s0, n, back, lattice)
        found.sort(key=lambda o: o.points[0])
        yield n, tuple(found)


def _whole_graph_orbits_from_cell(sys, s0, n, back, lattice):
    """Orbits of minimal period n off the partition whose smallest point lies
    in cell s0: depth-first over the closed walks of length n from s0 through
    cells >= s0, each walk's branch composed in integers and its fixed point
    walked to check that it is the orbit's smallest point."""
    branch, succ = sys.branches, sys.successors
    home = [back[m][s0] for m in range(n)]  # bit u of home[m]: u returns to s0 in m steps
    path = [s0] * n
    found = []
    s, t = branch[s0]
    stack = [(0, s0, s, t)]
    while stack:
        d, c, a, b = stack.pop()
        path[d] = c
        if d < n - 1:
            ok = home[n - d - 1]
            for u in succ[c]:
                if u >= s0 and ok >> u & 1:
                    s, t = branch[u]
                    stack.append((d + 1, u, s * a, s * b + t))
            continue
        m = 1 - a
        if m == 0:
            if b == 0:
                raise StructureError("slope-1 closed walk fixed pointwise; continuum of solutions")
            continue
        if m < 0:
            m, b = -m, -b
        if b % m == 0 and b // m in lattice:
            continue
        cs = [b]
        for cell in path[:-1]:
            s, t = branch[cell]
            y = s * cs[-1] + t * m
            if y <= b:
                break
            cs.append(y)
        else:
            found.append(_off_partition_orbit(cs, sys.den * m, a))
    return found


# The binary adding machine on finite words. Words are little-endian bit
# strings: position 0 carries the least significant bit, so stepping "000"
# gives "100" and stepping "111" wraps to "000". One step flips bit i exactly
# when all earlier bits are 1, which is binary increment with carry. The orbit
# of the zero word of length n is a single cycle through all 2^n words. The
# package's tower tests r -> r + 1 mod 2^n directly; these words are the
# odometer that successor is checked against.

MAX_WORD_LENGTH = 20


def _check_word(word: str) -> None:
    if not word or any(ch not in "01" for ch in word):
        raise ConstraintViolation(f"bad binary word {word!r}")
    if len(word) > MAX_WORD_LENGTH:
        raise ConstraintViolation(f"word longer than {MAX_WORD_LENGTH} bits")


def adding_machine_step(word: str) -> str:
    _check_word(word)
    bits = []
    carry = True
    for ch in word:
        b = ch == "1"
        bits.append("1" if b != carry else "0")
        carry = carry and b
    return "".join(bits)


def word_index(word: str) -> int:
    """Little-endian integer value of a word."""
    _check_word(word)
    return sum(1 << i for i, ch in enumerate(word) if ch == "1")


def index_word(k: int, n: int) -> str:
    """Inverse of word_index for length-n words."""
    if not (0 <= k < (1 << n)):
        raise ConstraintViolation(f"index {k} out of range for {n}-bit words")
    return "".join("1" if (k >> i) & 1 else "0" for i in range(n))


def odometer_orbit(n: int) -> list[str]:
    """The full 2^n cycle starting from the zero word."""
    if not (1 <= n <= MAX_WORD_LENGTH):
        raise ConstraintViolation(f"word length must be in 1..{MAX_WORD_LENGTH}")
    word = "0" * n
    out = [word]
    for _ in range((1 << n) - 1):
        word = adding_machine_step(word)
        out.append(word)
    return out
