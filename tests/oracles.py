"""Fraction references the tests compare sawlab against.

The package reads every map through its integer Markov system; these are the
literal Fraction routes on a PiecewiseLinearMap and an Ivl, kept apart from
the package so that nothing in it can come to lean on them.
"""

from fractions import Fraction

from sawlab import ConstraintViolation, DomainError, Ivl
from sawlab.homoclinic import HomoclinicWitness, unstable_manifold


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
