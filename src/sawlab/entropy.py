"""Topological entropy, three routes.

markov: exact partition, spectral radius of the transition matrix. The
sharp answer whenever the breakpoint orbits close, and a proven one: lower
and upper are the logs of the radius's exact rational bracket (exact when no
recurrent class branches, Collatz-Wielandt bounds otherwise), rounded
outward. The value is the float eigensolver's, clamped into that bracket.

lap: growth rate of lap counts of the iterates. Submultiplicativity makes
(1/n) log laps(f^n) an upper bound for every n, so the reported upper is the
minimum over the window; the reported lower is the last consecutive-ratio
slope, a heuristic with no certificate that can exceed the entropy. At
n_max 10 it reads 0.105 on the tent at 4/5, whose entropy is 0, and 0.324 on
the tent at 33/40, whose Markov entropy is 0.1733.

bowen: greedy (n, eps)-separated sets on a float grid. Purely numeric,
deliberately independent of the exact machinery; used to cross-check the
other two, never to certify. The greedy scan blocks forward: each kept orbit
marks the later grid orbits within eps of it, looking only eps to the right
of it on the grid, and the scan jumps to the next unmarked one. A value of
0.0 means no three-step growth plateau showed below the count cap, not zero
entropy: on strongly expanding maps the counts reach the cap within a few
steps (the full +-+- sawtooth, whose entropy is log 4, reads 0.0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConstraintViolation
from .markov import build_markov_system, spectral_radius
from .plmap import PiecewiseLinearMap
from .rational import Wire, float_down, float_up, format_rat


@dataclass(frozen=True)
class EntropyEstimate(Wire):
    value: float
    lower: float
    upper: float | None  # None: the route bounds nothing from above (bowen)
    method: str
    parameters: dict = field(default_factory=dict)


def entropy_markov(f: PiecewiseLinearMap, point_budget: int = 4096) -> EntropyEstimate:
    sys = build_markov_system(f, point_budget)
    rho, diag = spectral_radius(sys)
    lo, hi = diag["rho_lower"], diag["rho_upper"]
    lower, upper = _log_down(lo), _log_up(hi)
    h = max(0.0, math.log(rho)) if rho > 0 else 0.0
    return EntropyEstimate(
        value=min(max(h, lower), upper),
        lower=lower,
        upper=upper,
        method="markov",
        parameters={
            "partition_points": len(sys.points),
            "nonflat_cells": len(sys.nonflat),
            "spectral_radius": rho,
            "method": diag["method"],
            "power_iterations": diag["power_iterations"],
            "rho_lower": format_rat(lo),
            "rho_upper": format_rat(hi),
        },
    )


# Entropy is max(0, log rho). math.log is within one ulp of the true log, so
# one nextafter step outward from the log of a directed float bound covers it.


def _log_down(q: Fraction) -> float:
    if q <= 1:
        return 0.0
    return max(0.0, math.nextafter(math.log(float_down(q)), -math.inf))


def _log_up(q: Fraction) -> float:
    if q <= 1:
        return 0.0
    return math.nextafter(math.log(float_up(q)), math.inf)


def entropy_lap(
    f: PiecewiseLinearMap, n_max: int = 10, piece_budget: int = 1_000_000
) -> EntropyEstimate:
    if n_max < 1:
        raise ConstraintViolation(f"n_max must be >= 1, got {n_max}")
    counts = []
    g = f
    for n in range(1, n_max + 1):
        counts.append(g.lap_count())
        if n < n_max:
            g = g.compose_with(f, piece_budget)
    if all(c <= 1 for c in counts):
        return EntropyEstimate(0.0, 0.0, 0.0, "lap", {"lap_counts": counts})
    upper = min(
        math.log(max(c, 1)) / n for n, c in enumerate(counts, start=1)
    )
    if len(counts) >= 2 and counts[-2] > 0:
        lower = max(0.0, math.log(counts[-1] / counts[-2]))
    else:
        lower = 0.0
    lower = min(lower, upper)
    return EntropyEstimate(
        value=upper,
        lower=lower,
        upper=upper,
        method="lap",
        parameters={"lap_counts": counts, "n_max": n_max},
    )


def _grid_orbits(f: PiecewiseLinearMap, n_max: int, grid: int) -> np.ndarray:
    """traj[t] = f^t in floats on the ascending grid of grid + 1 points, t < n_max."""
    bps = np.array([float(b) for b in f.breakpoints])
    vals = np.array([float(v) for v in f.values])
    traj = np.empty((n_max, grid + 1))
    cur = np.linspace(0.0, 1.0, grid + 1)
    for t in range(n_max):
        traj[t] = cur
        cur = np.interp(cur, bps, vals)
    return traj


def _separated_counts(traj: np.ndarray, eps: float, cap: int) -> list[int]:
    """Greedy (n, eps)-separated family sizes for n = 1..len(traj).

    Each family is genuinely separated, so its size is a lower bound on the
    maximal one. Counting stops at cap: past that the grid resolution, not
    the dynamics, limits the family.

    The greedy scan keeps the orbit of a grid point unless an earlier kept
    orbit stays within eps of it. Here each kept orbit k blocks the later
    orbits within eps of it, and the scan jumps to the next unblocked one.
    traj[0] is the ascending grid, so only orbits k+1..ends[k]-1 (eps to
    the right at step 0, plus two points for rounding) can be within eps of
    orbit k, and orbit ends[k] is still free: the next kept orbit is the
    first free one in k+1..ends[k].
    """
    n_max, npts = traj.shape
    xs = traj[0]
    ends = np.minimum(np.searchsorted(xs, xs + eps, "right") + 2, npts)
    counts = []
    for n in range(1, n_max + 1):
        block = traj[:n]
        blocked = np.zeros(npts + 1, dtype=bool)  # index npts: a free sentinel
        m, k = 0, 0
        while k < npts:
            m += 1
            if m >= cap:
                break
            e = ends[k]
            near = np.abs(block[:, k + 1 : e] - block[:, k : k + 1]).max(axis=0) <= eps
            blocked[k + 1 : e] |= near
            k += 1 + blocked[k + 1 : e + 1].argmin()
        counts.append(m)
        if m >= cap:
            break
    return counts


def entropy_bowen(
    f: PiecewiseLinearMap,
    n_max: int = 12,
    eps_list: tuple[float, ...] = (1.0 / 16, 1.0 / 64, 1.0 / 256),
    grid: int = 8192,
) -> EntropyEstimate:
    """Heuristic lower estimate from separated-orbit counts.

    Exponential growth shows as a plateau of equal per-step slopes in the
    log-counts, starting at step one, until the grid resolution (spacing
    amplified by the expansion) starts depleting the greedy family. A
    positive value is reported only for a plateau at least three steps long;
    the decaying slopes of transient refinement or of the polynomial growth
    a neutral fixed point produces never form one. A small margin keeps the
    reported number on the safe side of greedy and grid noise.

    The route bounds nothing from above, so upper is None (null on the
    wire) and lower is the value. And 0.0 is no verdict of zero entropy.
    Where every count reaches the cap grid/8 within three to five steps, as
    on the full +-+- sawtooth, +- at w = 9/10 and +-+ at w = (9/10, 1/10),
    there is no plateau to read and the value is 0.0 although the entropy is
    positive.

    Each count list comes from one greedy scan per n, whose Python work is
    one step per kept orbit (see _separated_counts).
    """
    traj = _grid_orbits(f, n_max, grid)
    cap = grid // 8
    margin = 0.02
    best = 0.0
    all_counts = {}
    for eps in eps_list:
        counts = _separated_counts(traj, eps, cap)
        pre = [c for c in counts if c < cap]
        all_counts[eps] = counts
        if len(pre) < 4:
            continue
        logs = [math.log(c) for c in pre]
        deltas = [logs[k + 1] - logs[k] for k in range(len(logs) - 1)]
        tol_band = 0.01 + 0.05 * sorted(deltas[:3])[1]
        run = 1
        while (
            run < len(deltas)
            and max(deltas[: run + 1]) - min(deltas[: run + 1]) <= tol_band
        ):
            run += 1
        if run < 3:
            continue
        best = max(best, min(deltas[:run]) - margin)
    est = max(0.0, best)
    return EntropyEstimate(
        value=est,
        lower=est,
        upper=None,
        method="bowen",
        parameters={
            "grid": grid,
            "eps_list": list(eps_list),
            "n_max": n_max,
            "separated_counts": {str(e): c for e, c in all_counts.items()},
        },
    )


def entropy(f: PiecewiseLinearMap, method: str = "markov", **kw) -> EntropyEstimate:
    if method == "markov":
        return entropy_markov(f, **kw)
    if method == "lap":
        return entropy_lap(f, **kw)
    if method == "bowen":
        return entropy_bowen(f, **kw)
    raise ValueError(f"unknown entropy method {method!r}")
