"""Topological entropy, three routes.

markov: exact partition, spectral radius of the transition matrix. The
sharp answer whenever the breakpoint orbits close.

lap: growth rate of lap counts of the iterates. Submultiplicativity makes
(1/n) log laps(f^n) an upper bound for every n, so the reported upper is the
minimum over the window; the reported lower is the last consecutive-ratio
slope, a heuristic that converges from below in practice but carries no
certificate.

bowen: greedy (n, eps)-separated sets on a float grid. Purely numeric,
deliberately independent of the exact machinery; used to cross-check the
other two, never to certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation
from .markov import build_markov_system, spectral_radius
from .plmap import PiecewiseLinearMap


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    lower: float
    upper: float
    method: str
    parameters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method,
            "parameters": {
                k: v for k, v in self.parameters.items() if not isinstance(v, np.ndarray)
            },
        }


def entropy_markov(
    f: PiecewiseLinearMap, point_budget: int = 4096, tol: float = 1e-12
) -> EntropyEstimate:
    sys = build_markov_system(f, point_budget)
    rho, diag = spectral_radius(sys.adjacency, tol)
    h = max(0.0, math.log(rho)) if rho > 0 else 0.0
    return EntropyEstimate(
        value=h,
        lower=h,
        upper=h,
        method="markov",
        parameters={
            "partition_points": len(sys.points),
            "nonflat_cells": len(sys.nonflat),
            "spectral_radius": rho,
            **diag,
        },
    )


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


def _separated_counts(traj: np.ndarray, eps: float, cap: int) -> list[int]:
    """Greedy (n, eps)-separated family sizes for n = 1..len(traj).

    Each family is genuinely separated, so its size is a lower bound on the
    maximal one. Counting stops at cap: past that the grid resolution, not
    the dynamics, limits the family.
    """
    n_max, npts = traj.shape
    counts = []
    for n in range(1, n_max + 1):
        block = traj[:n].T
        kept = np.empty((cap, n))
        m = 0
        for row in block:
            if m == 0 or (np.abs(kept[:m] - row).max(axis=1) > eps).all():
                kept[m] = row
                m += 1
                if m >= cap:
                    break
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
    """
    bps = np.array([float(b) for b in f.breakpoints])
    vals = np.array([float(v) for v in f.values])
    xs = np.linspace(0.0, 1.0, grid + 1)
    traj = np.empty((n_max, xs.size))
    cur = xs
    for t in range(n_max):
        traj[t] = cur
        cur = np.interp(cur, bps, vals)

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
        upper=math.inf,
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
