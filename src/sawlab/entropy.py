"""Topological entropy, three routes.

markov: exact partition, spectral radius of the transition matrix. The
sharp answer whenever the breakpoint orbits close, and a proven one: lower
and upper are the logs of the radius's exact rational bracket (exact when no
recurrent class branches, Collatz-Wielandt bounds otherwise), rounded
outward. The value is the power iteration's float root, clamped into that
bracket.
Both exact routes list class_periods, the period of each branching class.

lap: the growth rate of the lap counts l_n of the iterates f^n, which is e^h
for a piecewise monotone map (Misiurewicz-Szlenk, Studia Math. 67, 1980).
The counts come from pushing lap images forward, as in Milnor-Thurston ("On
iterated maps of the interval", 1988). A lap of f^n is a lap J of f^(n-1) cut
by the laps of f on the image I = f^(n-1)(J), and no two such pieces merge:
across a turning point or a flat piece of f^(n-1), or of f on I, f^n turns
or is flat. So the images of the laps of f^n are the images f(L ∩ I), over
the images I of the laps of f^(n-1) and the laps L of f meeting I in more
than a point. Every endpoint lies in the Markov partition, so the images are
the nodes [p_i, p_j] of a finite graph M with integer edge counts, and
l_n = 1^T M^(n-1) c with c counting the images of f's own laps. No iterate
is composed. Every node is reached from c, so the entropy is the log of the
largest Perron root over the recurrent classes of M: lower and upper are its
Collatz-Wielandt bracket, rounded outward, and do not depend on n_max, which
only sets how many counts are listed. The value is the float root clamped
into the bracket, as on the Markov route.

bowen: greedy (n, eps)-separated sets on a float grid. Purely numeric,
deliberately independent of the exact machinery; used to cross-check the
other two, never to certify. It is the one route on numpy arrays, and it
imports numpy when it runs, so the package loads no numpy until then. The
greedy scan blocks forward: each kept orbit marks the later grid orbits
within eps of it, looking only eps to the right of it on the grid, and the
scan jumps to the next unmarked one. A value of 0.0 means no three-step
growth plateau showed below the count cap, not zero entropy: on strongly
expanding maps the counts reach the cap within a few steps (the full +-+-
sawtooth, whose entropy is log 4, reads 0.0).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BudgetExceeded, ConstraintViolation
from .markov import (
    Combinatorics,
    MarkovSystem,
    build_markov_system,
    recurrent_classes,
    spectral_radius,
)
from .plmap import PiecewiseLinearMap, _sign_runs
from .rational import Wire, float_down, float_up, format_rat

if TYPE_CHECKING:
    import numpy as np

# entropy_bowen's float grid, its separation scales and its longest orbit
BOWEN_GRID = 8192
BOWEN_EPS = (1.0 / 16, 1.0 / 64, 1.0 / 256)
BOWEN_N_MAX = 12


@dataclass(frozen=True)
class EntropyEstimate(Wire):
    value: float
    lower: float
    upper: float | None  # None: the route bounds nothing from above (bowen)
    method: str
    parameters: dict = field(default_factory=dict)


def entropy_markov(f: PiecewiseLinearMap, point_budget: int = 4096) -> EntropyEstimate:
    sys = build_markov_system(f, point_budget)
    est = sys.combinatorics.entropy
    return EntropyEstimate(
        value=est.value,
        lower=est.lower,
        upper=est.upper,
        method=est.method,
        parameters={
            "partition_points": len(sys.nums),
            **est.parameters,
            "class_periods": list(est.parameters["class_periods"]),
        },
    )


def _type_entropy(comb: Combinatorics) -> EntropyEstimate:
    """entropy_markov for every graph of one combinatorial type, less the
    partition size, which is the one figure a graph adds: the type's
    bracket, solved, rounded and formatted once per type
    (Combinatorics.entropy)."""
    rho, diag = spectral_radius(comb.successors, comb.recurrence)
    return _bracketed(
        rho,
        diag,
        "markov",
        {
            "nonflat_cells": len(comb.successors),
            "spectral_radius": rho,
            "method": diag["method"],
        },
    )


def _bracketed(rho: float, diag: Mapping, method: str, parameters: dict) -> EntropyEstimate:
    """The entropy of a spectral radius: the logs of its bracket, rounded
    outward, and the float's log clamped into them."""
    lo, hi = diag["rho_lower"], diag["rho_upper"]
    lower, upper = _log_down(lo), _log_up(hi)
    h = max(0.0, math.log(rho)) if rho > 0 else 0.0
    return EntropyEstimate(
        value=min(max(h, lower), upper),
        lower=lower,
        upper=upper,
        method=method,
        parameters={
            **parameters,
            "class_periods": list(diag["class_periods"]),
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


def _lap_graph(sys: MarkovSystem) -> tuple[list[list[int]], list[int]]:
    """The lap-image graph: ascending successor lists over the nodes, a
    multi-edge as repeated entries, and the count vector c of the images of
    f's laps.

    A node is a pair i < j of partition indices, the interval [p_i, p_j].
    The laps of f are the maximal runs of cells whose slopes share a nonzero
    sign; f maps the overlap of node (i, j) with lap (a, b) onto the node
    between the images of its ends. Nodes are numbered as they are found
    from c, so every node is reachable from c. The lists are sorted: the
    last bits of the Perron bracket follow the order of their entries.
    """
    laps = _sign_runs(sys.slopes)
    image = sys.image

    def images(i: int, j: int) -> list[tuple[int, int]]:
        return [
            tuple(sorted((image[lo], image[hi])))
            for lo, hi in ((max(i, a), min(j, b)) for a, b in laps)
            if lo < hi
        ]

    index: dict[tuple[int, int], int] = {}
    nodes: list[tuple[int, int]] = []

    def number(node: tuple[int, int]) -> int:
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
        return index[node]

    first = [number(node) for node in images(0, len(sys.nums) - 1)]
    succ: list[list[int]] = []
    while len(succ) < len(nodes):  # a new image adds a node to visit
        succ.append(sorted(number(node) for node in images(*nodes[len(succ)])))
    return succ, [first.count(k) for k in range(len(nodes))]


def entropy_lap(
    f: PiecewiseLinearMap, n_max: int = 10, piece_budget: int = 1_000_000
) -> EntropyEstimate:
    """Entropy from the lap-image graph (see the module docstring).

    lap_counts lists l_1 .. l_n_max, exact in Python integers. A count above
    piece_budget raises BudgetExceeded("pieces"): f^n has at least l_n
    pieces, so this refuses no window whose iterates fit the budget. An
    n_max above piece_budget raises it too, before any work, so the list
    has the same bound as each of its entries. The graph is built on the partition entropy_markov uses, with its default
    point budget of 4096, so the two routes raise the same errors.
    """
    if n_max < 1:
        raise ConstraintViolation(f"n_max must be >= 1, got {n_max}")
    if n_max > piece_budget:
        raise BudgetExceeded("pieces", piece_budget, needed=n_max)
    succ, v = _lap_graph(build_markov_system(f, 4096))
    counts = []
    for n in range(1, n_max + 1):
        total = sum(v)
        if total > piece_budget:
            raise BudgetExceeded("pieces", piece_budget, needed=total)
        counts.append(total)
        if n < n_max:
            nxt = [0] * len(v)
            for x, row in zip(v, succ):
                if x:
                    for y in row:
                        nxt[y] += x
            v = nxt
    k = len(succ)
    rho, diag = spectral_radius(succ, recurrent_classes(succ))
    return _bracketed(rho, diag, "lap", {"lap_counts": counts, "n_max": n_max, "nodes": k})


def _grid_orbits(f: PiecewiseLinearMap, n_max: int, grid: int) -> np.ndarray:
    """traj[t] = f^t in floats on the ascending grid of grid + 1 points, t < n_max."""
    import numpy as np  # the Bowen route alone needs numpy

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
    import numpy as np

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


def entropy_bowen(f: PiecewiseLinearMap) -> EntropyEstimate:
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
    traj = _grid_orbits(f, BOWEN_N_MAX, BOWEN_GRID)
    cap = BOWEN_GRID // 8
    margin = 0.02
    best = 0.0
    all_counts = {}
    for eps in BOWEN_EPS:
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
            "grid": BOWEN_GRID,
            "eps_list": list(BOWEN_EPS),
            "n_max": BOWEN_N_MAX,
            "separated_counts": {str(e): c for e, c in all_counts.items()},
        },
    )

