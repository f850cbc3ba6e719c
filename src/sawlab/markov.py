"""Markov partitions and transition structure for rational PL maps.

A finite set P of partition points with f(P) ⊆ P and P containing every
breakpoint cuts [0, 1] into cells on which the map is affine, and each cell's
image is exactly a union of cells. The transition matrix over the non-flat
cells then carries the dynamics: its spectral radius gives the entropy, its
strongly connected components the recurrent structure. The components are
sorted into bare cycles and branching classes once per graph. The spectral
radius comes with a proven rational bracket: exact 1 or 0 when no class
branches, Collatz-Wielandt bounds in integer arithmetic on each branching
class otherwise. No power iteration runs.

Building P is orbit closure of the breakpoints; for this package's maps that
terminates fast because plateau hits collapse denominators, but the builder is
budgeted so arbitrary inputs fail loudly instead of spinning. The closure runs
on a lattice: with den the lcm of the denominators of the breakpoints and the
values, and every slope an integer (a stunted sawtooth's slopes are ±(d+1) or
0, an iterate's their products), f maps (1/den)Z into itself. So the point
a/den steps to V_i + s_i(a - B_i) over den, with B_i, V_i the numerators of
piece i's left end and its value there, and the whole partition is a set of
integer numerators. A map with a non-integer slope has no such lattice and
raises StructureError. The system keeps f on P, as indices into P (image),
the integer slope of every cell, and the affine branch of each nonflat cell
as an integer pair (branches): f restricted to P and to the cells, from which
the orbit module reads every periodic orbit and the homoclinic module every
unstable set without evaluating f again.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import BudgetExceeded, StructureError
from .plmap import PiecewiseLinearMap
from .rational import Rat, float_down, float_up


@dataclass(frozen=True)
class Recurrence:
    """The recurrent classes of a 0/1 graph.

    cycles: the bare-cycle classes, each in tour order; they make every
    periodic orbit of a zero-entropy map. branching: the classes carrying two
    or more cycles; each forces spectral radius > 1.
    """

    cycles: tuple[tuple[int, ...], ...]
    branching: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MarkovSystem:
    """Partition plus transition data for one map.

    The partition lies on the lattice (1/den)Z: points[i] = nums[i] / den.
    Cell i is [points[i], points[i + 1]].
    """

    map: PiecewiseLinearMap
    den: int
    nums: tuple[int, ...]  # integer numerators of the points, ascending
    points: tuple[Rat, ...]
    image: tuple[int, ...]  # index in points of f at each point, aligned with points
    slopes: tuple[int, ...]  # slope of f on each cell, flat cells included
    nonflat: tuple[int, ...]  # indices of the cells with nonzero slope
    branches: tuple[tuple[int, int], ...]  # (s, t), f(x) = s*x + t/den on each nonflat cell
    adjacency: np.ndarray  # 0/1 over nonflat x nonflat, read-only
    recurrence: Recurrence  # classified once, read by the spectral radius and the orbit inventory

    def side_slope(self, orbit: Sequence[int], side: int) -> int:
        """Derivative of f^n along an orbit of partition points, from one side at the start.

        orbit lists the points' indices x_0 .. x_{n-1}; side is -1 (left) or
        +1 (right) at x_0. The one-sided slopes are the slopes of the cells
        next to each point; a negative slope reflects the side, a zero slope
        kills the product. At the domain edges the only available side is
        used.
        """
        slopes, last = self.slopes, len(self.slopes)
        total, cur = 1, side
        for i in orbit:
            if i == 0:
                cur = 1
            elif i == last:
                cur = -1
            s = slopes[i - 1] if cur < 0 else slopes[i]
            if s == 0:
                return 0
            total *= s
            if s < 0:
                cur = -cur
        return total


@functools.lru_cache(maxsize=1)
def build_markov_system(f: PiecewiseLinearMap, point_budget: int = 4096) -> MarkovSystem:
    """Close the breakpoint set under f and assemble the transition matrix.

    The closure runs on integer numerators over one denominator; a map with
    a non-integer slope raises StructureError. The last result is memoized
    and shared, so its adjacency is read-only. Callers pass (f, point_budget)
    positionally to hit the same entry.
    """
    odd = next((s for s in f.slopes if s.denominator != 1), None)
    if odd is not None:
        raise StructureError(f"slope {odd} is not an integer; f maps no lattice (1/den)Z into itself")
    den = lcm(*(x.denominator for x in (*f.breakpoints, *f.values)))
    bps = [b.numerator * (den // b.denominator) for b in f.breakpoints]
    slopes = [s.numerator for s in f.slopes]
    # piece i maps a to s_i * a + offset_i, the line through (B_i, V_i)
    offsets = [v.numerator * (den // v.denominator) - s * b for v, s, b in zip(f.values, slopes, bps)]
    last = len(slopes) - 1
    pts: set[int] = set(bps)
    fp: dict[int, int] = {}  # f at each point, evaluated once
    frontier = bps
    while frontier:
        if len(pts) > point_budget:
            raise BudgetExceeded("partition", point_budget, needed=len(pts))
        nxt = []
        for a in frontier:
            i = min(bisect_right(bps, a) - 1, last)
            q = fp[a] = slopes[i] * a + offsets[i]
            if q not in pts:
                pts.add(q)
                nxt.append(q)
        frontier = nxt
    nums = tuple(sorted(pts))
    index = {a: i for i, a in enumerate(nums)}
    image = tuple(index[fp[a]] for a in nums)

    # a nonflat cell maps onto the cells between the images of its ends, an
    # index range by closure; counting the nonflat cells below each index
    # turns that range into a run of adjacency columns
    cell_slopes, nonflat, branches, runs, below = [], [], [], [], [0]
    piece = 0
    for i, a in enumerate(nums[:-1]):
        while bps[piece + 1] <= a:
            piece += 1
        s = slopes[piece]
        cell_slopes.append(s)
        below.append(below[-1] + (s != 0))
        if s == 0:
            continue
        lo, hi = sorted((image[i], image[i + 1]))
        nonflat.append(i)
        branches.append((s, nums[image[i]] - s * a))
        runs.append((lo, hi))
    nonflat = tuple(nonflat)

    k = len(nonflat)
    adj = np.zeros((k, k), dtype=np.int64)
    for a, (lo, hi) in enumerate(runs):
        adj[a, below[lo] : below[hi]] = 1
    adj.setflags(write=False)
    return MarkovSystem(
        map=f,
        den=den,
        nums=nums,
        points=tuple(Fraction(a, den) for a in nums),
        image=image,
        slopes=tuple(cell_slopes),
        nonflat=nonflat,
        branches=tuple(branches),
        adjacency=adj,
        recurrence=recurrent_classes(adj),
    )


def spectral_radius(graph: MarkovSystem | np.ndarray) -> tuple[float, dict]:
    """Largest eigenvalue magnitude of a 0/1 matrix, with a proven bracket.

    The radius is the largest over the recurrent classes. A bare cycle
    contributes exactly 1 and a transient singleton 0, so when no class
    branches the radius is exact and no float is touched (the dense
    eigensolver returns 1 +- 1e-8 on such matrices). So rho > 1, positive
    entropy, exactly when some class branches: the sign needs no radius, and
    classify reads it from recurrence.branching. A branching class C
    contributes its Perron root, bracketed by Collatz-Wielandt: for every
    positive vector v, min (Cv)_i/v_i <= rho(C) <= max (Cv)_i/v_i. Here v is
    the float Perron vector of C rounded to integers, so both ends are exact
    rationals from integer arithmetic and the bracket holds whatever error
    the float vector carries; that error only widens it.

    The returned float is the largest float Perron root over the branching
    classes, from the eigensolve that gave each class its vector, clamped
    into the bracket: on a defective double root it can land 1e-8 outside.
    The diagnostics give the bracket as Fractions, rho_lower and rho_upper.
    No power iteration runs; power_iterations stays in the diagnostics at 0
    for the benchmark's tracer, which counts it.

    A MarkovSystem brings the recurrent classes computed when it was built;
    a bare matrix is classified here.
    """
    if isinstance(graph, MarkovSystem):
        adj, rec = graph.adjacency, graph.recurrence
    else:
        adj, rec = graph, recurrent_classes(graph)
    if adj.shape[0] == 0 or not adj.any():
        method, lo, hi = "empty", Fraction(0), Fraction(0)
    elif not rec.branching:
        method = "bare-cycles"
        lo = hi = Fraction(1 if rec.cycles else 0)
    else:
        method = "eigvals+collatz-wielandt"
        brackets = [_perron_bracket(adj, comp) for comp in rec.branching]
        lo = max(b[0] for b in brackets)
        hi = max(b[1] for b in brackets)
        root = max(b[2] for b in brackets)
    # lo < hi only on the branching route, which set root
    rho = float(lo) if lo == hi else min(max(root, float_down(lo)), float_up(hi))
    return rho, {"method": method, "power_iterations": 0, "rho_lower": lo, "rho_upper": hi}


def _perron_bracket(
    adj: np.ndarray, comp: tuple[int, ...]
) -> tuple[Fraction, Fraction, float]:
    """Collatz-Wielandt bounds on the Perron root of one irreducible class,
    and the float root they bracket."""
    sub = adj[np.ix_(comp, comp)]
    vals, vecs = np.linalg.eig(sub.astype(np.float64))
    top = np.argmax(vals.real)
    v = np.abs(vecs[:, top].real)
    # entries <= 2**bits keep every (sub @ v)_i below 2**62, exact in int64;
    # flooring at 1 keeps v positive, which is all the bound needs
    bits = 62 - len(comp).bit_length()
    v = np.maximum(np.rint(np.ldexp(v / v.max(), bits)), 1).astype(np.int64)
    ratios = [Fraction(int(a), int(b)) for a, b in zip(sub @ v, v)]
    return min(ratios), max(ratios), float(vals.real[top])


def strongly_connected_components(adj: np.ndarray) -> list[list[int]]:
    """Tarjan, iterative. Returns components as lists of row indices."""
    n = adj.shape[0]
    succ = [np.nonzero(adj[i])[0].tolist() for i in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(succ[v])):
                u = succ[v][i]
                if index[u] == -1:
                    work[-1] = (v, i + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def recurrent_classes(adj: np.ndarray) -> Recurrence:
    """Sort the strongly connected components of a 0/1 graph, one Tarjan pass.

    A component is a bare cycle when each member has exactly one successor
    inside it; strongly connected with out-degree one, it is then a single
    cycle, listed in tour order from its first member. A component where some
    member has two successors inside branches. A singleton without a self
    loop is transient and lands in neither list.
    """
    cycles: list[tuple[int, ...]] = []
    branching: list[tuple[int, ...]] = []
    for comp in strongly_connected_components(adj):
        cset = set(comp)
        inside = {v: [u for u in np.nonzero(adj[v])[0].tolist() if u in cset] for v in comp}
        if any(len(succ) > 1 for succ in inside.values()):
            branching.append(tuple(comp))
        elif inside[comp[0]]:
            order = [comp[0]]
            while len(order) < len(comp):
                order.append(inside[order[-1]][0])
            cycles.append(tuple(order))
    return Recurrence(cycles=tuple(cycles), branching=tuple(branching))
