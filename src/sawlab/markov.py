"""Markov partitions and transition structure for rational PL maps.

A finite set P of partition points with f(P) ⊆ P and P containing every
breakpoint cuts [0, 1] into cells on which the map is affine, and each cell's
image is exactly a union of cells. The transition matrix over the non-flat
cells then carries the dynamics: its spectral radius gives the entropy, its
strongly connected components the recurrent structure.

Building P is orbit closure of the breakpoints; for this package's maps that
terminates fast because plateau hits collapse denominators, but the builder is
budgeted so arbitrary inputs fail loudly instead of spinning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, StructureError
from .plmap import Ivl, PiecewiseLinearMap
from .rational import Rat


@dataclass(frozen=True)
class MarkovSystem:
    """Partition plus transition data for one map."""

    map: PiecewiseLinearMap
    points: tuple[Rat, ...]
    cells: tuple[Ivl, ...]
    nonflat: tuple[int, ...]  # indices into cells with nonzero slope
    adjacency: np.ndarray  # 0/1 over nonflat x nonflat, read-only

    def to_json(self) -> dict:
        from .rational import format_rat

        return {
            "points": [format_rat(p) for p in self.points],
            "nonflat_cells": len(self.nonflat),
            "flat_cells": len(self.cells) - len(self.nonflat),
            "adjacency": self.adjacency.astype(int).tolist(),
        }


@functools.lru_cache(maxsize=1)
def build_markov_system(f: PiecewiseLinearMap, point_budget: int = 4096) -> MarkovSystem:
    """Close the breakpoint set under f and assemble the transition matrix.

    The last result is memoized and shared, so its adjacency is read-only.
    Callers pass (f, point_budget) positionally to hit the same entry.
    """
    pts: set[Rat] = set(f.breakpoints)
    frontier = list(pts)
    while frontier:
        if len(pts) > point_budget:
            raise BudgetExceeded("partition", point_budget, needed=len(pts))
        nxt = []
        for p in frontier:
            q = f(p)
            if q not in pts:
                pts.add(q)
                nxt.append(q)
        frontier = nxt
    points = tuple(sorted(pts))
    cells = tuple(Ivl(a, b) for a, b in zip(points, points[1:]))

    nonflat = []
    for i, c in enumerate(cells):
        if f.right_slope(c.lo) != 0:
            nonflat.append(i)
    nonflat = tuple(nonflat)

    # images of affine cells are endpoint hulls; endpoints stay in P by closure
    images = {}
    pset = set(points)
    for i in nonflat:
        lo, hi = f(cells[i].lo), f(cells[i].hi)
        if lo > hi:
            lo, hi = hi, lo
        if lo not in pset or hi not in pset:
            raise StructureError("partition not closed under the map")
        images[i] = (lo, hi)

    k = len(nonflat)
    adj = np.zeros((k, k), dtype=np.int64)
    for a, i in enumerate(nonflat):
        lo, hi = images[i]
        for b, j in enumerate(nonflat):
            if lo <= cells[j].lo and cells[j].hi <= hi:
                adj[a, b] = 1
    adj.setflags(write=False)
    return MarkovSystem(map=f, points=points, cells=cells, nonflat=nonflat, adjacency=adj)


def spectral_radius(adj: np.ndarray, tol: float = 1e-12) -> tuple[float, dict]:
    """Largest eigenvalue magnitude of a nonnegative integer matrix.

    When every recurrent class is a bare cycle the radius is exactly 1 (or 0
    for an acyclic graph) and is reported without touching floats; the dense
    eigensolver returns 1 +- 1e-8 on such matrices, which is enough to leak
    past a zero-entropy threshold. Otherwise a dense eigensolve gives the
    value and a power-iteration pass cross-checks it; the diagnostics report
    both. On reducible matrices power iteration alone converges only
    polynomially, which is why it is the check and not the source.
    """
    n = adj.shape[0]
    if n == 0 or not adj.any():
        return 0.0, {"method": "empty", "power_iterations": 0, "agreement": 0.0}
    cycles, all_simple = simple_cycle_components(adj)
    if all_simple:
        rho = 1.0 if cycles else 0.0
        return rho, {"method": "bare-cycles", "power_iterations": 0, "agreement": 0.0}
    a = adj.astype(np.float64)
    rho = float(max(abs(np.linalg.eigvals(a))))
    v = np.ones(n) / np.sqrt(n)
    est = 0.0
    iters = 0
    for iters in range(1, 10_001):
        w = a @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            est = 0.0
            break
        new_est = nw
        v = w / nw
        if abs(new_est - est) < tol:
            est = new_est
            break
        est = new_est
    return rho, {
        "method": "eigvals+power",
        "power_iterations": iters,
        "power_estimate": est,
        "agreement": abs(rho - est),
    }


def strongly_connected_components(adj: np.ndarray) -> list[list[int]]:
    """Tarjan, iterative. Returns components as lists of row indices."""
    n = adj.shape[0]
    succ = [list(np.nonzero(adj[i])[0]) for i in range(n)]
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


def simple_cycle_components(adj: np.ndarray) -> tuple[list[list[int]], bool]:
    """SCCs that are bare cycles, plus whether *every* recurrent SCC is one.

    A component is a bare cycle when each member has exactly one successor
    inside the component and following successors tours all members. When the
    flag is False some component branches, which forces spectral radius > 1.
    """
    comps = strongly_connected_components(adj)
    cycles: list[list[int]] = []
    all_simple = True
    for comp in comps:
        cset = set(comp)
        if len(comp) == 1:
            v = comp[0]
            if not adj[v, v]:
                continue  # transient singleton, not recurrent
            cycles.append([v])
            continue
        ok = True
        succ_in = {}
        for v in comp:
            inside = [u for u in np.nonzero(adj[v])[0] if int(u) in cset]
            if len(inside) != 1:
                ok = False
                break
            succ_in[v] = int(inside[0])
        if ok:
            order = [comp[0]]
            while len(order) < len(comp):
                nxt = succ_in[order[-1]]
                if nxt == comp[0] or nxt in order:
                    ok = False
                    break
                order.append(nxt)
            ok = ok and succ_in[order[-1]] == comp[0]
        if ok:
            cycles.append(order)
        else:
            all_simple = False
    return cycles, all_simple


def cycle_orbit_point(system: MarkovSystem, cycle: list[int]) -> Rat:
    """The unique point whose orbit tours a bare cell cycle.

    Composes the affine branches around the cycle and solves the fixed point
    equation exactly; the product slope has magnitude > 1 for expanding maps,
    so the solution is unique. Raises if the point escapes its starting cell
    (which would mean the cycle was not realized by an orbit).
    """
    f = system.map
    a = Fraction(1)
    b = Fraction(0)
    for row in cycle:
        i = system.nonflat[row]
        cell = system.cells[i]
        s = f.right_slope(cell.lo)
        t = f(cell.lo) - s * cell.lo
        a, b = s * a, s * b + t
    if a == 1:
        raise StructureError("neutral cycle composition; cannot solve fixed point")
    x = b / (1 - a)
    start = system.cells[system.nonflat[cycle[0]]]
    if not start.contains(x):
        raise StructureError("cycle fixed point escaped its cell")
    return x
