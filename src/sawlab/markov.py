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
budgeted so arbitrary inputs fail loudly instead of spinning.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, StructureError
from .plmap import Ivl, PiecewiseLinearMap
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
    """Partition plus transition data for one map."""

    map: PiecewiseLinearMap
    points: tuple[Rat, ...]
    cells: tuple[Ivl, ...]
    nonflat: tuple[int, ...]  # indices into cells with nonzero slope
    adjacency: np.ndarray  # 0/1 over nonflat x nonflat, read-only
    recurrence: Recurrence  # classified once, read by the spectral radius and the orbit inventory

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
    return MarkovSystem(
        map=f,
        points=points,
        cells=cells,
        nonflat=nonflat,
        adjacency=adj,
        recurrence=recurrent_classes(adj),
    )


def spectral_radius(graph: MarkovSystem | np.ndarray) -> tuple[float, dict]:
    """Largest eigenvalue magnitude of a 0/1 matrix, with a proven bracket.

    The radius is the largest over the recurrent classes. A bare cycle
    contributes exactly 1 and a transient singleton 0, so when no class
    branches the radius is exact and no float is touched; the dense
    eigensolver returns 1 +- 1e-8 on such matrices, which is enough to leak
    past a zero-entropy threshold. A branching class C contributes its Perron
    root, bracketed by Collatz-Wielandt: for every positive vector v,
    min (Cv)_i/v_i <= rho(C) <= max (Cv)_i/v_i. Here v is the float Perron
    vector of C rounded to integers, so both ends are exact rationals from
    integer arithmetic and the bracket holds whatever error the float vector
    carries; that error only widens it.

    The returned float is the dense eigensolver's radius of the whole matrix,
    clamped into the bracket: on a defective double root it can land 1e-8
    outside. The diagnostics give the bracket as Fractions, rho_lower and
    rho_upper. No power iteration runs; power_iterations stays in the
    diagnostics at 0 for the benchmark's tracer, which counts it.

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
    if lo == hi:
        rho = float(lo)
    else:
        rho = float(max(abs(np.linalg.eigvals(adj.astype(np.float64)))))
        rho = min(max(rho, float_down(lo)), float_up(hi))
    return rho, {"method": method, "power_iterations": 0, "rho_lower": lo, "rho_upper": hi}


def _perron_bracket(adj: np.ndarray, comp: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """Collatz-Wielandt bounds on the Perron root of one irreducible class."""
    sub = adj[np.ix_(comp, comp)]
    vals, vecs = np.linalg.eig(sub.astype(np.float64))
    v = np.abs(vecs[:, np.argmax(vals.real)].real)
    # entries <= 2**bits keep every (sub @ v)_i below 2**62, exact in int64;
    # flooring at 1 keeps v positive, which is all the bound needs
    bits = 62 - len(comp).bit_length()
    v = np.maximum(np.rint(np.ldexp(v / v.max(), bits)), 1).astype(np.int64)
    ratios = [Fraction(int(a), int(b)) for a, b in zip(sub @ v, v)]
    return min(ratios), max(ratios)


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


def cycle_orbit_point(system: MarkovSystem, cycle: tuple[int, ...]) -> Rat:
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
