"""Markov partitions and transition structure for rational PL maps.

A finite set P of partition points with f(P) ⊆ P and P containing every
breakpoint cuts [0, 1] into cells on which the map is affine, and each cell's
image is exactly a union of cells. The transition matrix over the non-flat
cells then carries the dynamics: its spectral radius gives the entropy, its
strongly connected components the recurrent structure. The components are
sorted into bare cycles and branching classes, and each branching class's
period is taken, once per combinatorial type (below). The spectral radius
comes with a proven rational bracket: exact 1 or 0 when no class branches,
Collatz-Wielandt bounds in integer arithmetic on each branching class
otherwise. No power iteration runs. The float Perron vector behind the
bounds comes from one cyclic class of each branching class: the eigensolve
runs on the class's p-step path counts there, p its period, and the vector
is lifted to the other p - 1 cyclic classes along the graph.

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

By closure a nonflat cell maps onto a run of consecutive cells, so each row
of the transition matrix is 1 on one run of columns [lo, hi) and 0 elsewhere.
The system keeps each row as that range of successors, and no dense matrix:
the recurrent classes, the spectral radius and the orbit sweep read the
ranges, the sweep multiplying through them in O(k^2) by prefix sums, on
Python integers.

The classes and the radius read nothing but the successor runs, and the maps
of one kneading class share one transition graph (Milnor-Thurston, "On
iterated maps of the interval", 1988), so a family scan meets each graph
many times. _combinatorics memoizes them: a functools.lru_cache of 256
entries keyed by the runs tuple, each a Combinatorics holding the type's
Recurrence, classified when a graph of the type is first built, and its
bracket, solved when entropy_markov first asks for it. An entry is the runs,
the classes and a few Fractions: about 1.3 KiB on average over the 193 types
of the benchmark's scan, and at most about 0.6 MiB at the default point
budget (partition_budget) of 4096, whose 4,095 cells make 4,095 range
objects, so a full cache of such graphs holds about 150 MiB. What reads the
partition's positions stays per graph: the walk table (walks) and the
homoclinic search's piece table (pieces).
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, ldexp, log2
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetExceeded, StructureError
from .plmap import PiecewiseLinearMap
from .rational import Rat, float_down, float_up

if TYPE_CHECKING:
    from .orbits import WalkTable


@dataclass(frozen=True)
class Recurrence:
    """The recurrent classes of a graph; a multi-edge counts as parallel edges.

    cycles: the bare-cycle classes, each in tour order; they make every
    periodic orbit of a zero-entropy map. branching: the classes carrying two
    or more cycles; each forces spectral radius > 1. periods: the period of
    each branching class, aligned with branching: the gcd of the lengths of
    its closed walks, every one of which it divides.
    """

    cycles: tuple[tuple[int, ...], ...]
    branching: tuple[tuple[int, ...], ...]
    periods: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Combinatorics:
    """What a transition graph's successor runs alone decide, shared by every
    graph with equal runs (_combinatorics): its recurrent classes, and the
    bracket of its spectral radius, solved on first use.

    bracket is spectral_radius(successors, recurrence) with the diagnostics
    frozen, since every graph of the type reads the same one: a read-only
    mapping whose class_periods is a tuple.
    """

    successors: tuple[range, ...]
    recurrence: Recurrence

    @functools.cached_property
    def bracket(self) -> tuple[float, Mapping[str, object]]:
        rho, diag = spectral_radius(self.successors, self.recurrence)
        return rho, MappingProxyType({**diag, "class_periods": tuple(diag["class_periods"])})


@functools.lru_cache(maxsize=256)
def _combinatorics(successors: tuple[range, ...]) -> Combinatorics:
    """The Combinatorics of the graph with these successor runs, memoized.

    Runs compare as sequences, every empty run equal to every other, and the
    classes and the bracket read nothing else, so the maps of one
    combinatorial type share one entry. See the module docstring for its
    bound.
    """
    return Combinatorics(successors, recurrent_classes(successors))


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
    # per nonflat cell, the nonflat cells it maps onto, in nonflat-index
    # (column) coordinates: its transition row is 1 exactly on this range
    successors: tuple[range, ...]
    combinatorics: Combinatorics  # shared by every graph with these successors

    @property
    def recurrence(self) -> Recurrence:
        """The recurrent classes, read by the orbit sweeps and the entropy sign."""
        return self.combinatorics.recurrence

    @functools.cached_property
    def walks(self) -> WalkTable:
        """The walk table every orbit sweep of this graph reads and extends
        (orbits.WalkTable), built on first use; it lives as long as the graph."""
        from .orbits import WalkTable  # orbits imports this module

        return WalkTable(self)

    @functools.cached_property
    def pieces(self) -> tuple[tuple[int, int, tuple[int, int]], ...]:
        """f's pieces from the left as (u, v, (s, t)), f(x) = s*x + t/den on
        [u/den, v/den]: a maximal run of cells on one branch, a flat run as
        (0, height). The homoclinic search inverts them; built on first use,
        once per graph."""
        branch = dict(zip(self.nonflat, self.branches))
        pieces: list[list] = []
        for i, (u, v) in enumerate(zip(self.nums, self.nums[1:])):
            br = branch.get(i, (0, self.nums[self.image[i]]))
            if pieces and pieces[-1][2] == br:
                pieces[-1][1] = v
            else:
                pieces.append([u, v, br])
        return tuple(map(tuple, pieces))

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
def build_markov_system(f: PiecewiseLinearMap, point_budget: int = 4096, /) -> MarkovSystem:
    """Close the breakpoint set under f and read off the transition graph.

    The closure runs on integer numerators over one denominator; a map with
    a non-integer slope raises StructureError. The last result is memoized
    and shared, and with it the walk table it carries (walks), which the
    orbit sweeps fill. Its combinatorics, the recurrent classes and the
    spectral-radius bracket, come from _combinatorics, keyed by the
    successor runs and shared by every graph with equal runs: at most 256
    entries, each at most about 0.6 MiB at point_budget 4096 (see the module
    docstring). Both parameters are positional-only, so every call
    keys the cache as (f, point_budget): a keyword call, which would miss the
    entry and build the graph again, is a TypeError.
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
    # turns that range into a run of transition columns
    cell_slopes, nonflat, branches, spans, below = [], [], [], [], [0]
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
        spans.append((lo, hi))
    successors = tuple(range(below[lo], below[hi]) for lo, hi in spans)
    return MarkovSystem(
        map=f,
        den=den,
        nums=nums,
        points=tuple(Fraction(a, den) for a in nums),
        image=image,
        slopes=tuple(cell_slopes),
        nonflat=tuple(nonflat),
        branches=tuple(branches),
        successors=successors,
        combinatorics=_combinatorics(successors),
    )


def spectral_radius(succ: Sequence[Sequence[int]], rec: Recurrence) -> tuple[float, dict]:
    """Largest eigenvalue magnitude of a graph's nonnegative integer matrix,
    with a proven bracket.

    succ lists each vertex's successors, one entry per parallel edge: entry
    (a, b) of the matrix counts b in succ[a]. rec is recurrent_classes(succ);
    a MarkovSystem carries it from its build.

    The radius is the largest over the recurrent classes. A bare cycle
    contributes exactly 1 and a transient singleton 0, so when no class
    branches the radius is exact and no float is touched (the dense
    eigensolver returns 1 +- 1e-8 on such matrices). So rho > 1, positive
    entropy, exactly when some class branches: the sign needs no radius, and
    classify reads it from recurrence.branching. A branching class C
    contributes its Perron root, bracketed by Collatz-Wielandt: for every
    positive vector v, min (Cv)_i/v_i <= rho(C) <= max (Cv)_i/v_i. Here v is
    a float Perron vector of C rounded to integers, so both ends are exact
    rationals from integer arithmetic and the bracket holds whatever error
    the float vector carries; that error only widens it. The float vector
    comes from an eigensolve on one cyclic class of C (see _perron_bracket),
    which is C itself when C is primitive.

    The returned float is the largest float Perron root over the branching
    classes, from the eigensolve that gave each class its vector, clamped
    into the bracket: on a defective double root it can land 1e-8 outside.
    The diagnostics give the bracket as Fractions, rho_lower and rho_upper,
    and class_periods, the period of each branching class in
    rec.branching order. No power iteration runs; power_iterations stays in
    the diagnostics at 0 for the benchmark's tracer, which counts it.
    """
    periods = []
    if not any(succ):
        method, lo, hi = "empty", Fraction(0), Fraction(0)
    elif not rec.branching:
        method = "bare-cycles"
        lo = hi = Fraction(1 if rec.cycles else 0)
    else:
        method = "cyclic-eig+collatz-wielandt"
        brackets = [_perron_bracket(succ, comp, p) for comp, p in zip(rec.branching, rec.periods)]
        lo = max(b[0] for b in brackets)
        hi = max(b[1] for b in brackets)
        root = max(b[2] for b in brackets)
        periods = list(rec.periods)
    # lo < hi only on the branching route, which set root
    rho = float(lo) if lo == hi else min(max(root, float_down(lo)), float_up(hi))
    return rho, {
        "method": method,
        "power_iterations": 0,
        "rho_lower": lo,
        "rho_upper": hi,
        "class_periods": periods,
    }


def _perron_bracket(
    succ: Sequence[Sequence[int]], comp: tuple[int, ...], p: int
) -> tuple[Fraction, Fraction, float]:
    """Collatz-Wielandt bounds on the Perron root of one irreducible class
    of a graph of period p (recurrent_classes gives it), and the float root
    they bracket.

    An irreducible matrix A of period p permutes p cyclic classes
    V_0 .. V_(p-1): V_r holds the members whose BFS level from comp[0] is
    r mod p, and every edge steps from V_r into V_(r+1) mod p. The p-step
    path counts from V_0 to V_0 form B = A_01 A_12 ... A_(p-1)0, which is
    primitive with Perron root rho^p, and rho's Perron vector is
    A_(r,r+1) v_(r+1) / rho on V_r (Frobenius; Gantmacher, The Theory of
    Matrices II, ch. XIII). So the float eigensolve runs on B alone, and its
    vector is lifted class by class along the successor lists. For p = 1, B
    is the class block. Near the boundary of chaos the chaotic class is 2^n
    bands that f permutes, and this is h(f) = h(f^(2^n) on a band) / 2^n.
    """
    pos = {v: j for j, v in enumerate(comp)}
    inside = [[pos[u] for u in succ[v] if u in pos] for v in comp]
    level = [0] + [-1] * (len(comp) - 1)
    queue = [0]
    for v in queue:
        for u in inside[v]:
            if level[u] < 0:
                level[u] = level[v] + 1
                queue.append(u)
    cyclic: list[list[int]] = [[] for _ in range(p)]
    for j, lv in enumerate(level):
        cyclic[lv % p].append(j)
    base = cyclic[0]
    rows = []
    for x in base:
        paths = {x: 1}
        for _ in range(p):
            nxt: dict[int, int] = {}
            for v, n in paths.items():
                for u in inside[v]:
                    nxt[u] = nxt.get(u, 0) + n
            paths = nxt
        rows.append([paths.get(y, 0) for y in base])
    # B's entries grow like rho^p; dividing by 2**shift keeps them finite
    # floats, and a class whose entries fit 53 bits goes to eig unscaled
    shift = max(0, max(map(max, rows)).bit_length() - 53)
    b = [[n / (1 << shift) for n in row] for row in rows]
    vals, vecs = np.linalg.eig(np.array(b))
    top = np.argmax(vals.real)
    rho_b = float(vals.real[top])
    # rho_b * 2**shift need not be a float, so a scaled root goes through log2
    root = 2 ** ((log2(rho_b) + shift) / p) if shift else rho_b ** (1 / p)
    v = [0.0] * len(comp)
    for j, x in zip(base, np.abs(vecs[:, top].real).tolist()):
        v[j] = x
    # V_(p-1) reads V_0, then each class the one after it
    for r in range(p - 1, 0, -1):
        for w in cyclic[r]:
            v[w] = sum(v[u] for u in inside[w]) / root
    # v rounds to integers up to 2**bits, which keeps every (Av)_i at most
    # r * 2**bits < 2**62 for r the largest row sum or any bound above it;
    # len(comp) bounds r on a 0/1 class and sets the grain there, so the
    # Markov brackets do not hang on the row sums. Flooring at 1 keeps v
    # positive, which is all the bound needs
    bits = 62 - max(len(comp), max(map(len, inside))).bit_length()
    peak = max(v)
    v = [max(round(ldexp(x / peak, bits)), 1) for x in v]
    # the ends of the ratios (Av)_i / v_i, compared by cross-multiplying
    lo = hi = (sum(v[u] for u in inside[0]), v[0])
    for row, x in zip(inside, v):
        av = sum(v[u] for u in row)
        if av * lo[1] < lo[0] * x:
            lo = (av, x)
        elif av * hi[1] > hi[0] * x:
            hi = (av, x)
    return Fraction(*lo), Fraction(*hi), root


def _components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan, iterative, over successor lists, one per vertex; the order of
    their entries sets the order of each component's members."""
    n = len(succ)
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


def recurrent_classes(succ: Sequence[Sequence[int]]) -> Recurrence:
    """Sort the strongly connected components of a graph, one Tarjan pass.

    succ lists each vertex's successors; a successor listed m times counts
    as m parallel edges. A component is a bare cycle when each member has
    exactly one successor inside it; strongly connected with out-degree one,
    it is then a single cycle, listed in tour order from its first member. A
    component where some member has two successors inside branches, and its
    period is taken here, once per graph. A singleton without a self loop is
    transient and lands in neither list.
    """
    cycles: list[tuple[int, ...]] = []
    branching: list[tuple[int, ...]] = []
    periods: list[int] = []
    for comp in _components(succ):
        cset = set(comp)
        inside = {v: [u for u in succ[v] if u in cset] for v in comp}
        if any(len(succ) > 1 for succ in inside.values()):
            branching.append(tuple(comp))
            periods.append(_period(comp[0], inside))
        elif inside[comp[0]]:
            order = [comp[0]]
            while len(order) < len(comp):
                order.append(inside[order[-1]][0])
            cycles.append(tuple(order))
    return Recurrence(cycles=tuple(cycles), branching=tuple(branching), periods=tuple(periods))


def _period(root: int, inside: dict[int, list[int]]) -> int:
    """The period of a strongly connected class, given each member's
    successors inside it: the gcd of the lengths of its closed walks.

    With level(v) the BFS distance from root, the period divides every
    level(v) + 1 - level(u) over the edges v -> u, and their gcd is it.
    """
    level = {root: 0}
    queue = [root]
    for v in queue:
        for u in inside[v]:
            if u not in level:
                level[u] = level[v] + 1
                queue.append(u)
    return gcd(*(level[v] + 1 - level[u] for v, row in inside.items() for u in row))
