"""Checks made apart from sawlab.

`Sawtooth` evaluates a stunted sawtooth map S_w exactly from the family
definition alone: lap k of the degree-(d+1) sawtooth has slope s_k (d+1), and
its values are clamped at the heights of the turning points at its two ends
(at most w_i next to a maximum, at least w_i next to a minimum). This module
imports nothing from sawlab, so a fault in sawlab's maps, compositions or orbit code cannot
hide itself from these checks.

The verifiers take the JSON forms sawlab writes (rationals as "p/q") and
return an error string, or None when the object checks out.
"""

from __future__ import annotations

from fractions import Fraction


def is_power_of_two(p: int) -> bool:
    return p >= 1 and p & (p - 1) == 0


def admissible(word: str, w) -> bool:
    """Heights in [0, 1] that strictly alternate against the lap signs."""
    signs = [1 if c == "+" else -1 for c in word]
    w = [Fraction(x) for x in w]
    if len(w) != len(signs) - 1 or not all(0 <= x <= 1 for x in w):
        return False
    return all((w[j] - w[j + 1]) * signs[j + 1] < 0 for j in range(len(w) - 1))


class Sawtooth:
    """S_w for a shape word such as "+-+" and heights w_1 .. w_d."""

    def __init__(self, word: str, w):
        self.signs = tuple(1 if c == "+" else -1 for c in word)
        self.n = len(self.signs)
        self.w = tuple(Fraction(x) for x in w)
        if len(self.w) != self.n - 1:
            raise ValueError(f"shape {word} needs {self.n - 1} heights")
        # clamp levels of each lap from the turning points at its ends;
        # turning point i (1-based) is a maximum when lap i rises
        self.clamps = []
        for k in range(1, self.n + 1):
            lo, hi = Fraction(0), Fraction(1)
            for i in (k - 1, k):
                if 1 <= i <= self.n - 1:
                    if self.signs[i - 1] > 0:
                        hi = min(hi, self.w[i - 1])
                    else:
                        lo = max(lo, self.w[i - 1])
            self.clamps.append((lo, hi))

    def __call__(self, x: Fraction) -> Fraction:
        if not 0 <= x <= 1:
            raise ValueError(f"{x} outside [0, 1]")
        k = min(int(x * self.n), self.n - 1)
        t = x * self.n - k
        y = t if self.signs[k] > 0 else 1 - t
        lo, hi = self.clamps[k]
        return min(max(y, lo), hi)

    def plateau(self, i: int) -> tuple[Fraction, Fraction]:
        """Plateau interval of turning point i (1-based)."""
        c = Fraction(i, self.n)
        wi = self.w[i - 1]
        half = (1 - wi) / self.n if self.signs[i - 1] > 0 else wi / self.n
        return c - half, c + half

    def iterate(self, x: Fraction, m: int) -> Fraction:
        for _ in range(m):
            x = self(x)
        return x

    def return_time(self, x: Fraction, max_steps: int) -> int | None:
        """Least p <= max_steps with S^p(x) = x, or None."""
        y = x
        for p in range(1, max_steps + 1):
            y = self(y)
            if y == x:
                return p
        return None

    def entropy_positive(self, point_budget: int = 100_000) -> bool:
        """Exact sign of the topological entropy, from a Markov partition.

        Close the lap ends and plateau edges under S; on each cell between
        consecutive points S is affine and maps onto a union of cells. The
        entropy is log of the spectral radius of the transition graph on the
        cells where S is not flat. A strongly connected component with more
        internal edges than cells has radius > 1; when every component is a
        bare cycle or acyclic the radius is at most 1 and the entropy is 0.
        """
        points = {Fraction(k, self.n) for k in range(self.n + 1)}
        for i in range(1, self.n):
            points.update(x for x in self.plateau(i) if 0 <= x <= 1)
        frontier = list(points)
        while frontier:
            if len(points) > point_budget:
                raise ValueError(f"partition exceeds {point_budget} points")
            frontier = [y for y in map(self, frontier) if y not in points]
            points.update(frontier)
        pts = sorted(points)
        index = {x: i for i, x in enumerate(pts)}
        succ = {}
        for i, (a, b) in enumerate(zip(pts, pts[1:])):
            fa, fb = self(a), self(b)
            if fa != fb:
                lo, hi = sorted((index[fa], index[fb]))
                succ[i] = range(lo, hi)
        for comp in _components(succ):
            members = set(comp)
            edges = sum(1 for v in comp for u in succ[v] if u in members)
            if edges > len(comp):
                return True
        return False

    def kneading_signs(self, depth: int):
        """Position of S^n(c_i), n = 1..depth, against every plateau."""
        plateaus = [self.plateau(j) for j in range(1, self.n)]
        rows = []
        for i in range(1, self.n):
            x = self.w[i - 1]
            row = []
            for _ in range(depth):
                row.append(
                    tuple(-1 if x < lo else (1 if x > hi else 0) for lo, hi in plateaus)
                )
                x = self(x)
            rows.append(tuple(row))
        return tuple(rows)


def _components(succ: dict[int, range]) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan) of a graph whose
    edges run from each key to the keys in its range."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    comps = []
    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            for u in it:
                if u not in succ:
                    continue  # flat cell: no dynamics through it
                if u not in index:
                    index[u] = low[u] = len(index)
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter(succ[u])))
                    break
                if u in on_stack:
                    low[v] = min(low[v], index[u])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        u = stack.pop()
                        on_stack.discard(u)
                        comp.append(u)
                        if u == v:
                            break
                    comps.append(comp)
    return comps


def _rats(strs) -> list[Fraction]:
    return [Fraction(s) for s in strs]


def check_orbit(S: Sawtooth, orbit: dict) -> str | None:
    """A periodic orbit JSON: its points form one cycle of minimal length."""
    pts = _rats(orbit["points"])
    p = orbit["period"]
    if len(pts) != p or len(set(pts)) != p:
        return f"orbit lists {len(pts)} points for period {p}"
    for a, b in zip(pts, pts[1:] + pts[:1]):
        if S(a) != b:
            return f"S({a}) = {S(a)}, orbit says {b}"
    return None


def check_period_witness(S: Sawtooth, orbit: dict | None) -> str | None:
    """A verified periodic orbit whose period is not a power of two."""
    if orbit is None:
        return "no period witness"
    if is_power_of_two(orbit["period"]):
        return f"witness period {orbit['period']} is a power of two"
    return check_orbit(S, orbit)


def check_finite(S: Sawtooth, label: str, period_set: dict) -> str | None:
    """A Finite(2^j) verdict: periods {1, 2, .., 2^j}, each representative real."""
    top = int(label[len("Finite(") : -1])
    if not is_power_of_two(top):
        return f"{label}: top period is not a power of two"
    want = [1 << j for j in range(top.bit_length())]
    if period_set["periods"] != want:
        return f"{label}: periods {period_set['periods']}, expected {want}"
    reps = period_set["representatives"]
    if sorted(int(k) for k in reps) != want:
        return f"{label}: representatives for {sorted(reps)}"
    for orbit in reps.values():
        err = check_orbit(S, orbit)
        if err:
            return f"{label}: {err}"
    return None


def check_homoclinic(S: Sawtooth, witness: dict) -> str | None:
    """S^m(x) = base point, x off the orbit, x inside the unstable interval."""
    err = check_orbit(S, witness["orbit"])
    if err:
        return f"homoclinic orbit: {err}"
    orbit = _rats(witness["orbit"]["points"])
    x = Fraction(witness["x"])
    m = witness["m"]
    lo, hi = Fraction(witness["unstable"]["lo"]), Fraction(witness["unstable"]["hi"])
    if m < 1 or S.iterate(x, m) != orbit[0]:
        return f"S^{m}({x}) is not the base point {orbit[0]}"
    if x in orbit:
        return f"homoclinic point {x} lies on the orbit"
    if not lo < x < hi:
        return f"homoclinic point {x} outside the unstable interval ({lo}, {hi})"
    return None


def check_record(S: Sawtooth, rec: dict) -> str | None:
    """Verify one classification record (JSON form): the entropy sign, and
    every period and homoclinic witness it carries."""
    verdict = rec["verdict"]
    certs = rec["certificates"]
    h = rec["entropy"]["value"]
    if verdict == "Chaotic":
        if not (h > 0 and S.entropy_positive()):
            return f"Chaotic with entropy {h}, oracle positive: {S.entropy_positive()}"
        stop = certs["period_sweep"]["stop_witness"]
        homoclinic = certs["homoclinic"]["witness"]
        return (check_period_witness(S, stop) if stop else None) or (
            check_homoclinic(S, homoclinic) if homoclinic else None
        )
    if verdict == "Finite":
        if h != 0 or S.entropy_positive():
            return f"{rec['label']} with entropy {h}, oracle positive: {S.entropy_positive()}"
        return check_finite(S, rec["label"], certs["period_set"])
    return f"unexpected verdict {rec['label']}"
