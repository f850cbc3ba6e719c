"""Work time measured in passes of a fixed reference kernel.

The benchmark host's speed drifts by tens of percent between runs and moves
by up to 1.8x within a run, in spells of about half a second, so a time in
seconds cannot hold a tight bound. Every timing is therefore divided by the
time of one pass of `reference_pass`, a fixed piece of work that uses no
sawlab code but the same mix sawlab spends its time on: exact `Fraction`
arithmetic with dict inserts and a sort, then small-array numpy calls.
Passes run on a wall-clock timer signal every `INTERVAL` seconds through the
whole run, so a slow spell slows the kernel and the work around it alike.

The work clock leaves the kernel passes out: `WorkClock.now()` is
`perf_counter()` minus all time spent in passes so far, so an operation timed
with it is charged only for its own work.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

from oracle import Sawtooth

INTERVAL = 0.06  # seconds of wall time between kernel passes
WINDOW = 0.1  # work seconds on each side whose passes set the local pass time

_MAP = Sawtooth("+-+-", [Fraction(9, 10), Fraction(1, 10), Fraction(19, 20)])
_STARTS = [Fraction(k * 7919 % 1009, 1009) for k in range(9)]
_GRID = np.linspace(0.0, 1.0, 12 * 256).reshape(256, 12)
_MATRIX = (np.arange(24 * 24).reshape(24, 24) * 7919 % 11 < 3).astype(np.float64)


def reference_pass():
    """One pass of the reference kernel: orbits of a fixed PL map in exact
    arithmetic, then small-array numpy work of the kind the power iteration
    and the Bowen route do."""
    seen = {}
    for x in _STARTS:
        for t in range(20):
            x = _MAP(x)
            seen[x] = t
    v = np.ones(24)
    for _ in range(20):
        w = _MATRIX @ v
        v = w / float(np.linalg.norm(w))
    kept = 0
    for row in _GRID[::16]:
        kept += bool((np.abs(_GRID - row).max(axis=1) > 0.01).all())
    return sorted(seen)[len(seen) // 2], v[0], kept


class WorkClock:
    """Work-time clock plus the kernel pass times sampled along it."""

    def __init__(self):
        self.stolen = 0.0  # wall seconds spent in kernel passes
        self.times: list[float] = []  # work time of each pass
        self.passes: list[float] = []  # seconds each pass took

    def now(self) -> float:
        while True:
            stolen = self.stolen
            t = time.perf_counter() - stolen
            if stolen == self.stolen:  # no pass ran in between
                return t

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_pass()
        t1 = time.perf_counter()
        self.times.append(t0 - self.stolen)
        self.passes.append(t1 - t0)
        self.stolen += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pass_seconds(self, a: float, b: float) -> float:
        """Mean pass time over work interval [a, b], widened by WINDOW.

        A mean, not a median: the host alternates between fast and slow
        spells, and the work in the interval pays the average of them. The
        top and bottom tenth are cut so one preempted pass does not count.
        """
        lo = bisect.bisect_left(self.times, a - WINDOW)
        hi = bisect.bisect_right(self.times, b + WINDOW)
        if lo == hi:  # no pass nearby: take the nearest one
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        window = sorted(self.passes[lo:hi])
        cut = len(window) // 10
        return statistics.fmean(window[cut:len(window) - cut])

    def refs(self, a: float, b: float) -> float:
        """Work interval [a, b] in reference passes, normalized one second at a time."""
        total = 0.0
        t = a
        while t < b:
            u = min(b, t + 1.0)
            total += (u - t) / self.pass_seconds(t, u)
            t = u
        return total
