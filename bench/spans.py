"""Per-layer spans, recorded from outside sawlab.

`Tracer.install()` wraps each function in `TARGETS` at every name that binds
it: sawlab modules import each other's functions by name (`explore` binds
`entropy_markov`, `entropy` binds `spectral_radius`, `orbits` binds
`build_markov_system`), so wrapping only the defining module would miss those
calls. Methods are wrapped on the class. Spans stay in memory until the run
writes them out at its end.

A span's self time is its duration minus the time its child spans cover.
Work counts are read from each call's return value.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict


def _scan_bytes(summary) -> dict:
    paths = (summary.csv_path, summary.manifest_path, summary.certificates_path)
    return {"scan.bytes_written": sum(os.path.getsize(p) for p in paths if p)}


def _spectral(result) -> dict:
    iterations = result[1]["power_iterations"]
    return {"power_iterations": iterations, "capped": int(iterations >= 10_000)}


# metric prefix -> (defining module, qualified name, work counts of a result);
# a count name without a dot is prefixed with the metric prefix
TARGETS = {
    "plmap.compose_with": (
        "sawlab.plmap", "PiecewiseLinearMap.compose_with",
        lambda r: {"pieces": r.piece_count},
    ),
    "plmap.PiecewiseLinearMap.orbit_eventually_periodic": (
        "sawlab.plmap", "PiecewiseLinearMap.orbit_eventually_periodic",
        lambda r: {"steps": len(r.points) - 1},
    ),
    "markov.build_markov_system": (
        "sawlab.markov", "build_markov_system", lambda r: {"points": len(r.points)},
    ),
    "markov.spectral_radius": ("sawlab.markov", "spectral_radius", _spectral),
    "orbits.period_set": (
        "sawlab.orbits", "period_set", lambda r: {"iterates": r.n_max_checked},
    ),
    "orbits.markov_orbit_inventory": ("sawlab.orbits", "markov_orbit_inventory", None),
    "homoclinic.find_homoclinic": (
        "sawlab.homoclinic", "find_homoclinic",
        lambda r: {"orbits_searched": r.orbits_searched, "witnesses": int(r.found)},
    ),
    "renorm.build_tower": ("sawlab.renorm", "build_tower", None),
    "renorm.semiconjugacy_check": ("sawlab.renorm", "semiconjugacy_check", None),
    "entropy.entropy_markov": ("sawlab.entropy", "entropy_markov", None),
    "entropy.entropy_bowen": ("sawlab.entropy", "entropy_bowen", None),
    "entropy.entropy_lap": ("sawlab.entropy", "entropy_lap", None),
    "kneading.kneading_data": ("sawlab.kneading", "kneading_data", None),
    "kneading.realize_kneading": ("sawlab.kneading", "realize_kneading", None),
    "explore.classify": ("sawlab.explore", "classify", None),
    "explore.bisect_boundary": (
        "sawlab.explore", "bisect_boundary", lambda r: {"iterations": r.iterations},
    ),
    "explore.refine_to_boundary": (
        "sawlab.explore", "refine_to_boundary",
        lambda r: {"iterations": r.extra_iterations},
    ),
    "scan.run_scan": ("sawlab.scan", "run_scan", _scan_bytes),
}

# the per-layer metrics a traced run reports, with their units
PER_LAYER = (
    ("plmap.compose_with.calls", "count"),
    ("plmap.compose_with.self_ref", "ref"),
    ("plmap.compose_with.pieces", "count"),
    ("plmap.PiecewiseLinearMap.orbit_eventually_periodic.calls", "count"),
    ("plmap.PiecewiseLinearMap.orbit_eventually_periodic.self_ref", "ref"),
    ("plmap.PiecewiseLinearMap.orbit_eventually_periodic.steps", "count"),
    ("markov.build_markov_system.calls", "count"),
    ("markov.build_markov_system.self_ref", "ref"),
    ("markov.build_markov_system.points", "count"),
    ("markov.spectral_radius.calls", "count"),
    ("markov.spectral_radius.self_ref", "ref"),
    ("markov.spectral_radius.power_iterations", "count"),
    ("markov.spectral_radius.capped", "count"),
    ("orbits.period_set.calls", "count"),
    ("orbits.period_set.self_ref", "ref"),
    ("orbits.period_set.iterates", "count"),
    ("orbits.markov_orbit_inventory.calls", "count"),
    ("orbits.markov_orbit_inventory.self_ref", "ref"),
    ("homoclinic.find_homoclinic.calls", "count"),
    ("homoclinic.find_homoclinic.self_ref", "ref"),
    ("homoclinic.find_homoclinic.orbits_searched", "count"),
    ("homoclinic.find_homoclinic.witnesses", "count"),
    ("renorm.build_tower.calls", "count"),
    ("renorm.build_tower.self_ref", "ref"),
    ("renorm.semiconjugacy_check.calls", "count"),
    ("renorm.semiconjugacy_check.self_ref", "ref"),
    ("entropy.entropy_markov.calls", "count"),
    ("entropy.entropy_markov.self_ref", "ref"),
    ("entropy.entropy_bowen.calls", "count"),
    ("entropy.entropy_bowen.self_ref", "ref"),
    ("entropy.entropy_lap.calls", "count"),
    ("entropy.entropy_lap.self_ref", "ref"),
    ("kneading.kneading_data.calls", "count"),
    ("kneading.realize_kneading.calls", "count"),
    ("kneading.realize_kneading.self_ref", "ref"),
    ("explore.classify.calls", "count"),
    ("explore.classify.self_ref", "ref"),
    ("explore.bisect_boundary.iterations", "count"),
    ("explore.refine_to_boundary.iterations", "count"),
    ("scan.run_scan.self_ref", "ref"),
    ("scan.bytes_written", "bytes"),
    ("trace.overhead_ref", "ref"),
)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self seconds)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [id, start, child seconds]
        self._undo: list[tuple] = []

    def _wrap(self, prefix, fn, work):
        clock, spans, counts, stack = self.clock, self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans) + len(stack), clock.now(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock.now()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                spans.append(
                    (frame[0], parent[0] if parent else None, prefix,
                     frame[1], end, duration - frame[2])
                )
                counts[prefix + ".calls"] += 1
            if work is not None:
                for stat, n in work(result).items():
                    counts[stat if "." in stat else f"{prefix}.{stat}"] += n
            return result

        return wrapper

    def install(self) -> None:
        for prefix, (module_name, qualname, work) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[attr]
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(prefix, fn, work))
                continue
            fn = getattr(module, qualname)
            wrapper = self._wrap(prefix, fn, work)
            for name, mod in list(sys.modules.items()):
                if name != "sawlab" and not name.startswith("sawlab."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def layer_metrics(self, pass_seconds: float) -> dict[str, float]:
        """Calls, work counts and self time per target, self time in passes of
        the given length."""
        out: dict[str, float] = dict(self.counts)
        self_seconds: dict[str, float] = defaultdict(float)
        for _, _, name, _, _, own in self.spans:
            self_seconds[name] += own
        for prefix in TARGETS:
            out.setdefault(prefix + ".calls", 0)
            out[prefix + ".self_ref"] = self_seconds[prefix] / pass_seconds
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                sid, parent, name, start, end, own = span
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "self": own}) + "\n")
