"""Spans and counts recorded from outside the package.

In a traced run the benchmark replaces public functions, at the module
where the package (or the benchmark) looks them up, with thin wrappers.
Each wrapper records a span ``[name, start, end, parent, call]`` and
updates exact counts from the arguments and result.  Nothing in ``src/``
changes.  A function a later version stops calling simply records no span,
and its time shows up in the self time of the span around it.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

AVERAGING = ("est.est_plan", "est.est_plan_tempered")
ENTRY_POINTS = AVERAGING + ("est.min_swgg",)

# Self-time span name -> per-layer metric.  est.self_s is the entry point's
# span minus its children: dispatch, merge and fold.
TIME_METRICS = {
    "measures.plan_cost": "measures.plan_cost_s",
    "slicing.project": "slicing.project_s",
    "slicing.solve_1d": "slicing.solve_1d_s",
    "lifting.lift": "lifting.lift_s",
    "est.est_plan": "est.self_s",
    "est.est_plan_tempered": "est.self_s",
    "est.min_swgg": "est.self_s",
    "applications.barycentric_projection": "applications.barycentric_s",
    "applications.interpolate": "applications.interpolate_s",
    "io.read_measure": "io.read_measure_s",
    "io.write_plan_csv": "io.write_plan_s",
}


def _on_project(tr, args, result):
    tr.counts["slicing.project_calls"] += 1
    tr.counts["slicing.classes"] += result.n_classes
    tr.counts["slicing.grouped"] += result.n_classes < len(result.member_indices)


def _on_solve(tr, args, result):
    tr.counts["slicing.entries_1d"] += len(result)


def _on_lift(tr, args, result):
    proj_source, proj_target = args[2], args[3]
    tr.counts["lifting.lift_calls"] += 1
    tr.counts["lifting.loop"] += not (proj_source.all_singletons and proj_target.all_singletons)
    tr.counts["lifting.lifted_entries"] += len(result)
    if any(tr.spans[s][0] in AVERAGING for s in tr.stack):
        tr.counts["est.lifted_in_merge"] += len(result)


def _on_average(tr, args, result):
    tr.counts["est.merged_entries"] += len(result.plan)


def _on_read(tr, args, result):
    tr.counts["io.bytes_read"] += os.path.getsize(args[0])


def _on_write(tr, args, result):
    tr.counts["io.bytes_written"] += os.path.getsize(args[1])


# (module, attribute, span name, count hook).  Each wrapper sits where the
# caller looks the function up: lift_for_direction resolves project,
# solve_1d, lift and plan_cost in sliced_transport.lifting; the est entry
# points resolve lift_for_direction in sliced_transport.est; the CLI
# resolves the entry points in its own module and io functions on io.
PATCHES = [
    ("sliced_transport.measures", "make_measure", "measures.make_measure", None),
    ("sliced_transport.lifting", "project", "slicing.project", _on_project),
    ("sliced_transport.lifting", "solve_1d", "slicing.solve_1d", _on_solve),
    ("sliced_transport.lifting", "lift", "lifting.lift", _on_lift),
    ("sliced_transport.lifting", "plan_cost", "measures.plan_cost", None),
    ("sliced_transport.est", "lift_for_direction", "lifting.lift_for_direction", None),
    ("sliced_transport.est", "est_plan", "est.est_plan", _on_average),
    ("sliced_transport.est", "est_plan_tempered", "est.est_plan_tempered", _on_average),
    ("sliced_transport.est", "min_swgg", "est.min_swgg", None),
    ("sliced_transport.cli", "est_plan_tempered", "est.est_plan_tempered", _on_average),
    ("sliced_transport.cli", "min_swgg", "est.min_swgg", None),
    ("sliced_transport.applications", "barycentric_projection",
     "applications.barycentric_projection", None),
    ("sliced_transport.applications", "interpolate", "applications.interpolate", None),
    ("sliced_transport.io", "read_measure", "io.read_measure", _on_read),
    ("sliced_transport.io", "write_plan_csv", "io.write_plan_csv", _on_write),
]


class Tracer:
    """Spans kept in memory, plus exact counts at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.call = -1
        self.peak_alloc = 0

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [name, 0.0, 0.0, parent, self.call]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, name: str, call: int):
        """The span around one workload call."""
        self.call = call
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, hook):
        measure_alloc = name in ENTRY_POINTS

        def traced(*args, **kwargs):
            if measure_alloc and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if measure_alloc and tracemalloc.is_tracing():
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every patch target that exists; restore the originals after."""
        saved = []
        for module_name, attr, name, hook in PATCHES:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> Counter:
        """Total self time by span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        rows = [[index[n], s, e, p, c] for n, s, e, p, c in self.spans]
        path.write_text(json.dumps({"names": names, "fields": ["name", "start", "end", "parent", "call"],
                                    "spans": rows}))


def block_counts(counts: Counter) -> dict:
    """The exact per-layer counts of one traced block."""
    project_calls = counts["slicing.project_calls"]
    lift_calls = counts["lifting.lift_calls"]
    lifted_in_merge = counts["est.lifted_in_merge"]
    return {
        "slicing.project_calls": project_calls,
        "slicing.grouped_frac": counts["slicing.grouped"] / project_calls if project_calls else 0.0,
        "slicing.classes": counts["slicing.classes"],
        "slicing.entries_1d": counts["slicing.entries_1d"],
        "lifting.loop_frac": counts["lifting.loop"] / lift_calls if lift_calls else 0.0,
        "lifting.lifted_entries": counts["lifting.lifted_entries"],
        "est.merged_entries": counts["est.merged_entries"],
        "est.merge_ratio": counts["est.merged_entries"] / lifted_in_merge if lifted_in_merge else 0.0,
        "io.bytes_read": counts["io.bytes_read"],
        "io.bytes_written": counts["io.bytes_written"],
    }
