"""What the benchmark measures: workloads, metrics and the layer map.

Workloads, metric units and bounds come from ``BENCHMARK.json`` at the
repository root.  This module adds what that file's fixed schema cannot
hold: the layer map (which end-to-end metric each per-layer metric should
move, on which workload) and the units of the metrics that are printed in
the report but not gated.
"""

from __future__ import annotations

import json
from pathlib import Path

MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
RUN_SECONDS = MANIFEST["run_seconds"]
WORKLOADS = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
PER_LAYER = [m["name"] for m in MANIFEST["per_layer"]]

CLI_WORKLOADS = ("cli-large-n",)

# Printed in every run's report line but not gated: they exist on some
# workloads or modes only, or are 0 by design (fail_frac).
REPORT_ONLY = {
    "fail_frac": "1",
    "latency_tail_pct": "%",
    "latency_samples": "count",
    "est_plan_p50_s": "s",  # lot-embed
    "est_plan_tempered_p50_s": "s",
    "min_swgg_p50_s": "s",
    "cli_distance_p50_s": "s",  # cli-large-n
    "cli_plan_p50_s": "s",
    "traced_rounds": "count",  # --trace 1
    "calls_per_block": "count",
    "spans": "count",
}

# Per-layer metric: (layer, {workload: end-to-end metrics it should move}).
# Times ending in _s are self time per workload call, except
# measures.make_measure_s (per in-process build of the workload's measures)
# and the two cli start-up probes.  Counts are over one traced block of calls.
LAYER_MAP = {
    "measures.make_measure_s": ("measures", {"all": ["setup_s"]}),
    "measures.plan_cost_s": ("measures", {"lot-embed": ["latency_p50_s"]}),
    "slicing.project_s": ("slicing", {
        "cli-large-n": ["latency_tail_s", "slice_atoms_per_s"], "lot-embed": []}),
    "slicing.project_calls": ("slicing", {}),
    "slicing.grouped_frac": ("slicing", {}),
    "slicing.classes": ("slicing", {}),
    "slicing.solve_1d_s": ("slicing", {"lot-embed": ["latency_p50_s", "est_plan_p50_s"]}),
    "slicing.entries_1d": ("slicing", {}),
    "lifting.lift_s": ("lifting", {
        "cli-large-n": ["latency_tail_s", "slice_atoms_per_s"], "lot-embed": []}),
    "lifting.loop_frac": ("lifting", {}),
    "lifting.lifted_entries": ("lifting", {}),
    "est.self_s": ("est", {
        "cli-large-n": ["slice_atoms_per_s", "peak_rss_mib"], "lot-embed": ["min_swgg_p50_s"]}),
    "est.merged_entries": ("est", {}),
    "est.merge_ratio": ("est", {}),
    "est.peak_alloc_mib": ("est", {"cli-large-n": ["peak_rss_mib"]}),
    "applications.barycentric_s": ("applications", {"lot-embed": ["latency_p50_s"]}),
    "applications.interpolate_s": ("applications", {"lot-embed": ["latency_p50_s"]}),
    "io.read_measure_s": ("io", {"cli-large-n": ["cli_distance_p50_s", "cli_plan_p50_s"]}),
    "io.write_plan_s": ("io", {"cli-large-n": ["cli_plan_p50_s"]}),
    "io.bytes_read": ("io", {}),
    "io.bytes_written": ("io", {}),
    "cli.interpreter_s": ("cli", {"cli-large-n": ["cli_distance_p50_s", "cli_plan_p50_s"]}),
    "cli.import_s": ("cli", {
        "cli-large-n": ["cli_distance_p50_s", "cli_plan_p50_s"], "all": ["setup_s"]}),
    "trace.overhead_frac": ("trace", {}),
}


def units() -> dict:
    """Unit of every metric the benchmark prints."""
    out = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    out.update(REPORT_ONLY)
    return out


def layer_map() -> dict:
    """Layer -> metric -> {workload: end-to-end metrics it should move}."""
    out: dict = {}
    for name, (layer, moves) in LAYER_MAP.items():
        out.setdefault(layer, {})[name] = moves
    return out
