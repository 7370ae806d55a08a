"""Tests of the benchmark itself: python3 -m pytest bench

They run every workload in its smoke setting and check that each metric
prints with its unit, that the output checks catch wrong outputs, and that
exact counts repeat for a repeated seed.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from sliced_transport import TransportPlan  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_manifest_meets_the_schema_and_every_per_layer_metric_has_a_layer():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in manifest["end_to_end"])}]
    assert list(spec.LAYER_MAP) == [m["name"] for m in manifest["per_layer"]]
    assert set(spec.layer_map()) >= {"measures", "slicing", "lifting", "est", "applications", "io", "cli"}


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, traced):
    report, result = last_line(bench("--workload", workload, "--seed", "1", "--smoke",
                                     "--trace", str(traced)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec.MANIFEST["per_layer" if traced else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    assert all(isinstance(c["value"], (int, float)) for c in result["metrics"].values())
    assert {"nproc", "cpu_model", "caches", "ram_gib"} <= set(report["machine"])
    assert {"python", "numpy", "scipy", "click", "git_commit"} <= set(report["software"])
    assert report["settings"]["EST_THREADS"] is None and report["seed"] == 1
    if not traced:
        assert report["metrics"]["fail_frac"]["value"] == 0


def test_counts_repeat_exactly_for_a_repeated_seed():
    counts = []
    for _ in range(2):
        _, result = last_line(bench("--workload", "cli-large-n", "--seed", "4", "--smoke", "--trace", "1"))
        counts.append({n: c["value"] for n, c in result["metrics"].items()
                       if c["unit"] in ("count", "B", "1") and n != "trace.overhead_frac"})
    assert counts[0] == counts[1] and counts[0]["slicing.project_calls"] > 0


def _tampered_result(result, **changes):
    return dataclasses.replace(result, **changes)


def test_library_checks_catch_wrong_outputs():
    wl = workloads.LotEmbed(2)
    out = wl.call(0)
    assert wl.check(0, out) == []
    res = out.result
    assert wl.check(0, dataclasses.replace(out, result=_tampered_result(res, distance=res.distance * 1.01)))
    shifted = res.plan.mass.copy()
    shifted[0] += 1e-6
    shifted[1] -= 1e-6
    bad_plan = TransportPlan(res.plan.source_size, res.plan.target_size, res.plan.i, res.plan.j,
                             np.abs(shifted))
    assert wl.check(0, dataclasses.replace(out, result=_tampered_result(res, plan=bad_plan)))
    assert wl.check(0, dataclasses.replace(out, after=out.after + 1e-3))
    low = res.per_slice_costs * 1e-3
    low_res = _tampered_result(res, per_slice_costs=low, distance=float(np.sqrt(np.mean(low**2))))
    assert any("below the 1D distance" in e for e in wl.check(0, dataclasses.replace(out, result=low_res)))

    swgg = wl.call(2)
    assert wl.check(2, swgg) == []
    index, plan, cost = swgg.result
    assert wl.check(2, dataclasses.replace(swgg, result=(index, plan, cost * 1.01)))


def test_cli_checks_catch_wrong_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    wl = workloads.build("cli-large-n", 3, tmp_path)
    good = wl.call(0)
    assert wl.check(0, good) == []
    assert wl.check(0, dataclasses.replace(good, stdout="2.5\n"))
    assert wl.check(0, dataclasses.replace(good, returncode=2))


def test_reference_values_cover_every_workload_and_match_this_code():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert set(reference) == set(spec.WORKLOADS)
    got = workloads.anchor_distances("lot-embed", BENCH)
    assert got == pytest.approx(reference["lot-embed"], rel=workloads.REFERENCE_RTOL)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.percentile_tail([float(x) for x in range(100)]) == (89.0, 90.0)
    assert run.percentile_tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lot-embed", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
