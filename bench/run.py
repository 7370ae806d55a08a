#!/usr/bin/env python3
"""Benchmark of the sliced_transport package, run from the repository root.

    python3 bench/run.py --workload lot-embed --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                       # every workload, one after another
    python3 bench/run.py --workload cli-large-n --smoke --trace 1

Each workload is a closed loop with one client in one process: a call starts
when the previous one has finished.  With ``--trace 0`` the loop is timed
with tracing off and the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the same calls run in alternating untraced and
traced blocks and the last line holds the per-layer metrics.  The line
before it is a report with every metric, the machine, the software and the
settings.  Every output is checked outside the timed intervals; the
``failed`` count covers calls that raised or failed a check.

Workloads, metrics and bounds are read from ``BENCHMARK.json``;
``bench/spec.py`` adds the layer map and the units of the report-only
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 7
PROBE_REPS = 5
CHILD_TIMEOUT_S = 120
MAX_REPORTED_ERRORS = 5

sys.path.insert(0, str(BENCH))
import spec  # noqa: E402  (bench-local, imports nothing heavy)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_env() -> dict:
    """Cap BLAS at nproc threads, leave EST_THREADS unset, point at src/.

    Runs before numpy is imported; children inherit the environment.
    Returns the settings as found, for the report.
    """
    found = {v: os.environ.get(v) for v in BLAS_VARS + ("EST_THREADS",)}
    cap = nproc()
    for var in BLAS_VARS:
        try:
            value = min(int(os.environ[var]), cap)
        except (KeyError, ValueError):
            value = cap
        os.environ[var] = str(max(1, value))
    os.environ.pop("EST_THREADS", None)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))
    return found


def machine() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": nproc(), "cpu_model": model, "caches": caches,
            "ram_gib": round(ram / 2**30, 2)}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def software() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    def ver(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": ver("scipy"), "click": ver("click"), "git_commit": git_commit()}


def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than eleven samples this is the maximum, at 100.
    """
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def fresh_process_s(args: list[str], reps: int) -> list[float]:
    """Wall times of ``reps`` fresh interpreter runs, each waited for."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return times


class Tally:
    """Attempted and failed calls, with the first few problems printed to stderr."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if self.failed <= MAX_REPORTED_ERRORS:
                print(f"[{self.workload}] {label}: {'; '.join(errors)}", file=sys.stderr)

    def run_checked(self, label: str, fn):
        """Call fn() at a boundary that must keep running; a raise counts as a failure."""
        try:
            return fn()
        except Exception:
            self.record(label, [traceback.format_exc(limit=3).strip().replace("\n", " | ")])
            return None


def check_anchor(name: str, workdir: Path, tally: Tally) -> None:
    import workloads

    want = json.loads(REFERENCE.read_text())[name]
    got = tally.run_checked("anchor", lambda: workloads.anchor_distances(name, workdir))
    if got is None:
        return
    for k, (g, w) in enumerate(zip(got, want)):
        ok = abs(g - w) <= workloads.REFERENCE_RTOL * abs(w)
        tally.record(f"anchor call {k}", [] if ok else [f"distance {g!r} != reference {w!r}"])


def timed_call(wl, k: int, in_process: bool = False):
    t0 = time.perf_counter()
    out = wl.call_in_process(k) if in_process else wl.call(k)
    return out, time.perf_counter() - t0


def run_e2e(name: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict, Tally]:
    import workloads

    workdir = WORK / name
    reps = 1 if smoke else SETUP_REPS
    setup = fresh_process_s([str(BENCH / "setup_child.py"), name, str(seed),
                             str(workdir / "setup")], reps)
    wl = workloads.build(name, seed, workdir)
    tally = Tally(name)
    check_anchor(name, workdir, tally)

    cli = name in spec.CLI_WORKLOADS
    latencies: list[float] = []
    by_step: dict[str, list[float]] = {}
    atoms = 0
    child_rss_kib = 0
    spent = 0.0  # time inside calls, failed ones included
    k = 0
    # Stop only after a whole rotation, so every run has the same mix of steps.
    while k % len(wl.steps) or k == 0 or spent < seconds:
        t0 = time.perf_counter()
        result = tally.run_checked(f"call {k}", lambda: timed_call(wl, k))
        spent += time.perf_counter() - t0
        if result is not None:
            out, latency = result
            # A CLI invocation is timed by its launcher, from spawn to exit.
            latencies.append(out.entry_s if cli else latency)
            child_rss_kib = max(child_rss_kib, out.peak_rss_kib)
            by_step.setdefault(out.step, []).append(out.entry_s)
            atoms += wl.atoms(k)
            errors = tally.run_checked(f"check {k}", lambda: wl.check(k, out))
            if errors is not None:
                tally.record(f"call {k}", errors)
        k += 1

    tail, tail_pct = percentile_tail(latencies)
    rss_kib = child_rss_kib if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "slice_atoms_per_s": atoms / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mib": rss_kib / 1024,
    }
    prefix = "cli_" if cli else ""
    extra = {
        "fail_frac": tally.failed / tally.attempted,
        "latency_tail_pct": tail_pct,
        "latency_samples": len(latencies),
        **{f"{prefix}{step}_p50_s": statistics.median(v) for step, v in by_step.items()},
    }
    return metrics, extra, tally


def run_trace(name: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict, Tally]:
    import tracemalloc

    import spans
    import workloads

    workdir = WORK / name
    in_process = name in spec.CLI_WORKLOADS
    setup_tracer = spans.Tracer()
    with setup_tracer.installed(), setup_tracer.root("setup", -1):
        wl = workloads.build(name, seed, workdir)
    tally = Tally(name)
    check_anchor(name, workdir, tally)

    block = range(wl.trace_block)
    for k in block:
        result = tally.run_checked(f"call {k}", lambda: timed_call(wl, k, in_process)[0])
        if result is not None:
            errors = tally.run_checked(f"check {k}", lambda: wl.check(k, result))
            if errors is not None:
                tally.record(f"call {k}", errors)

    tracer = spans.Tracer()
    untraced = traced = 0.0
    counts = []
    rounds = 0
    start = time.perf_counter()
    while rounds < 1 or (not smoke and time.perf_counter() - start < seconds):
        for k in block:
            untraced += timed_call(wl, k, in_process)[1]
        tracer.counts.clear()
        with tracer.installed():
            for k in block:
                with tracer.root("call", k):
                    traced += timed_call(wl, k, in_process)[1]
        counts.append(spans.block_counts(tracer.counts))
        rounds += 1

    alloc_tracer = spans.Tracer()
    tracemalloc.start()
    try:
        with alloc_tracer.installed():
            for k in block:
                with alloc_tracer.root("call", k):
                    timed_call(wl, k, in_process)
    finally:
        tracemalloc.stop()
    counts.append(spans.block_counts(alloc_tracer.counts))
    if any(c != counts[0] for c in counts):
        tally.record("counts", ["counts differ between repeats of the same calls"])

    reps = 1 if smoke else PROBE_REPS
    interpreter = statistics.median(fresh_process_s(["-c", "pass"], reps))
    imported = statistics.median(fresh_process_s(["-c", "import sliced_transport.cli"], reps))

    calls = rounds * len(block)
    metrics = {name_: 0.0 for name_ in spec.PER_LAYER}
    for span, total in tracer.self_times().items():
        if span in spans.TIME_METRICS:
            metrics[spans.TIME_METRICS[span]] += total / calls
    metrics["measures.make_measure_s"] = setup_tracer.self_times()["measures.make_measure"]
    metrics.update(counts[0])
    metrics["est.peak_alloc_mib"] = alloc_tracer.peak_alloc / 2**20
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = imported - interpreter
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    workdir.mkdir(parents=True, exist_ok=True)
    tracer.dump(workdir / "spans.json")
    extra = {"traced_rounds": rounds, "calls_per_block": len(block), "spans": len(tracer.spans)}
    return metrics, extra, tally


def with_units(values: dict) -> dict:
    unit = spec.units()
    return {n: {"value": v, "unit": unit[n]} for n, v in values.items()}


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool, found: dict) -> int:
    runner = run_trace if traced else run_e2e
    metrics, extra, tally = runner(name, seed, seconds, smoke)
    report = {
        "workload": name, "why": spec.WORKLOADS[name], "seed": seed, "seconds": seconds,
        "trace": int(traced), "smoke": smoke,
        "spans_file": str((WORK / name / "spans.json").relative_to(ROOT)) if traced else None,
        "metrics": with_units({**metrics, **extra}),
        "layers": spec.layer_map(),
        "machine": machine(), "software": software(),
        "settings": {"seed": seed, "EST_THREADS": os.environ.get("EST_THREADS"),
                     **{v: os.environ[v] for v in BLAS_VARS}, "env_as_found": found},
    }
    for metric, cell in report["metrics"].items():
        print(f"[{name}] {metric} = {cell['value']:.6g} {cell['unit']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": with_units(metrics)}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged, attempted, failed = {}, 0, 0
    for name in spec.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        merged.update({f"{name}/{m}": cell for m, cell in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one rotation of calls, one set-up, one traced block")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.smoke:
        args.seconds = 0.0

    if not (SRC / "sliced_transport" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    found = prepare_env()
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, found)


if __name__ == "__main__":
    sys.exit(main())
