"""Seeded inputs, the calls of each workload, and the checks on their outputs.

Every input is a function of the workload seed; the program receives only
the generated measures (for cli-large-n, the CSV files written from them).
Each workload object exposes:

* ``call(k)``: the k-th call of the closed loop, returning an ``Output``;
* ``check(k, out)``: the list of problems with that output (empty when good);
* ``atoms(k)``: the call's work ``L * (n + m)``;
* ``steps`` and ``trace_block``: the call rotation and the traced block size.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sliced_transport import applications, est, io, measures, oracles, slicing

P = 2.0
TAU = 10.0
COUPLING_TOL = 1e-9  # the validate_coupling gate
REL_TOL = 1e-12  # fold identity, recomputed plan cost, slice lower bound
# Anchor distances must match bench/reference.json to this relative
# tolerance, the target the batched-engine rewrite is held to.
REFERENCE_RTOL = 1e-12
ANCHOR_SEED = 0
CLI_TIMEOUT_S = 90  # bench/launch.py stops a CLI child after 60 s
LAUNCH = Path(__file__).resolve().parent / "launch.py"


def call_seed(seed: int, k: int) -> int:
    """Direction seed of call k: fresh directions on every call."""
    return seed * 100_003 + k


@dataclass
class Output:
    step: str
    entry_s: float  # time inside the entry point (whole process for the CLI)
    result: object  # EstResult, or (index, plan, cost) from min_swgg
    directions: np.ndarray
    after: object = None  # barycentric rows or interpolated measure
    returncode: int = 0
    stdout: str = ""
    stderr: str = ""
    peak_rss_kib: int = 0  # the CLI child's own peak resident set


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _slice_bound(src, tgt, theta, cost: float) -> list[str]:
    """An ambient slice cost is at least the 1D distance of the projections."""
    w1d = oracles.wasserstein_1d(src.atoms @ theta, src.weights, tgt.atoms @ theta, tgt.weights, P)
    if not cost >= w1d * (1.0 - REL_TOL) - REL_TOL:
        return [f"slice cost {cost!r} below the 1D distance {w1d!r}"]
    return []


def check_result(src, tgt, directions, result, k: int) -> list[str]:
    """Checks shared by every est_plan, est_plan_tempered and min_swgg output."""
    errs = []
    if isinstance(result, est.EstResult):
        plan, distance = result.plan, result.distance
        costs, weights = result.per_slice_costs, result.slice_weights
        folded = math.fsum(float(w) * float(c) ** P for w, c in zip(weights, costs))
        if not _close(distance**P, folded):
            errs.append(f"distance**p {distance**P!r} != folded slice costs {folded!r}")
        if costs.shape != (len(directions),) or not _close(math.fsum(weights), 1.0):
            errs.append("per-slice costs or weights malformed")
        sampled = (k * 37) % len(directions)
        errs += _slice_bound(src, tgt, directions[sampled], float(costs[sampled]))
    else:
        index, plan, distance = result
        recomputed = measures.plan_cost(plan, src, tgt, P)
        if not _close(distance, recomputed):
            errs.append(f"min_swgg cost {distance!r} != plan cost {recomputed!r}")
        errs += _slice_bound(src, tgt, directions[index], distance)
    if not math.isfinite(distance):
        errs.append(f"distance {distance!r} is not finite")
    ok, dev = measures.validate_coupling(plan, src, tgt, COUPLING_TOL)
    if not ok:
        errs.append(f"plan marginals deviate by {dev:.3e}")
    return errs


def _check_barycentric(rows, src, tgt) -> list[str]:
    # sum_i a_i row_i = sum_j colmass_j y_j, and colmass_j is within the
    # coupling tolerance of b_j.
    if rows.shape != (len(src), src.dim) or not np.all(np.isfinite(rows)):
        return ["barycentric rows malformed"]
    gap = np.abs(src.weights @ rows - tgt.weights @ tgt.atoms)
    tol = COUPLING_TOL * np.abs(tgt.atoms).sum(axis=0) + 1e-12
    return [] if np.all(gap <= tol) else [f"barycentric mean off by {gap.max():.3e}"]


def _check_interpolated(frame, plan, src, tgt, t: float) -> list[str]:
    if len(frame) != len(plan):
        return ["interpolated measure lost atoms"]
    mean = frame.weights @ frame.atoms
    expect = (1.0 - t) * (src.weights @ src.atoms) + t * (tgt.weights @ tgt.atoms)
    tol = 2 * COUPLING_TOL * (np.abs(src.atoms).sum(axis=0) + np.abs(tgt.atoms).sum(axis=0)) + 1e-12
    gap = np.abs(mean - expect)
    return [] if np.all(gap <= tol) else [f"interpolated mean off by {gap.max():.3e}"]


def _pareto_weights(rng, size: int) -> np.ndarray:
    w = rng.pareto(1.5, size) + 1.0
    return w / w.sum()


class LotEmbed:
    """A fixed uniform reference against a stream of two-class clouds.

    The closed loop's in-process library calls rotate through ``steps``.
    """

    name = "lot-embed"
    steps = ("est_plan", "est_plan_tempered", "min_swgg")
    size, dim, slices, pool = 256, 8, 128, 32
    trace_block = 12

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        n, d = self.size, self.dim
        self.reference = measures.make_measure(rng.standard_normal((n, d)), np.full(n, 1.0 / n))
        shift = np.zeros(d)
        shift[0] = 1.5
        self.clouds = []
        for c in range(self.pool):
            w = rng.gamma(2.0, size=n)
            atoms = rng.standard_normal((n, d)) + (c % 2) * shift
            self.clouds.append(measures.make_measure(atoms, w / w.sum()))

    def pair(self, k: int):
        return self.reference, self.clouds[k % self.pool]

    def atoms(self, k: int) -> int:
        src, tgt = self.pair(k)
        return self.slices * (len(src) + len(tgt))

    def _entry(self, step: str, src, tgt, directions):
        if step == "est_plan":
            slices = est.SliceSet.uniform(directions)
            t0 = time.perf_counter()
            result = est.est_plan(src, tgt, slices, p=P)
        elif step == "est_plan_tempered":
            t0 = time.perf_counter()
            result = est.est_plan_tempered(src, tgt, directions, p=P, tau=TAU)
        else:
            t0 = time.perf_counter()
            result = est.min_swgg(src, tgt, directions, p=P)
        return result, time.perf_counter() - t0

    def call(self, k: int) -> Output:
        src, tgt = self.pair(k)
        step = self.steps[k % len(self.steps)]
        directions = slicing.sample_sphere(self.slices, src.dim, call_seed(self.seed, k))
        result, entry_s = self._entry(step, src, tgt, directions)
        if isinstance(result, est.EstResult):
            after = applications.barycentric_projection(result.plan, src, tgt)
        else:
            after = applications.interpolate(result[1], src, tgt, 0.5)
        return Output(step, entry_s, result, directions, after)

    def check(self, k: int, out: Output) -> list[str]:
        src, tgt = self.pair(k)
        errs = check_result(src, tgt, out.directions, out.result, k)
        if isinstance(out.result, est.EstResult):
            return errs + _check_barycentric(out.after, src, tgt)
        return errs + _check_interpolated(out.after, out.result[1], src, tgt, 0.5)

    def distance(self, out: Output) -> float:
        """The distance a call produced, for the anchor check."""
        result = out.result
        return result.distance if isinstance(result, est.EstResult) else result[2]


class CliLargeN:
    """Fresh ``python -m sliced_transport.cli`` processes on large CSV inputs.

    Invocations alternate ``distance`` and ``plan``, each with its own
    direction seed.  A distance is checked against the in-process value
    computed from the same files; a written plan is read back as a coupling.
    """

    name = "cli-large-n"
    steps = ("distance", "plan")
    size, dim, slices = 10_000, 2, 16
    trace_block = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        n = self.size
        self.source = measures.make_measure(rng.standard_normal((n, self.dim)), np.full(n, 1.0 / n))
        target = rng.standard_normal((n, self.dim)) * [1.5, 0.7] + [2.0, 0.5]
        self.target = measures.make_measure(target, _pareto_weights(rng, n))
        self.workdir = workdir
        self.paths = (workdir / "mu.csv", workdir / "nu.csv")
        self.plan_path = workdir / "plan.csv"
        self.read_back = None

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for measure, path in zip((self.source, self.target), self.paths):
            path.unlink(missing_ok=True)  # a new file: see remove_plan
            io.write_measure_csv(measure, path)

    def atoms(self, k: int) -> int:
        return self.slices * 2 * self.size

    def argv(self, k: int) -> list[str]:
        """Arguments of invocation k; a plan invocation gets a fresh output file."""
        step = self.steps[k % 2]
        args = [step, str(self.paths[0]), str(self.paths[1])]
        if step == "plan":
            self.remove_plan()
            args.append(str(self.plan_path))
        return args + ["--slices", str(self.slices), "--seed", str(call_seed(self.seed, k))]

    def remove_plan(self) -> None:
        # Writing a new file instead of truncating the old one, and deleting
        # it once checked, keeps ext4's flush-on-truncate and the disk
        # writeback out of the timings.
        self.plan_path.unlink(missing_ok=True)
        self.plan_path.with_suffix(".csv.meta.json").unlink(missing_ok=True)

    def call(self, k: int) -> Output:
        """One CLI child process, timed by bench/launch.py from spawn to exit."""
        proc = subprocess.run(
            [sys.executable, str(LAUNCH), sys.executable, "-m", "sliced_transport.cli",
             *self.argv(k)],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
        )
        run = json.loads(proc.stdout)
        return Output(self.steps[k % 2], run["wall_s"], None, self.directions(k),
                      returncode=run["returncode"], stdout=run["stdout"], stderr=run["stderr"],
                      peak_rss_kib=run["peak_rss_kib"])

    def call_in_process(self, k: int) -> Output:
        """The same invocation through ``cli.main`` in this process."""
        from sliced_transport import cli

        buf = _stdio.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                cli.main.main(args=self.argv(k), prog_name="sliced-transport",
                              standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        wall = time.perf_counter() - t0
        return Output(self.steps[k % 2], wall, None, self.directions(k),
                      returncode=code, stdout=buf.getvalue())

    def directions(self, k: int) -> np.ndarray:
        return slicing.sample_sphere(self.slices, self.dim, call_seed(self.seed, k))

    def in_process(self, k: int, src, tgt):
        """The library result the CLI should reproduce for invocation k."""
        return est.est_plan_tempered(src, tgt, self.directions(k), p=P)

    def check(self, k: int, out: Output) -> list[str]:
        if self.read_back is None:
            self.read_back = tuple(io.read_measure(p) for p in self.paths)
        src, tgt = self.read_back
        if out.returncode != 0:
            return [f"exit code {out.returncode}: {out.stderr.strip()[-300:]}"]
        if out.step == "distance":
            ref = self.in_process(k, src, tgt)
            errs = check_result(src, tgt, out.directions, ref, k)
            want = f"{ref.distance:.12g}"
            lines = out.stdout.split()
            if not lines or lines[0] != want:
                errs.append(f"printed distance {lines[:1]} != in-process {want}")
            return errs
        plan = io.read_plan_csv(self.plan_path, len(src), len(tgt))
        self.remove_plan()
        ok, dev = measures.validate_coupling(plan, src, tgt, COUPLING_TOL)
        return [] if ok else [f"written plan marginals deviate by {dev:.3e}"]


WORKLOADS = {w.name: w for w in (LotEmbed, CliLargeN)}


def build(name: str, seed: int, workdir: Path):
    """The workload's inputs, validated through make_measure (and written, for the CLI)."""
    if name == CliLargeN.name:
        wl = CliLargeN(seed, workdir)
        wl.write_inputs()
        return wl
    return WORKLOADS[name](seed)


def anchor_distances(name: str, workdir: Path) -> list[float]:
    """Distances of the first calls at the anchor seed, compared with reference.json."""
    if name == CliLargeN.name:
        wl = CliLargeN(ANCHOR_SEED, workdir)
        return [wl.in_process(k, wl.source, wl.target).distance for k in range(2)]
    wl = WORKLOADS[name](ANCHOR_SEED)
    return [wl.distance(wl.call(k)) for k in range(len(wl.steps))]
