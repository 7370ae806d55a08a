"""One sha256 per engine output over a fixed grid of inputs.

    PYTHONPATH=src python tests/engine_digests.py

Two versions of the package print the same lines exactly when every output
below has the same bits on every case of the grid, so comparing the output
of this script at two commits shows a change to be byte-neutral.  The grid
is the four ``util.adversarial_pair`` regimes (five seeds each) and
Gaussian and 1/3-grid pairs at d in {1, 2, 3, 8, 32}, each at p in {1.5, 2,
3}.  Every case runs ``est_plan_tempered`` (tau = 3), ``est_plan`` with
every other slice weight 0, ``min_swgg``, ``lift_for_direction``,
``plan_cost``, ``interpolate`` and ``barycentric_projection``, and
``project`` of both measures along its first direction (all five arrays of
each ``ProjectedMeasure``).  The CLI's
``distance``, ``plan`` and ``interpolate`` outputs (sidecars included) are
digested on one small pair.  pytest does not collect this file: its name
does not start with ``test_``.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sliced_transport import (  # noqa: E402
    SliceSet,
    barycentric_projection,
    est_plan,
    est_plan_tempered,
    io,
    lift_for_direction,
    make_measure,
    min_swgg,
    plan_cost,
    project,
    sample_sphere,
)
from sliced_transport.applications import interpolate  # noqa: E402
from sliced_transport.cli import main  # noqa: E402
from util import adversarial_pair  # noqa: E402

REGIMES = ("exact-ties", "near-ties", "duplicates", "pareto")
DIMS = (1, 2, 3, 8, 32)
P_VALUES = (1.5, 2.0, 3.0)
SLICES = 12
TAU = 3.0


def _weights(rng, k):
    w = rng.random(k) + 0.05
    return w / w.sum()


def cases():
    """``(source, target, directions)`` of the grid, in a fixed order.

    The first direction of each case is one along which atoms tie: the
    regime's own direction, or the first axis.
    """
    for regime in REGIMES:
        for seed in range(5):
            mu, nu, theta = adversarial_pair(regime, seed)
            yield mu, nu, np.vstack([theta, sample_sphere(SLICES - 1, 2, seed)])
    for dim in DIMS:
        axis = np.eye(dim)[:1]
        for grid in (False, True):
            rng = np.random.default_rng(dim)
            xs, ys = rng.standard_normal((60, dim)), rng.standard_normal((45, dim)) + 0.5
            if grid:
                xs, ys = np.round(3 * xs) / 3, np.round(3 * ys) / 3
            mu, nu = make_measure(xs, _weights(rng, 60)), make_measure(ys, _weights(rng, 45))
            yield mu, nu, np.vstack([axis, sample_sphere(SLICES - 1, dim, dim)])


def _plan_bytes(plan):
    return plan.i.tobytes() + plan.j.tobytes() + plan.mass.tobytes()


def _floats(*values):
    return np.array(values, dtype=float).tobytes()


def engine_digests():
    outputs = {}

    def add(name, data):
        outputs.setdefault(name, hashlib.sha256()).update(data)

    half = np.arange(SLICES) % 2 == 0
    half_weights = np.where(half, 1.0 / half.sum(), 0.0)
    for mu, nu, directions in cases():
        for measure in (mu, nu):
            proj = project(measure, directions[0])
            add("project", b"".join(getattr(proj, f).tobytes() for f in proj.__dataclass_fields__))
        for p in P_VALUES:
            hot = est_plan_tempered(mu, nu, directions, p=p, tau=TAU)
            add("est_plan_tempered", _plan_bytes(hot.plan) + _floats(hot.distance)
                + hot.per_slice_costs.tobytes() + hot.slice_weights.tobytes())
            res = est_plan(mu, nu, SliceSet(directions, half_weights), p=p)
            add("est_plan_half_zero", _plan_bytes(res.plan) + _floats(res.distance)
                + res.per_slice_costs.tobytes())
            best, plan, cost = min_swgg(mu, nu, directions, p=p)
            add("min_swgg", _plan_bytes(plan) + _floats(best, cost))
            plan, cost = lift_for_direction(mu, nu, directions[0], p=p)
            add("lift_for_direction", _plan_bytes(plan) + _floats(cost))
            add("plan_cost", _floats(plan_cost(hot.plan, mu, nu, p)))
            frame = interpolate(hot.plan, mu, nu, 0.3)
            add("interpolate", frame.atoms.tobytes() + frame.weights.tobytes())
            add("barycentric_projection", barycentric_projection(hot.plan, mu, nu).tobytes())
    return outputs


CLI_RUNS = (
    ("distance", "source.csv", "target.csv", "--slices", "16"),
    ("distance", "source.csv", "target.csv", "--slices", "16", "--tau", "3", "--per-slice"),
    ("distance", "source.csv", "target.csv", "--slices", "16", "--format", "json", "--per-slice"),
    ("distance", "source.csv", "target.csv", "--slices", "16", "--method", "min-swgg"),
    ("plan", "source.csv", "target.csv", "plan.csv", "--slices", "16", "--tau", "3"),
    ("plan", "source.csv", "target.csv", "swgg.csv", "--slices", "16", "--method", "min-swgg"),
    ("interpolate", "source.csv", "target.csv", "frames", "--slices", "16", "--steps", "2"),
)


def cli_digests():
    """Digests of the CLI's stdout and files on one small 1/3-grid pair."""
    rng = np.random.default_rng(7)
    xs, ys = np.round(3 * rng.standard_normal((80, 2))) / 3, rng.standard_normal((70, 2)) + 1
    outputs = {}
    runner = CliRunner()
    with runner.isolated_filesystem():
        io.write_measure(make_measure(xs, _weights(rng, 80)), "source.csv")
        io.write_measure(make_measure(ys, _weights(rng, 70)), "target.csv")
        for argv in CLI_RUNS:
            result = runner.invoke(main, list(argv))
            digest = hashlib.sha256(f"{result.exit_code}\n{result.output}".encode())
            outputs[f"cli {' '.join(argv)}"] = digest
        for root, _, files in sorted(os.walk(".")):
            for name in sorted(files):
                path = Path(root, name)
                if name not in ("source.csv", "target.csv"):
                    outputs[f"file {path.as_posix()}"] = hashlib.sha256(path.read_bytes())
    return outputs


if __name__ == "__main__":
    for name, digest in {**engine_digests(), **cli_digests()}.items():
        print(f"{digest.hexdigest()}  {name}")
