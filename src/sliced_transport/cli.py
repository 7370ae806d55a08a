"""Command-line interface.

Exit codes: 2 unreadable/unparsable input, an out-of-domain option value, or
input a solver rejects (any TransportError a command does not handle), 3
dimension mismatch between the two measures, 4 unwritable output location,
5 unknown experiment name.
Given the same inputs, options, and seed the outputs are byte-identical
across runs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from . import io
from .applications import (
    METHODS,
    embedding_features,
    gaussian_pair,
    interpolate,
    least_squares_accuracy,
    reference_measure,
    transport,
    two_class_task,
    weak_convergence_table,
)
from .errors import TransportError
from .est import _check_tau
from .measures import DiscreteMeasure, _check_p, make_measure
from .oracles import _check_lam
from .slicing import _check_tol

EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_UNWRITABLE = 4
EXIT_UNKNOWN_EXPERIMENT = 5

KNOWN_EXPERIMENTS = ("weak-convergence", "temperature-sweep", "embed-bench")


@dataclass(frozen=True)
class RunConfig:
    """Options shared by every command; out-of-domain values raise TransportError."""

    p: float = 2.0
    slices: int = 128
    tau: float = 0.0
    seed: int = 0
    grouping_tol: float = 1e-9
    fmt: str = "csv"

    def __post_init__(self) -> None:
        _check_p(self.p)
        if self.slices < 1:
            raise TransportError(f"slices must be at least 1, got {self.slices!r}")
        _check_tau(self.tau)
        _check_tol(self.grouping_tol)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_measure(path: str) -> DiscreteMeasure:
    try:
        return io.read_measure(path)
    except (OSError, TransportError) as exc:
        _fail(EXIT_PARSE, f"cannot read measure {path}: {exc}")


def _load_pair(source: str, target: str) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    mu = _load_measure(source)
    nu = _load_measure(target)
    if mu.dim != nu.dim:
        _fail(
            EXIT_DIMENSION,
            f"dimension mismatch: {source} has d={mu.dim}, {target} has d={nu.dim}",
        )
    return mu, nu


def _ensure_out_dir(out_dir: str) -> Path:
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        _fail(EXIT_UNWRITABLE, f"cannot write to {out_dir}: {exc}")
    return path


def _write_meta(path: Path, payload: dict) -> None:
    try:
        path.write_text(json.dumps(payload, sort_keys=True, indent=2))
    except OSError as exc:
        _fail(EXIT_UNWRITABLE, f"cannot write {path}: {exc}")


config_options = [
    click.option("--p", "p", type=float, default=2.0, show_default=True, help="Cost exponent (> 1)."),
    click.option("--slices", type=int, default=128, show_default=True, help="Number of directions L."),
    click.option("--tau", type=float, default=0.0, show_default=True, help="Direction-weight temperature."),
    click.option("--seed", type=int, default=0, show_default=True, help="RNG seed for directions."),
    click.option(
        "--grouping-tol",
        type=float,
        default=1e-9,
        show_default=True,
        help="Relative tolerance for merging coincident projections.",
    ),
    click.option(
        "--format",
        "fmt",
        type=click.Choice(["csv", "json"]),
        default="csv",
        show_default=True,
        help="Output format.",
    ),
]


def _check_lambda(_ctx, _param, lam: float) -> float:
    _check_lam(lam)
    return lam


lambda_option = click.option(
    "--lambda", "lam", type=float, default=1.0, show_default=True, callback=_check_lambda,
    help="Entropic regularizer.",
)
method_option = click.option(
    "--method", type=click.Choice(METHODS), default="est",
    show_default=True,
)


def _with_config(fn):
    for opt in reversed(config_options):
        fn = opt(fn)
    return fn


class _Main(click.Group):
    """The command group; a TransportError escaping a command exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except TransportError as exc:
            _fail(EXIT_PARSE, str(exc))


@click.group(cls=_Main)
def main() -> None:
    """Sliced transport plans and distances for discrete measures."""


@main.command()
@click.argument("source", type=click.Path())
@click.argument("target", type=click.Path())
@_with_config
@method_option
@lambda_option
@click.option("--per-slice", is_flag=True, help="Also print slice index, cost, weight rows.")
def distance(source, target, p, slices, tau, seed, grouping_tol, fmt, method, lam, per_slice):
    """Print the distance between two measure files (12 significant digits)."""
    RunConfig(p, slices, tau, seed, grouping_tol, fmt)  # checks the option values
    mu, nu = _load_pair(source, target)
    _plan, dist, detail = transport(mu, nu, method, p, slices, tau, seed, lam, grouping_tol)
    # Only the averaged plan has per-slice costs and weights.
    rows = []
    if per_slice and method == "est":
        rows = list(enumerate(zip(detail.per_slice_costs, detail.slice_weights)))
    if fmt == "json":
        payload: dict = {"distance": float(dist), "method": method, "seed": seed}
        if rows:
            payload["per_slice"] = [
                {"slice": k, "cost": float(c), "weight": float(w)} for k, (c, w) in rows
            ]
        click.echo(json.dumps(payload))
        return
    click.echo(f"{dist:.12g}")
    for k, (c, w) in rows:
        click.echo(f"{k},{c:.17g},{w:.17g}")


@main.command()
@click.argument("source", type=click.Path())
@click.argument("target", type=click.Path())
@click.argument("out_file", type=click.Path())
@_with_config
@method_option
@lambda_option
def plan(source, target, out_file, p, slices, tau, seed, grouping_tol, fmt, method, lam):
    """Compute a transport plan and write it as CSV (i,j,mass)."""
    cfg = RunConfig(p, slices, tau, seed, grouping_tol, fmt)
    mu, nu = _load_pair(source, target)
    result_plan, dist, detail = transport(mu, nu, method, p, slices, tau, seed, lam, grouping_tol)
    out_path = Path(out_file)
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        io.write_plan_csv(result_plan, out_path)
    except OSError as exc:
        _fail(EXIT_UNWRITABLE, f"cannot write {out_file}: {exc}")
    meta = {
        "command": "plan",
        "source": str(source),
        "target": str(target),
        "method": method,
        "distance": float(dist),
        "seed": cfg.seed,
        **asdict(cfg),
    }
    if method == "sinkhorn":
        meta["lambda"] = lam
        meta["marginal_error"] = float(detail)
        click.echo(f"marginal_error {detail:.17g}")
    _write_meta(out_path.with_suffix(out_path.suffix + ".meta.json"), meta)


@main.command("interpolate")
@click.argument("source", type=click.Path())
@click.argument("target", type=click.Path())
@click.argument("out_dir", type=click.Path())
@_with_config
@method_option
@lambda_option
@click.option("--steps", type=click.IntRange(min=1), default=10, show_default=True)
def interpolate_cmd(source, target, out_dir, p, slices, tau, seed, grouping_tol, fmt, method, lam, steps):
    """Write steps+1 interpolated measures t_000 ... t_<steps>."""
    cfg = RunConfig(p, slices, tau, seed, grouping_tol, fmt)
    mu, nu = _load_pair(source, target)
    out_path = _ensure_out_dir(out_dir)
    result_plan = transport(mu, nu, method, p, slices, tau, seed, lam, grouping_tol)[0]
    ext = "json" if fmt == "json" else "csv"
    try:
        for k in range(steps + 1):
            t = k / steps
            frame = interpolate(result_plan, mu, nu, t)
            io.write_measure(frame, out_path / f"t_{k:03d}.{ext}", fmt=fmt)
    except OSError as exc:
        _fail(EXIT_UNWRITABLE, f"cannot write into {out_dir}: {exc}")
    _write_meta(
        out_path / "meta.json",
        {
            "command": "interpolate",
            "source": str(source),
            "target": str(target),
            "method": method,
            "steps": steps,
            "seed": cfg.seed,
            **asdict(cfg),
        },
    )


def _write_csv_rows(path: Path, header: list[str], rows: list[list]) -> None:
    import csv as _csv

    try:
        with path.open("w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        _fail(EXIT_UNWRITABLE, f"cannot write {path}: {exc}")


def _experiment_weak_convergence(out_path: Path, cfg: RunConfig, taus, lambdas) -> None:
    mu, nu = gaussian_pair(size=50, dim=2, shift=3.0, seed=cfg.seed)
    ts = [round(0.1 * k, 1) for k in range(10)] + [0.99, 1.0]
    rows = weak_convergence_table(
        mu,
        nu,
        ts,
        slices=cfg.slices,
        taus=taus,
        lambdas=lambdas,
        seed=cfg.seed,
        p=cfg.p,
        grouping_tol=cfg.grouping_tol,
    )
    header = list(rows[0].keys())
    _write_csv_rows(
        out_path / "weak_convergence.csv",
        header,
        [[format(row[k], ".17g") for k in header] for row in rows],
    )


def _experiment_temperature_sweep(out_path: Path, cfg: RunConfig, taus) -> None:
    rng = np.random.default_rng(cfg.seed)
    n = 30
    mu = make_measure(rng.standard_normal((n, 2)), np.full(n, 1.0 / n))
    nu = make_measure(rng.standard_normal((2 * n, 2)) + [2.0, 0.0], np.full(2 * n, 0.5 / n))
    rows = []
    for tau in taus:
        plan, dist, _ = transport(mu, nu, "est", cfg.p, cfg.slices, tau, cfg.seed,
                                  grouping_tol=cfg.grouping_tol)
        rows.append([format(tau, ".17g"), format(dist, ".17g"), len(plan)])
    _write_csv_rows(out_path / "temperature_sweep.csv", ["tau", "distance", "entries"], rows)


def _experiment_embed_bench(out_path: Path, cfg: RunConfig, lam: float) -> None:
    clouds, labels = two_class_task(seed=cfg.seed)
    ref = reference_measure(size=50, dim=2, seed=cfg.seed)
    rows = []
    for name, method, tau in (("est_tau0", "est", 0.0), ("est_tau1e6", "est", 1e6),
                              ("exact", "exact", 0.0), (f"sinkhorn_lam{lam:g}", "sinkhorn", 0.0)):
        feats = embedding_features(ref, clouds, method=method, p=cfg.p, slices=cfg.slices, tau=tau,
                                   seed=cfg.seed, lam=lam, grouping_tol=cfg.grouping_tol)
        rows.append([name, format(least_squares_accuracy(feats, labels), ".17g")])
    _write_csv_rows(out_path / "embed_bench.csv", ["method", "accuracy"], rows)


@main.command()
@click.argument("name")
@click.argument("out_dir", type=click.Path())
@_with_config
@click.option("--taus", default="0,1,10", show_default=True, help="Comma-separated tau list.")
@click.option("--lambdas", default="1,10", show_default=True, help="Comma-separated lambda list.")
@click.option(
    "--lambda", "lam", type=float, default=10.0, show_default=True, callback=_check_lambda,
    help="Embedding regularizer.",
)
def experiment(name, out_dir, p, slices, tau, seed, grouping_tol, fmt, taus, lambdas, lam):
    """Run a named experiment and write plot-ready CSV tables."""
    if name not in KNOWN_EXPERIMENTS:
        _fail(
            EXIT_UNKNOWN_EXPERIMENT,
            f"unknown experiment {name!r}; known: {', '.join(KNOWN_EXPERIMENTS)}",
        )
    cfg = RunConfig(p, slices, tau, seed, grouping_tol, fmt)
    out_path = _ensure_out_dir(out_dir)
    try:
        tau_list = [float(v) for v in taus.split(",") if v.strip()]
        lambda_list = [float(v) for v in lambdas.split(",") if v.strip()]
    except ValueError as exc:
        _fail(EXIT_PARSE, f"bad numeric list: {exc}")
    if name == "weak-convergence":
        _experiment_weak_convergence(out_path, cfg, tau_list, lambda_list)
    elif name == "temperature-sweep":
        _experiment_temperature_sweep(out_path, cfg, tau_list)
    else:
        _experiment_embed_bench(out_path, cfg, lam)
    _write_meta(
        out_path / "meta.json",
        {
            "command": "experiment",
            "experiment": name,
            "taus": taus,
            "lambdas": lambdas,
            "lambda": lam,
            "seed": seed,
            **asdict(cfg),
        },
    )


if __name__ == "__main__":
    main()
