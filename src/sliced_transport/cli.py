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


def _check_slices(slices: int) -> None:
    if slices < 1:
        raise TransportError(f"slices must be at least 1, got {slices!r}")


def _checked(check):
    """A click callback running a library check: a bad value exits 2 before any command runs."""

    def callback(_ctx, _param, value):
        check(value)
        return value

    return callback


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _checked_list(check):
    """A click callback for a comma-separated list: each value checked, none repeated.

    It returns the string unchanged, which is what the sidecar records.
    """

    def callback(_ctx, param, value):
        try:
            values = _float_list(value)
        except ValueError as exc:
            raise TransportError(f"bad numeric list: {exc}") from None
        seen = set()
        for v in values:
            check(v)
            if v in seen:
                raise TransportError(f"{param.opts[0]} lists {v!r} more than once")
            seen.add(v)
        return value

    return callback


# Keyed by parameter name: the solver options are `transport`'s keywords.
_OPTIONS = {
    "p": click.option("--p", "p", type=float, default=2.0, show_default=True,
                      callback=_checked(_check_p), help="Cost exponent (> 1)."),
    "slices": click.option("--slices", type=int, default=128, show_default=True,
                           callback=_checked(_check_slices), help="Number of directions L."),
    "tau": click.option("--tau", type=float, default=0.0, show_default=True,
                        callback=_checked(_check_tau), help="Direction-weight temperature."),
    "seed": click.option("--seed", type=int, default=0, show_default=True,
                         help="RNG seed for directions."),
    "grouping_tol": click.option(
        "--grouping-tol", type=float, default=1e-9, show_default=True, callback=_checked(_check_tol),
        help="Relative tolerance for merging coincident projections.",
    ),
    "fmt": click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                        show_default=True, help="Output format."),
    "method": click.option("--method", type=click.Choice(METHODS), default="est", show_default=True),
    "lam": click.option("--lambda", "lam", type=float, default=1.0, show_default=True,
                        callback=_checked(_check_lam), help="Entropic regularizer."),
}


def _options(*names):
    """Add the named options to a command, listed in this order in its help."""

    def apply(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn

    return apply


def _sidecar(options: dict, names) -> dict:
    """The named options under their sidecar keys: ``lam`` is recorded as ``lambda``."""
    return {"lambda" if name == "lam" else name: options[name] for name in names}


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
@_options("p", "slices", "tau", "seed", "grouping_tol", "fmt", "method", "lam")
@click.option("--per-slice", is_flag=True, help="Also print slice index, cost, weight rows.")
def distance(source, target, fmt, method, per_slice, **options):
    """Print the distance between two measure files (12 significant digits)."""
    mu, nu = _load_pair(source, target)
    _plan, dist, detail = transport(mu, nu, method, **options)
    # Only the averaged plan has per-slice costs and weights.
    rows = []
    if per_slice and method == "est":
        rows = list(enumerate(zip(detail.per_slice_costs, detail.slice_weights)))
    if fmt == "json":
        payload: dict = {"distance": float(dist), "method": method}
        if "seed" in METHODS[method]:
            payload["seed"] = options["seed"]
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
@_options("p", "slices", "tau", "seed", "grouping_tol", "method", "lam")
def plan(source, target, out_file, method, **options):
    """Compute a transport plan and write it as CSV (i,j,mass)."""
    mu, nu = _load_pair(source, target)
    result_plan, dist, detail = transport(mu, nu, method, **options)
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
        **_sidecar(options, ("p", *METHODS[method])),
    }
    if method == "sinkhorn":
        meta["marginal_error"] = float(detail)
        click.echo(f"marginal_error {detail:.17g}")
    _write_meta(out_path.with_suffix(out_path.suffix + ".meta.json"), meta)


@main.command("interpolate")
@click.argument("source", type=click.Path())
@click.argument("target", type=click.Path())
@click.argument("out_dir", type=click.Path())
@_options("p", "slices", "tau", "seed", "grouping_tol", "fmt", "method", "lam")
@click.option("--steps", type=click.IntRange(min=1), default=10, show_default=True)
def interpolate_cmd(source, target, out_dir, fmt, method, steps, **options):
    """Write steps+1 interpolated measures t_000 ... t_<steps>."""
    mu, nu = _load_pair(source, target)
    out_path = _ensure_out_dir(out_dir)
    result_plan = transport(mu, nu, method, **options)[0]
    try:
        for k in range(steps + 1):
            frame = interpolate(result_plan, mu, nu, k / steps)
            io.write_measure(frame, out_path / f"t_{k:03d}.{fmt}", fmt=fmt)
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
            "fmt": fmt,
            **_sidecar(options, ("p", *METHODS[method])),
        },
    )


# Each experiment takes the parsed --taus and --lambdas lists and the
# options, and returns its table: (file name, header, columns).  A column's
# dtype sets how it is printed.


def _weak_convergence(taus, lambdas, p, slices, seed, grouping_tol, lam):
    mu, nu = gaussian_pair(size=50, dim=2, shift=3.0, seed=seed)
    ts = [round(0.1 * k, 1) for k in range(10)] + [0.99, 1.0]
    rows = weak_convergence_table(mu, nu, ts, slices=slices, taus=taus, lambdas=lambdas, seed=seed,
                                  p=p, grouping_tol=grouping_tol)
    header = list(rows[0])
    return "weak_convergence.csv", header, [np.array([row[k] for row in rows]) for k in header]


def _temperature_sweep(taus, lambdas, p, slices, seed, grouping_tol, lam):
    rng = np.random.default_rng(seed)
    n = 30
    mu = make_measure(rng.standard_normal((n, 2)), np.full(n, 1.0 / n))
    nu = make_measure(rng.standard_normal((2 * n, 2)) + [2.0, 0.0], np.full(2 * n, 0.5 / n))
    runs = [transport(mu, nu, "est", p, slices, tau, seed, grouping_tol=grouping_tol)
            for tau in taus]
    return ("temperature_sweep.csv", ["tau", "distance", "entries"],
            [np.array(taus, dtype=float), np.array([dist for _, dist, _ in runs]),
             np.array([len(plan) for plan, _, _ in runs], dtype=int)])


def _embed_bench(taus, lambdas, p, slices, seed, grouping_tol, lam):
    clouds, labels = two_class_task(seed=seed)
    ref = reference_measure(size=50, dim=2, seed=seed)
    names, accuracies = [], []
    for name, method, tau in (("est_tau0", "est", 0.0), ("est_tau1e6", "est", 1e6),
                              ("exact", "exact", 0.0), (f"sinkhorn_lam{lam:g}", "sinkhorn", 0.0)):
        feats = embedding_features(ref, clouds, method=method, p=p, slices=slices, tau=tau,
                                   seed=seed, lam=lam, grouping_tol=grouping_tol)
        names.append(name)
        accuracies.append(least_squares_accuracy(feats, labels))
    return "embed_bench.csv", ["method", "accuracy"], [np.array(names), np.array(accuracies)]


EXPERIMENTS = {
    "weak-convergence": _weak_convergence,
    "temperature-sweep": _temperature_sweep,
    "embed-bench": _embed_bench,
}


@main.command()
@click.argument("name")
@click.argument("out_dir", type=click.Path())
@_options("p", "slices", "seed", "grouping_tol")
@click.option("--taus", default="0,1,10", show_default=True, callback=_checked_list(_check_tau),
              help="Comma-separated tau list.")
@click.option("--lambdas", default="1,10", show_default=True, callback=_checked_list(_check_lam),
              help="Comma-separated lambda list.")
@click.option(
    "--lambda", "lam", type=float, default=10.0, show_default=True, callback=_checked(_check_lam),
    help="Embedding regularizer.",
)
def experiment(name, out_dir, taus, lambdas, **options):
    """Run a named experiment and write plot-ready CSV tables."""
    if name not in EXPERIMENTS:
        _fail(
            EXIT_UNKNOWN_EXPERIMENT,
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}",
        )
    out_path = _ensure_out_dir(out_dir)
    file_name, header, columns = EXPERIMENTS[name](_float_list(taus), _float_list(lambdas), **options)
    try:
        io._write_rows(out_path / file_name, header, columns)
    except OSError as exc:
        _fail(EXIT_UNWRITABLE, f"cannot write {out_path / file_name}: {exc}")
    _write_meta(
        out_path / "meta.json",
        {
            "command": "experiment",
            "experiment": name,
            "taus": taus,
            "lambdas": lambdas,
            **_sidecar(options, options),
        },
    )


if __name__ == "__main__":
    main()
