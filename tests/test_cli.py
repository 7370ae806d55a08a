"""End-to-end command-line behavior via click's test runner."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import sliced_transport
from sliced_transport import (
    est,
    est_plan_tempered,
    gaussian_pair,
    interpolate,
    io,
    make_measure,
    plan_cost,
    sample_sphere,
    sinkhorn,
    validate_coupling,
    wasserstein_exact,
)
from sliced_transport.cli import main
from util import random_pair


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def pair_files(tmp_path):
    mu, nu = random_pair(1, max_n=12, max_d=3)
    a = tmp_path / "mu.csv"
    b = tmp_path / "nu.csv"
    io.write_measure_csv(mu, a)
    io.write_measure_csv(nu, b)
    return str(a), str(b), mu, nu


def test_distance_matches_library(runner, pair_files):
    a, b, mu, nu = pair_files
    result = runner.invoke(main, ["distance", a, b, "--slices", "32", "--seed", "3"])
    assert result.exit_code == 0, result.output
    dirs = sample_sphere(32, mu.dim, 3)
    expect = est_plan_tempered(mu, nu, dirs, tau=0.0).distance
    assert result.output.strip() == f"{expect:.12g}"


def test_distance_method_exact(runner, pair_files):
    a, b, mu, nu = pair_files
    result = runner.invoke(main, ["distance", a, b, "--method", "exact"])
    assert result.exit_code == 0, result.output
    expect = wasserstein_exact(mu, nu)[1]
    assert result.output.strip() == f"{expect:.12g}"


def test_distance_per_slice_rows(runner, pair_files):
    a, b, *_ = pair_files
    result = runner.invoke(
        main, ["distance", a, b, "--slices", "8", "--per-slice"]
    )
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 + 8
    for k, line in enumerate(lines[1:]):
        idx, cost, weight = line.split(",")
        assert int(idx) == k
        assert float(weight) == 1.0 / 8.0
        assert float(cost) >= 0.0


def test_distance_json_format(runner, pair_files):
    a, b, *_ = pair_files
    result = runner.invoke(
        main,
        ["distance", a, b, "--slices", "8", "--format", "json", "--per-slice"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["method"] == "est"
    assert payload["seed"] == 0
    assert len(payload["per_slice"]) == 8


@pytest.mark.parametrize("method", ["est", "min-swgg", "exact", "sinkhorn"])
def test_distance_json_prints_seed_only_where_the_method_reads_it(runner, pair_files, method):
    a, b, *_ = pair_files
    result = runner.invoke(main, ["distance", a, b, "--slices", "8", "--method", method, "--format", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert set(payload) == {"distance", "method"} | ({"seed"} if method in ("est", "min-swgg") else set())


def test_distance_deterministic_output(runner, pair_files):
    a, b, *_ = pair_files
    args = ["distance", a, b, "--slices", "16", "--seed", "5"]
    first = runner.invoke(main, args).output
    second = runner.invoke(main, args).output
    assert first == second


def test_plan_writes_csv_and_meta(runner, pair_files, tmp_path):
    a, b, mu, nu = pair_files
    out = tmp_path / "out" / "plan.csv"
    result = runner.invoke(
        main, ["plan", a, b, str(out), "--slices", "16", "--seed", "2"]
    )
    assert result.exit_code == 0, result.output
    plan = io.read_plan_csv(out, source_size=len(mu), target_size=len(nu))
    ok, dev = validate_coupling(plan, mu, nu)
    assert ok, dev
    meta = json.loads((tmp_path / "out" / "plan.csv.meta.json").read_text())
    assert meta["seed"] == 2
    assert meta["method"] == "est"
    assert meta["slices"] == 16


def test_plan_sinkhorn_reports_marginal_error(runner, pair_files, tmp_path):
    a, b, *_ = pair_files
    out = tmp_path / "plan.csv"
    result = runner.invoke(
        main, ["plan", a, b, str(out), "--method", "sinkhorn", "--lambda", "1.0"]
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("marginal_error ")
    err = float(result.output.split()[1])
    meta = json.loads((tmp_path / "plan.csv.meta.json").read_text())
    assert meta["marginal_error"] == err
    assert meta["lambda"] == 1.0


@pytest.mark.parametrize("method, own_keys", [
    ("est", {"slices", "seed", "tau", "grouping_tol"}),
    ("min-swgg", {"slices", "seed", "grouping_tol"}),
    ("exact", set()),
    ("sinkhorn", {"lambda", "marginal_error"}),
])
def test_plan_sidecar_records_what_the_method_read(runner, pair_files, tmp_path, method, own_keys):
    a, b, *_ = pair_files
    out = tmp_path / "plan.csv"
    result = runner.invoke(main, ["plan", a, b, str(out), "--method", method, "--tau", "3"])
    assert result.exit_code == 0, result.output
    meta = json.loads((tmp_path / "plan.csv.meta.json").read_text())
    assert set(meta) == {"command", "source", "target", "method", "distance", "p"} | own_keys
    if "tau" in own_keys:
        assert meta["tau"] == 3.0


def test_interpolate_sidecar_records_lambda(runner, pair_files, tmp_path):
    a, b, *_ = pair_files
    out = tmp_path / "frames"
    args = ["interpolate", a, b, str(out), "--method", "sinkhorn", "--lambda", "5", "--steps", "2"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads((out / "meta.json").read_text()) == {
        "command": "interpolate", "source": a, "target": b, "method": "sinkhorn", "steps": 2,
        "fmt": "csv", "p": 2.0, "lambda": 5.0,
    }


def test_interpolate_writes_frames(runner, pair_files, tmp_path):
    a, b, mu, nu = pair_files
    out = tmp_path / "frames"
    result = runner.invoke(
        main,
        ["interpolate", a, b, str(out), "--steps", "4", "--slices", "8"],
    )
    assert result.exit_code == 0, result.output
    files = sorted(f.name for f in out.glob("t_*.csv"))
    assert files == [f"t_{k:03d}.csv" for k in range(5)]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["steps"] == 4
    # each frame is a valid measure of the shared dimension
    for name in files:
        frame = io.read_measure(out / name)
        assert frame.dim == mu.dim


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_interpolate_frames_match_library(runner, pair_files, tmp_path, fmt):
    a, b, *_ = pair_files
    out = tmp_path / "frames"
    args = ["interpolate", a, b, str(out), "--steps", "4", "--slices", "8", "--seed", "5", "--format", fmt]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    mu, nu = io.read_measure(a), io.read_measure(b)
    plan = est_plan_tempered(mu, nu, sample_sphere(8, mu.dim, 5)).plan
    assert sorted(f.name for f in out.glob("t_*")) == [f"t_{k:03d}.{fmt}" for k in range(5)]
    for k in range(5):
        frame = io.read_measure(out / f"t_{k:03d}.{fmt}")
        want = interpolate(plan, mu, nu, k / 4)
        np.testing.assert_array_equal(frame.atoms, want.atoms)
        np.testing.assert_array_equal(frame.weights, want.weights)


def test_dimension_mismatch_exit_code(runner, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    io.write_measure_csv(make_measure([(0.0, 0.0)], [1.0]), a)
    io.write_measure_csv(make_measure([(0.0,)], [1.0]), b)
    result = runner.invoke(main, ["distance", str(a), str(b)])
    assert result.exit_code == 3
    assert "dimension mismatch" in result.output


def test_unparsable_input_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,measure\n1,2,3\n")
    ok = tmp_path / "ok.csv"
    io.write_measure_csv(make_measure([(0.0,)], [1.0]), ok)
    result = runner.invoke(main, ["distance", str(bad), str(ok)])
    assert result.exit_code == 2
    result = runner.invoke(main, ["distance", str(tmp_path / "missing.csv"), str(ok)])
    assert result.exit_code == 2


def test_non_finite_atoms_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("w,x1\n0.5,0.0\n0.5,nan\n")
    ok = tmp_path / "ok.csv"
    io.write_measure_csv(make_measure([(0.0,)], [1.0]), ok)
    result = runner.invoke(main, ["distance", str(bad), str(ok)])
    assert result.exit_code == 2
    assert "finite" in result.output


def test_solver_errors_exit_2_with_a_message(runner, pair_files, tmp_path):
    a, b, *_ = pair_files
    result = runner.invoke(main, ["distance", a, b, "--method", "sinkhorn", "--lambda", "-1"])
    assert result.exit_code == 2
    assert result.output.startswith("error: lam must be positive")
    big_a, big_b = tmp_path / "big_a.csv", tmp_path / "big_b.csv"
    io.write_measure_csv(make_measure(np.arange(501.0), np.full(501, 1 / 501)), big_a)
    io.write_measure_csv(make_measure(np.arange(500.0), np.full(500, 1 / 500)), big_b)
    result = runner.invoke(main, ["distance", str(big_a), str(big_b), "--method", "exact"])
    assert result.exit_code == 2
    assert result.output.startswith("error: 501 x 500 exceeds")


def test_unwritable_output_exit_code(runner, pair_files, tmp_path):
    a, b, *_ = pair_files
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file, not a directory")
    result = runner.invoke(main, ["interpolate", a, b, str(blocker), "--slices", "4"])
    assert result.exit_code == 4


def test_unknown_experiment_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["experiment", "no-such-study", str(tmp_path)])
    assert result.exit_code == 5
    assert "unknown experiment" in result.output


def test_option_values_are_checked_before_the_experiment_name(runner, tmp_path):
    # Option values are validated while click parses them, before any command body.
    for option, value, name in [("--lambda", "nan", "lam"), ("--p", "nan", "p"),
                                ("--slices", "0", "slices"), ("--grouping-tol", "nan", "grouping_tol")]:
        result = runner.invoke(main, ["experiment", "no-such-study", str(tmp_path), option, value])
        assert result.exit_code == 2, option
        assert result.output.startswith(f"error: {name} must"), option
        assert len(result.output.splitlines()) == 1, option


def test_lambda_is_checked_whatever_the_method(runner, pair_files):
    a, b, *_ = pair_files
    result = runner.invoke(main, ["distance", a, b, "--method", "est", "--lambda", "0"])
    assert result.exit_code == 2
    assert result.output.startswith("error: lam must")


def test_experiment_temperature_sweep(runner, tmp_path):
    out = tmp_path / "sweep"
    result = runner.invoke(
        main,
        [
            "experiment",
            "temperature-sweep",
            str(out),
            "--slices",
            "16",
            "--taus",
            "0,1,1e6",
        ],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "temperature_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "tau,distance,entries"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    distances = [float(r[1]) for r in rows]
    # heavier weighting of cheap slices never increases the distance
    assert distances[0] >= distances[1] >= distances[2]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["experiment"] == "temperature-sweep"
    assert set(meta) == {"command", "experiment", "taus", "lambdas", "lambda", "seed", "p", "slices",
                         "grouping_tol"}


def test_experiment_weak_convergence_small(runner, tmp_path):
    out = tmp_path / "weak"
    result = runner.invoke(
        main,
        [
            "experiment",
            "weak-convergence",
            str(out),
            "--slices",
            "8",
            "--taus",
            "0",
            "--lambdas",
            "1",
        ],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "weak_convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "t,est_tau_0,w_exact,sinkhorn_lam_1,product"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 12
    w_exact = [r[2] for r in rows]
    assert all(a > b for a, b in zip(w_exact[:-1], w_exact[1:]))
    assert w_exact[-1] == pytest.approx(0.0, abs=1e-9)


def test_experiment_embed_bench(runner, tmp_path, monkeypatch):
    # Accuracy is 1 at any grouping tolerance here, so a spy shows that the
    # option reaches every EST solve: two temperatures times 40 clouds.
    seen = []
    solve = est.est_plan_tempered

    def spy(*args, **kwargs):
        seen.append(kwargs["grouping_tol"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(est, "est_plan_tempered", spy)
    out = tmp_path / "embed"
    result = runner.invoke(
        main, ["experiment", "embed-bench", str(out), "--slices", "8", "--grouping-tol", "0.5"]
    )
    assert result.exit_code == 0, result.output
    lines = (out / "embed_bench.csv").read_text().strip().splitlines()
    assert lines[0] == "method,accuracy"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["est_tau0", "est_tau1e6", "exact", "sinkhorn_lam10"]
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["experiment"] == "embed-bench" and meta["grouping_tol"] == 0.5
    assert seen == [0.5] * 80


@pytest.mark.parametrize("name", ["weak-convergence", "temperature-sweep", "embed-bench"])
@pytest.mark.parametrize("option, value, message", [
    ("--taus", "nan", "error: tau must be a finite number >= 0, got nan"),
    ("--taus", "0,-1", "error: tau must be a finite number >= 0, got -1.0"),
    ("--lambdas", "1,0", "error: lam must be positive and finite, got 0.0"),
    ("--taus", "0,x", "error: bad numeric list: could not convert string to float: 'x'"),
])
def test_experiment_lists_are_checked_before_anything_is_written(runner, tmp_path, name, option, value,
                                                                 message):
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", name, str(out), "--slices", "4", option, value])
    assert result.exit_code == 2
    assert result.output == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["weak-convergence", "temperature-sweep", "embed-bench"])
@pytest.mark.parametrize("option, value, repeated", [("--taus", "0,1,0", "0.0"), ("--taus", "1,1e0", "1.0"),
                                                     ("--lambdas", "10, 10", "10.0")])
def test_experiment_lists_reject_a_repeated_value(runner, tmp_path, name, option, value, repeated):
    out = tmp_path / "out"
    result = runner.invoke(main, ["experiment", name, str(out), "--slices", "4", option, value])
    assert result.exit_code == 2
    assert result.output == f"error: {option} lists {repeated} more than once\n"
    assert not out.exists()


def test_rejects_bad_option_values(runner, pair_files):
    a, b, *_ = pair_files
    assert runner.invoke(main, ["distance", a, b, "--p", "1.0"]).exit_code != 0
    assert runner.invoke(main, ["distance", a, b, "--slices", "0"]).exit_code != 0
    assert runner.invoke(main, ["distance", a, b, "--tau", "-1"]).exit_code != 0


@pytest.mark.parametrize("option, value", [("--p", "nan"), ("--p", "inf"), ("--tau", "nan"),
                                           ("--tau", "inf"), ("--grouping-tol", "nan"),
                                           ("--grouping-tol", "inf"), ("--lambda", "nan"),
                                           ("--lambda", "inf")])
def test_rejects_non_finite_option_values(runner, pair_files, option, value):
    a, b, *_ = pair_files
    result = runner.invoke(main, ["distance", a, b, option, value])
    assert result.exit_code == 2
    assert result.output.startswith("error: ")
    assert len(result.output.splitlines()) == 1


SOLVER_OPTIONS_HELP = """\
  --p FLOAT                       Cost exponent (> 1).  [default: 2.0]
  --slices INTEGER                Number of directions L.  [default: 128]
  --tau FLOAT                     Direction-weight temperature.  [default: 0.0]
  --seed INTEGER                  RNG seed for directions.  [default: 0]
  --grouping-tol FLOAT            Relative tolerance for merging coincident
                                  projections.  [default: 1e-09]
"""
FORMAT_HELP = "  --format [csv|json]             Output format.  [default: csv]\n"
METHOD_HELP = """\
  --method [est|min-swgg|exact|sinkhorn]
                                  [default: est]
  --lambda FLOAT                  Entropic regularizer.  [default: 1.0]
"""
EXPERIMENT_OPTIONS_HELP = """\
  --p FLOAT             Cost exponent (> 1).  [default: 2.0]
  --slices INTEGER      Number of directions L.  [default: 128]
  --seed INTEGER        RNG seed for directions.  [default: 0]
  --grouping-tol FLOAT  Relative tolerance for merging coincident projections.
                        [default: 1e-09]
  --taus TEXT           Comma-separated tau list.  [default: 0,1,10]
  --lambdas TEXT        Comma-separated lambda list.  [default: 1,10]
  --lambda FLOAT        Embedding regularizer.  [default: 10.0]
  --help                Show this message and exit.
"""
HELP_LINE = "  --help                          Show this message and exit.\n"


@pytest.mark.parametrize("command, arguments, summary, options", [
    ("distance", "SOURCE TARGET",
     "Print the distance between two measure files (12 significant digits).",
     SOLVER_OPTIONS_HELP + FORMAT_HELP + METHOD_HELP
     + "  --per-slice                     Also print slice index, cost, weight rows.\n" + HELP_LINE),
    ("plan", "SOURCE TARGET OUT_FILE",
     "Compute a transport plan and write it as CSV (i,j,mass).",
     SOLVER_OPTIONS_HELP + METHOD_HELP + HELP_LINE),
    ("interpolate", "SOURCE TARGET OUT_DIR",
     "Write steps+1 interpolated measures t_000 ... t_<steps>.",
     SOLVER_OPTIONS_HELP + FORMAT_HELP + METHOD_HELP
     + "  --steps INTEGER RANGE           [default: 10; x>=1]\n" + HELP_LINE),
    ("experiment", "NAME OUT_DIR",
     "Run a named experiment and write plot-ready CSV tables.", EXPERIMENT_OPTIONS_HELP),
])
def test_solver_commands_help_text(runner, command, arguments, summary, options):
    # Each command lists the options it reads: plan writes CSV only, and the
    # experiments take no --tau and no --format.
    result = runner.invoke(main, [command, "--help"], terminal_width=80)
    assert result.exit_code == 0
    assert result.output == (
        f"Usage: main {command} [OPTIONS] {arguments}\n\n  {summary}\n\nOptions:\n{options}"
    )


@pytest.mark.parametrize("options", [["--method", "est"], ["--method", "min-swgg"],
                                     ["--method", "exact"], ["--method", "sinkhorn"],
                                     ["--tau", "1"]])
def test_overflowing_costs_exit_2_with_one_error_line(runner, tmp_path, options):
    mu, nu = gaussian_pair(size=20, dim=2, shift=3.0, seed=0)
    a, b = tmp_path / "mu.csv", tmp_path / "nu.csv"
    io.write_measure_csv(mu, a)
    io.write_measure_csv(nu, b)
    result = runner.invoke(main, ["distance", str(a), str(b), "--p", "2000", "--slices", "8", *options])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and "overflow" in result.output
    assert result.output.rstrip().endswith("at p=2000.0")
    assert len(result.output.splitlines()) == 1


def _fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports this package."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sliced_transport.__file__)))
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


@pytest.mark.parametrize("module", ["sliced_transport", "sliced_transport.cli"])
def test_cold_import_loads_no_scipy(module):
    proc = _fresh_python("-c", f"import sys, {module}; print({_SCIPY_MODULES})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("method", ["est", "min-swgg"])
def test_cold_sliced_distance_loads_no_scipy(pair_files, method):
    a, b, *_ = pair_files
    code = ("import sys; from sliced_transport.cli import main; "
            f"main({['distance', a, b, '--method', method]!r}, standalone_mode=False); "
            f"print({_SCIPY_MODULES})")
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("method", ["exact", "sinkhorn"])
def test_cold_reference_distance_matches_library(pair_files, method):
    a, b, mu, nu = pair_files
    proc = _fresh_python("-m", "sliced_transport.cli", "distance", a, b, "--method", method)
    assert proc.returncode == 0, proc.stderr
    if method == "exact":
        expect = wasserstein_exact(mu, nu)[1]
    else:
        expect = plan_cost(sinkhorn(mu, nu)[0], mu, nu)
    assert proc.stdout.strip() == f"{expect:.12g}"
