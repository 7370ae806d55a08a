"""Round-trip and rejection behavior of the file formats."""

import csv
import json
import tracemalloc
from io import StringIO

import numpy as np
import pytest

from sliced_transport import (
    DiscreteMeasure,
    TransportError,
    TransportPlan,
    io,
    make_measure,
    product_coupling,
)
from util import random_pair


def test_measure_csv_round_trip_exact(tmp_path):
    for seed in range(8):
        mu, _ = random_pair(seed, max_n=20)
        path = tmp_path / f"m{seed}.csv"
        io.write_measure_csv(mu, path)
        back = io.read_measure_csv(path)
        np.testing.assert_array_equal(mu.atoms, back.atoms)
        np.testing.assert_array_equal(mu.weights, back.weights)


def test_measure_json_round_trip_exact(tmp_path):
    mu, _ = random_pair(5, max_n=15)
    path = tmp_path / "m.json"
    io.write_measure_json(mu, path)
    back = io.read_measure_json(path)
    np.testing.assert_array_equal(mu.atoms, back.atoms)
    np.testing.assert_array_equal(mu.weights, back.weights)


AWKWARD = [5e-324, -0.0, 1e300, 1e16, 1 / 3, 0.1, -2.5e-10]


def awkward_measure(dim):
    """Seven atoms; every coordinate column holds each awkward value once."""
    atoms = np.stack([np.roll(AWKWARD, k) for k in range(dim)], axis=1)
    weights = np.array([5e-324, 1 / 3, 0.1, 2.5e-10, 1e-16, 0.2, 0.0])
    weights[-1] = 1.0 - weights.sum()
    return DiscreteMeasure(atoms, weights)


@pytest.mark.parametrize("rows_per_block", [None, 1, 2])
@pytest.mark.parametrize("dim", [1, 3, 5000])
def test_measure_csv_bytes_match_csv_writer(tmp_path, monkeypatch, dim, rows_per_block):
    measure = awkward_measure(dim)
    if rows_per_block is not None:
        monkeypatch.setattr(io, "_CSV_BLOCK_FIELDS", rows_per_block * (dim + 1))
    elif dim == 5000:
        # The default budget splits this measure into blocks, the last partial.
        assert len(measure) % (io._CSV_BLOCK_FIELDS // (dim + 1)) != 0
    path = tmp_path / "measure.csv"
    io.write_measure_csv(measure, path)
    want = StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["w"] + [f"x{k}" for k in range(1, dim + 1)])
    for w, atom in zip(measure.weights, measure.atoms):
        writer.writerow([format(float(x), ".17g") for x in (w, *atom)])
    assert path.read_bytes() == want.getvalue().encode()


@pytest.mark.parametrize("dim", [1, 3])
def test_measure_json_bytes_match_per_element_floats(tmp_path, dim):
    measure = awkward_measure(dim)
    path = tmp_path / "measure.json"
    io.write_measure_json(measure, path)
    want = json.dumps({
        "weights": [float(w) for w in measure.weights],
        "atoms": [[float(c) for c in atom] for atom in measure.atoms],
    })
    assert path.read_text() == want


def test_measure_csv_memory_is_bounded_by_the_block(tmp_path):
    # Formatting all 1M values at once would take tens of MiB.
    rng = np.random.default_rng(0)
    measure = make_measure(rng.standard_normal((2000, 500)), np.full(2000, 1 / 2000))
    tracemalloc.start()
    try:
        io.write_measure_csv(measure, tmp_path / "wide.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_read_measure_dispatches_on_extension(tmp_path):
    mu = make_measure([(1.0, 2.0)], [1.0])
    io.write_measure(mu, tmp_path / "a.csv")
    io.write_measure(mu, tmp_path / "a.json")
    for name in ("a.csv", "a.json"):
        back = io.read_measure(tmp_path / name)
        np.testing.assert_array_equal(back.atoms, mu.atoms)


def test_write_measure_explicit_fmt_overrides_extension(tmp_path):
    mu = make_measure([(1.0,)], [1.0])
    path = tmp_path / "odd.dat"
    io.write_measure(mu, path, fmt="json")
    back = io.read_measure_json(path)
    np.testing.assert_array_equal(back.atoms, mu.atoms)


def test_measure_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("weight,x1\n1.0,0.0\n")
    with pytest.raises(TransportError):
        io.read_measure_csv(path)


def test_measure_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("w,x1,x2\n0.5,0.0,0.0\n0.5,1.0\n")
    with pytest.raises(TransportError):
        io.read_measure_csv(path)


def test_measure_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("w,x1\noops,0.0\n")
    with pytest.raises(TransportError):
        io.read_measure_csv(path)


def test_measure_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(TransportError):
        io.read_measure_csv(path)


@pytest.mark.parametrize("text, lineno, message", [
    ("w,x1,x2\n0.5,0.0,0.0\n0.5,1.0\n", 3, "expected 3 fields"),
    ("w,x1\n0.5,0.0,1.0\n0.5,1.0,2.0\n", 2, "expected 2 fields"),
    ("w,x1\n0.5,0.0\n\n0.5,abc\n", 4, "could not convert string to float: 'abc'"),
    ("w,x1\n0.5,0x10\n0.5,1,2\n", 2, "could not convert string to float: '0x10'"),
])
def test_measure_csv_error_names_the_first_bad_line(tmp_path, text, lineno, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(TransportError) as info:
        io.read_measure_csv(path)
    assert str(info.value) == f"{path}:{lineno}: {message}"


def test_measure_json_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(TransportError):
        io.read_measure_json(path)
    path.write_text("{not json")
    with pytest.raises(TransportError):
        io.read_measure_json(path)


# ---------------------------------------------------------------------------
# plans


def test_plan_csv_round_trip(tmp_path):
    mu, nu = random_pair(3, max_n=10)
    plan = product_coupling(mu, nu)
    path = tmp_path / "plan.csv"
    io.write_plan_csv(plan, path)
    back = io.read_plan_csv(path, source_size=len(mu), target_size=len(nu))
    np.testing.assert_array_equal(plan.i, back.i)
    np.testing.assert_array_equal(plan.j, back.j)
    np.testing.assert_array_equal(plan.mass, back.mass)


@pytest.mark.parametrize("rows_per_block", [None, 2])
def test_plan_csv_bytes_match_csv_writer(tmp_path, monkeypatch, rows_per_block):
    if rows_per_block is not None:
        monkeypatch.setattr(io, "_CSV_BLOCK_FIELDS", 3 * rows_per_block)
    plan = TransportPlan(3, 4, [0, 1, 2, 2], [3, 0, 2, 3], [5e-324, 1e-300, 1 / 3, 0.1])
    path = tmp_path / "plan.csv"
    io.write_plan_csv(plan, path)
    want = StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["i", "j", "mass"])
    for i, j, m in zip(plan.i, plan.j, plan.mass):
        writer.writerow([int(i), int(j), format(float(m), ".17g")])
    assert path.read_bytes() == want.getvalue().encode()


def test_plan_csv_sizes_default_to_max_index(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("i,j,mass\n0,0,0.5\n2,1,0.5\n")
    plan = io.read_plan_csv(path)
    assert plan.source_size == 3
    assert plan.target_size == 2


def test_plan_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("a,b,c\n0,0,1.0\n")
    with pytest.raises(TransportError):
        io.read_plan_csv(path)


def test_plan_csv_rejects_empty_body(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("i,j,mass\n")
    with pytest.raises(TransportError):
        io.read_plan_csv(path)


@pytest.mark.parametrize("text, lineno, message", [
    ("i,j,mass\n0,0,0.5\n1,1\n", 3, "expected 3 fields"),
    ("i,j,mass\n0,0,0.5,1\n1,1,0.5,1\n", 2, "expected 3 fields"),
    ("i,j,mass\n0,0,0.5\n\n1.0,1,0.5\n", 4, "invalid literal for int() with base 10: '1.0'"),
    ("i,j,mass\n0,0,0.5\n1,1,half\n", 3, "could not convert string to float: 'half'"),
])
def test_plan_csv_error_names_the_first_bad_line(tmp_path, text, lineno, message):
    path = tmp_path / "plan.csv"
    path.write_text(text)
    with pytest.raises(TransportError) as info:
        io.read_plan_csv(path)
    assert str(info.value) == f"{path}:{lineno}: {message}"


def test_plan_csv_rejects_indices_beyond_int64(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text(f"i,j,mass\n{2**70},0,1.0\n")
    with pytest.raises(TransportError, match="int64"):
        io.read_plan_csv(path)
