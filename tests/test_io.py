"""Round-trip and rejection behavior of the file formats."""

import csv
import json
import math
import re
import tracemalloc
from decimal import Decimal
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliced_transport import (
    DiscreteMeasure,
    TransportError,
    TransportPlan,
    io,
    make_measure,
    product_coupling,
)
from util import non_utf8_files, random_pair


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


@pytest.mark.parametrize("values_per_block", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 3])
def test_measure_json_blocks_join_to_the_same_bytes(tmp_path, monkeypatch, dim, values_per_block):
    measure = awkward_measure(dim)
    io.write_measure_json(measure, tmp_path / "whole.json")
    monkeypatch.setattr(io, "_CSV_BLOCK_FIELDS", values_per_block)
    io.write_measure_json(measure, tmp_path / "blocks.json")
    assert (tmp_path / "blocks.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


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


def g17_strings(values):
    chars = io._g17_bytes(np.array(values, dtype=float))
    return [field[field != 0].tobytes().decode() for field in chars.T]


FAST = st.floats(io._FAST_MIN, io._FAST_MAX, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), FAST, FAST.map(lambda v: -v)),
                min_size=1, max_size=64))
def test_g17_formatter_equals_format(values):
    assert g17_strings(values) == [format(v, ".17g") for v in values]


def g17_edge_values():
    powers = [10.0**k for k in range(-12, 18)] + [1e-320, 1e-300, 1e300, 1e308]
    edges = [io._FAST_MIN, io._FAST_MAX, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308]
    ties = [131073 / 2**17, 131075 / 2**17, 43 / 2**22, 45 / 2**22]
    values = [0.0] + ties
    for v in powers + edges:
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    return values + [-v for v in values]


def test_g17_formatter_edge_table():
    values = g17_edge_values()
    assert g17_strings(values) == [format(v, ".17g") for v in values]


def test_g17_edge_table_holds_exact_ties_at_the_18th_digit():
    # Each tie's exact decimal has 18 significant digits, the last a 5; the
    # 17th is even in one of each pair (rounds down) and odd in the other.
    for v, rounds_up in [(131073 / 2**17, False), (131075 / 2**17, True), (43 / 2**22, True),
                         (45 / 2**22, False)]:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5 and digits[-2] % 2 == rounds_up
        assert (Decimal(format(v, ".17g")) > Decimal(v)) == rounds_up


def test_g17_formatter_non_finite():
    assert g17_strings([np.nan, np.inf, -np.inf]) == ["nan", "inf", "-inf"]


def test_int_columns_print_their_digits():
    values = [0, 7, -7, 10, 99, 2**53 + 1, 2**63 - 1, -(2**63)]
    chars = io._int_bytes(np.array(values, dtype=np.int64))
    assert [field[field != 0].tobytes().decode() for field in chars.T] == [str(v) for v in values]


def read_outcome(reader, path, monkeypatch, loadtxt):
    """A reader's result as comparable bits or its error message, and whether np.loadtxt returned a table.

    With ``loadtxt`` false, ``np.loadtxt`` refuses every body, so the row
    reader reads it.
    """
    real, tables = np.loadtxt, []

    def spy(*args, **kwargs):
        if not loadtxt:
            raise ValueError("refused")
        tables.append(real(*args, **kwargs))
        return tables[-1]

    with monkeypatch.context() as patch:
        patch.setattr(io.np, "loadtxt", spy)
        try:
            result = reader(path)
        except TransportError as exc:
            result = exc
    if isinstance(result, TransportError):
        outcome = "error", str(result)
    elif isinstance(result, DiscreteMeasure):
        outcome = "measure", result.atoms.tobytes(), result.weights.tobytes()
    else:
        outcome = ("plan", result.source_size, result.target_size, result.i.tobytes(),
                   result.j.tobytes(), result.mass.tobytes())
    return outcome, bool(tables)


# (reader, body below the header, whether np.loadtxt parses it); the line
# reader decides what every body means.
READER_CASES = [
    (io.read_measure_csv, "0.5,1.0\n0.5,2.0\n", True),
    (io.read_measure_csv, "1.0,3.0\n", True),
    (io.read_measure_csv, "", False),
    (io.read_measure_csv, "0.5,1#2\n0.5,2.0\n", False),
    (io.read_measure_csv, '"0.5",1.0\n0.5,"2.0"\n', False),
    (io.read_measure_csv, "0.5,1.0\n\n\n0.5,2.0\n", True),
    (io.read_measure_csv, "0.5,1.0\n   \n0.5,2.0\n", False),
    (io.read_measure_csv, "0.5,1.0\n0.5,2.0\n  ", False),
    (io.read_measure_csv, "0.5,1_0\n0.5,2.0\n", False),
    (io.read_measure_csv, "0.5,1.0,\n0.5,2.0,\n", False),
    (io.read_measure_csv, " 0.5 , +1e5 \n.5,5.\n", True),
    (io.read_measure_csv, "0.5,-0.0\r\n0.5,2.0\r\n", True),
    (io.read_measure_csv, "0.5,1.0\r0.5,2.0\r", True),
    (io.read_measure_csv, "0.5,inf\n0.5,nan\n", True),
    (io.read_measure_csv, "0.5,1.0,2.0\n0.5,2.0,3.0\n", False),
    (io.read_measure_csv, "0.5,\x1c1.0\n0.5,2.0\x1f\n", False),
    (io.read_measure_csv, "0.5,\u0661\u0662\n0.5,\u0968.\u0665\n", False),
    (io.read_measure_csv, '"0.5","1.0"\r\n"0.5\r\n",2.0\r\n', False),
    (io.read_plan_csv, "0,0,0.5\n1,1,0.5\n", True),
    (io.read_plan_csv, "0,0,1.0\n", True),
    (io.read_plan_csv, "", False),
    (io.read_plan_csv, f"{2**53 + 1},0,0.5\n{2**53},0,0.5\n", True),
    (io.read_plan_csv, f"{2**63 - 1},0,1.0\n", True),
    (io.read_plan_csv, f"{2**63},0,1.0\n", False),
    (io.read_plan_csv, "0,0,0.5\n1_0,1,0.5\n", False),
    (io.read_plan_csv, '"0",0,0.5\n1,1,0.5\n', False),
    (io.read_plan_csv, "0,0,0.5\n1.0,1,0.5\n", False),
    (io.read_plan_csv, "0,0,0.5,\n", False),
    (io.read_plan_csv, "0,0,0.5\n \n", False),
    (io.read_plan_csv, "0,0,0.5\n\n +1 , 1,0.5\n", True),
    (io.read_plan_csv, "0\x1d,0,1.0\n", False),
    (io.read_plan_csv, "\u0660,0,0.5\n\u0661,\u0967,0.5\n", False),
    (io.read_plan_csv, '"0","0","0.5"\r\n1,"1\r\n",0.5\r\n', False),
]


@pytest.mark.parametrize("reader, body, parsed", READER_CASES)
def test_readers_agree_with_the_line_reader(tmp_path, monkeypatch, reader, body, parsed):
    header = "i,j,mass" if reader is io.read_plan_csv else "w,x1"
    path = tmp_path / "table.csv"
    path.write_bytes(f"{header}\n{body}".encode())
    outcome, loadtxt_parsed = read_outcome(reader, path, monkeypatch, True)
    assert loadtxt_parsed == parsed
    assert outcome == read_outcome(reader, path, monkeypatch, False)[0]


def test_measure_json_memory_is_bounded_by_the_block(tmp_path):
    # The whole 1M-value payload and its text would take tens of MiB.
    rng = np.random.default_rng(0)
    measure = make_measure(rng.standard_normal((2000, 500)), np.full(2000, 1 / 2000))
    tracemalloc.start()
    try:
        io.write_measure_json(measure, tmp_path / "wide.json")
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


def test_non_utf8_input_is_a_transport_error(tmp_path):
    for path in non_utf8_files(tmp_path):
        with pytest.raises(TransportError, match=f"^{re.escape(str(path))}: not UTF-8 text: "):
            io.read_measure(path)


def test_a_field_over_the_csv_size_limit_is_a_transport_error(tmp_path):
    # An unclosed quote runs to the end of the file: one field of ~200 KB.
    rows = "".join(f"0.001,{k}.5\n" for k in range(20000))
    for reader, text in ((io.read_measure_csv, f'w,x1\n"0.001,0.5\n{rows}'),
                         (io.read_measure_csv, f'w,"x1\n{rows}'),
                         (io.read_plan_csv, f'i,j,mass\n0,0,"1.0\n{rows}')):
        path = tmp_path / "long.csv"
        path.write_text(text)
        with pytest.raises(TransportError, match="field larger than field limit"):
            reader(path)


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
