"""File formats: measures (CSV, JSON) and plans (CSV).

CSV floats are written with 17 significant digits and JSON floats in
Python's shortest round-trip form, so write-then-read reproduces every
value exactly.  Both CSV readers share `_read_csv`.  `_write_rows` writes
every CSV table in blocks of at most `_CSV_BLOCK_FIELDS` values, one
``%``-format each, into ``csv.writer``'s bytes.
"""

from __future__ import annotations

import csv
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import TransportError
from .measures import DiscreteMeasure, TransportPlan, make_measure

# Values formatted per write: 8192 plan rows, 49 rows of a d = 500 measure.
_CSV_BLOCK_FIELDS = 24576


def _write_rows(path, header: list[str], row_format: str, columns) -> None:
    """Write a header and row k of every column array per line, as ``csv.writer`` would.

    ``row_format`` is one ``%``-format line with a CRLF ending; a block of
    rows is formatted in one go.  ``%.17g`` is ``format(x, ".17g")``, and
    the excel dialect quotes no such field: it holds no comma, quote, CR or LF.
    """
    rows = max(1, _CSV_BLOCK_FIELDS // len(columns))
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), rows):
            block = [col[lo:lo + rows].tolist() for col in columns]
            fields = tuple(chain.from_iterable(zip(*block)))
            fh.write((row_format * len(block[0])) % fields)


def _read_csv(path, header_ok, expected: str, add) -> list[str]:
    """Check a CSV file's header, pass each non-empty row below it to ``add``.

    Returns the header.  A header that fails ``header_ok``, a wrong field
    count, or a ``ValueError`` from ``add`` raises a TransportError; a
    row's error names the file and the first bad line.
    """
    with Path(path).open(newline="") as fh:
        rows = csv.reader(fh)
        header = [c.strip() for c in next(rows, [])]
        if not header_ok(header):
            raise TransportError(f"{path}: bad header {header!r}, expected {expected}")
        width = len(header)
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != width:
                raise TransportError(f"{path}:{lineno}: expected {width} fields")
            try:
                add(row)
            except ValueError as exc:
                raise TransportError(f"{path}:{lineno}: {exc}") from None
    return header


def _measure_header(dim: int) -> list[str]:
    return ["w"] + [f"x{k}" for k in range(1, dim + 1)]


def _measure_from_raw(atoms, weights) -> DiscreteMeasure:
    """Bitwise-preserving measure construction for file readers.

    Stored values that already form a valid measure are kept untouched so
    write-then-read is exact; anything else (zero rows, drifted sums) goes
    through the normalizing constructor.
    """
    try:
        arr = np.asarray(atoms, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        return DiscreteMeasure(arr, np.asarray(weights, dtype=float))
    except (TypeError, ValueError):
        return make_measure(atoms, weights)


def write_measure_csv(measure: DiscreteMeasure, path) -> None:
    row_format = ",".join(["%.17g"] * (measure.dim + 1)) + "\r\n"
    _write_rows(path, _measure_header(measure.dim), row_format, [measure.weights, *measure.atoms.T])


def read_measure_csv(path) -> DiscreteMeasure:
    values: list[float] = []
    header = _read_csv(path, lambda header: header == _measure_header(len(header) - 1),
                       "w,x1,...,xd", lambda row: values.extend(map(float, row)))
    table = np.array(values).reshape(-1, len(header))
    return _measure_from_raw(table[:, 1:], table[:, 0])


def write_measure_json(measure: DiscreteMeasure, path) -> None:
    payload = {"weights": measure.weights.tolist(), "atoms": measure.atoms.tolist()}
    Path(path).write_text(json.dumps(payload))


def read_measure_json(path) -> DiscreteMeasure:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TransportError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "weights" not in payload or "atoms" not in payload:
        raise TransportError(f"{path}: expected an object with 'weights' and 'atoms'")
    return _measure_from_raw(payload["atoms"], payload["weights"])


def read_measure(path) -> DiscreteMeasure:
    """Dispatch on extension: .json reads JSON, anything else CSV."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return read_measure_json(path)
    return read_measure_csv(path)


def write_measure(measure: DiscreteMeasure, path, fmt: str | None = None) -> None:
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt == "json":
        write_measure_json(measure, path)
    elif fmt == "csv":
        write_measure_csv(measure, path)
    else:
        raise TransportError(f"unknown measure format {fmt!r}")


def write_plan_csv(plan: TransportPlan, path) -> None:
    """Write ``i,j,mass`` rows, the bytes ``csv.writer`` would write."""
    _write_rows(path, ["i", "j", "mass"], "%d,%d,%.17g\r\n", [plan.i, plan.j, plan.mass])


def read_plan_csv(path, source_size: int | None = None, target_size: int | None = None) -> TransportPlan:
    """Read a plan; sizes default to one past the largest index seen."""
    ii, jj, mm = [], [], []

    def add(row):
        ii.append(int(row[0]))
        jj.append(int(row[1]))
        mm.append(float(row[2]))

    _read_csv(path, lambda header: header == ["i", "j", "mass"], "i,j,mass", add)
    if not ii:
        raise TransportError(f"{path}: plan has no entries")
    try:
        ii, jj = np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64)
    except OverflowError:
        raise TransportError(f"{path}: plan index beyond the int64 range") from None
    n = source_size if source_size is not None else int(ii.max()) + 1
    m = target_size if target_size is not None else int(jj.max()) + 1
    return TransportPlan(n, m, ii, jj, np.asarray(mm))
