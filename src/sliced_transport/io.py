"""File formats: measures (CSV, JSON) and plans (CSV).

CSV floats are written with 17 significant digits and JSON floats in
Python's shortest round-trip form, so write-then-read reproduces every
value exactly.  `_write_rows` writes every CSV table in blocks of at most
`_CSV_BLOCK_FIELDS` values, in ``csv.writer``'s bytes, with no Python
loop over the values: `_g17_bytes` prints floats as ``format(x, ".17g")``
does from integer arithmetic on their bits, `_int_bytes` prints integer
columns.  The CSV readers parse the body with ``np.loadtxt``; where it
fails, the row reader `_read_csv` re-reads the file and either names the
first bad line or, for what only Python's ``float``/``int`` accept
(``1_0``, quoted fields), returns its values.  `write_measure_json` writes
``json.dumps``'s bytes in blocks.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import TransportError
from .measures import DiscreteMeasure, TransportPlan, make_measure

# Values formatted per write: 8192 plan rows, 49 rows of a d = 500 measure.
_CSV_BLOCK_FIELDS = 24576

_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")
# 5**q for the decimal shifts q that keep 5**q below 2**64.
_POW5 = np.array([5**q for q in range(28)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_E16, _E17 = _POW10[16], _POW10[17]
# Magnitudes whose 17 digits `_quotient` computes: q = 16 - exponent stays
# in [1, 27] and the binary shift in [1, 63], with room for one correction
# of the log10 guess.  Others, and non-finite values, go through format().
_FAST_MIN, _FAST_MAX = 1e-10, 1e15
# Bytes per float field: sign, "0.000", 17 digits and a point, "e-10";
# format() gives at most 24 ("-2.2250738585072014e-308").
_FLOAT_WIDTH = 28


def _mul128(a, b):
    """The 128-bit products of uint64 arrays ``a < 2**53`` and ``b < 2**63``, as (hi, lo)."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    mid = a0 * b1
    mid += a1 * b0  # below 2**63 + 2**53: no wrap
    lo = a0 * b0
    hi = a1 * b1
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid  # the carry out of lo
    return hi, lo


def _quotient(mantissa, exp2, q):
    """``mantissa * 2**exp2 * 10**q`` rounded half-even to an integer, and ``ok``.

    ``ok`` marks where the result is the 17-digit rounding: q and the
    shift lie in the range the uint64 arithmetic covers, and the quotient
    lies in [10**16, 10**17) before and after rounding.  Where ``ok`` holds
    the digits are right whatever q was guessed, as only one q fits.
    """
    shift = -(exp2 + q)
    ok = (q >= 0) & (q < len(_POW5)) & (shift >= 1) & (shift <= 63)
    s = np.where(ok, shift, 1).astype(np.uint64)
    hi, lo = _mul128(mantissa, _POW5[np.where(ok, q, 0)])
    quot = (hi << (np.uint64(64) - s)) | (lo >> s)
    ok &= (hi >> s == 0) & (quot >= _E16)
    rest, half = lo & ((np.uint64(1) << s) - np.uint64(1)), np.uint64(1) << (s - np.uint64(1))
    quot += (rest > half) | ((rest == half) & (quot & np.uint64(1) == 1))
    return quot, ok & (quot < _E17)


def _digit_chars(magnitude, width):
    """(width, len) ASCII digits of uint64 values, most significant first."""
    out = np.empty((width, len(magnitude)), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        magnitude, out[k] = np.divmod(magnitude, np.uint64(10))
    out += np.uint8(_ZERO)
    return out


def _decimal17(x):
    """17 significant digits of each float: (digits, exponent, slow).

    For |v| in [`_FAST_MIN`, `_FAST_MAX`), ``digits`` is the integer in
    [10**16, 10**17) and ``exponent`` the power of ten of its first digit,
    as ``%.17g`` rounds them: the 53-bit mantissa times ``5**q``, shifted
    right and rounded half-even in 128-bit arithmetic, with q from
    ``log10`` moved by one where the quotient is not 17 digits long.
    ``slow`` marks the other values and any the arithmetic does not cover,
    such as a rounding up to 10**17, which no double in the range has; their
    digits are meaningless.
    """
    mag = np.abs(x)
    slow = ~((mag >= _FAST_MIN) & (mag < _FAST_MAX))
    mag[slow] = 1.0  # a stand-in
    q = 16 - np.floor(np.log10(mag)).astype(np.int64)
    mantissa, exp2 = np.frexp(mag)
    del mag  # the block's peak memory is in _quotient
    mantissa = (mantissa * 2.0**53).astype(np.uint64)
    exp2 = exp2.astype(np.int64) - 53
    digits, ok = _quotient(mantissa, exp2, q)
    redo = np.flatnonzero(~ok)  # log10 put the exponent one off
    q[redo] += (digits[redo] < _E16).astype(np.int64) - (digits[redo] >= _E17)
    digits[redo], ok[redo] = _quotient(mantissa[redo], exp2[redo], q[redo])
    return digits, 16 - q, slow | ~ok


# The formatters below return one column of bytes per value, (slots,
# values), so that every step runs along the long axis; NUL bytes pad a
# field and are dropped before the block is written.


def _g17_bytes(x):
    """(`_FLOAT_WIDTH`, len(x)) uint8: ``format(v, ".17g")`` of each float.

    `_decimal17` gives the digits; trailing zero digits are dropped, and
    the point and an exponent placed as ``%g`` places them: fixed for
    exponents in [-4, 16], else ``e-05`` to ``e-10``, the only ones the
    fast range has.  Other values are printed by ``format`` itself.
    """
    digits, expo, slow = _decimal17(x)
    chars = _digit_chars(digits, 17)
    col = np.arange(17)[:, None]
    kept = ((chars != _ZERO) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    fixed = expo >= -4
    lead = np.where(fixed, np.maximum(expo + 1, 0), 1)  # digits before the point
    chars *= col < np.maximum(kept, lead)  # drop trailing zeros after the point
    out = np.zeros((_FLOAT_WIDTH, len(x)), dtype=np.uint8)
    out[0] = np.where(x < 0, _MINUS, 0)
    small = np.flatnonzero(fixed & (expo < 0))  # 0.000ddd
    out[1, small], out[2, small] = _ZERO, _DOT
    out[3:6, small] = np.where(np.arange(3)[:, None] < -1 - expo[small], _ZERO, 0)
    # Slots 6..23: the digits, shifted one slot down from the point on.
    body = out[6:24]
    body[1:] = chars
    np.copyto(body[:17], chars, where=col < lead)
    body[lead, np.arange(len(x))] = np.where((kept > lead) & (lead > 0), _DOT, 0)
    sci = np.flatnonzero(~fixed)
    out[24, sci], out[25, sci] = ord("e"), _MINUS
    out[26, sci] = _ZERO + (-expo[sci]) // 10
    out[27, sci] = _ZERO + (-expo[sci]) % 10

    for k in np.flatnonzero(slow):
        text = format(float(x[k]), ".17g").encode()
        out[:, k] = 0
        out[:len(text), k] = np.frombuffer(text, dtype=np.uint8)
    return out


def _int_bytes(values):
    """(width, len) uint8: each integer's decimal digits, NUL-padded in front."""
    mag = values.astype(np.uint64)
    neg = values < 0
    mag[neg] = -mag[neg]  # two's complement: exact for int64's minimum too
    width = len(str(int(mag.max())))
    chars = _digit_chars(mag, width)
    length = np.searchsorted(_POW10[1:width], mag, side="right") + 1
    chars *= np.arange(width)[:, None] >= width - length
    return np.concatenate([np.where(neg, _MINUS, 0).astype(np.uint8)[None], chars])


def _str_bytes(values):
    """(width, len) uint8: each value's ``str``, encoded."""
    encoded = np.array([str(v).encode() for v in values], dtype=bytes)
    return encoded.view(np.uint8).reshape(len(encoded), -1).T


def _block_bytes(columns, lo: int, hi: int) -> np.ndarray:
    """The CSV bytes of rows ``lo:hi``: each column printed as its dtype says."""
    pieces = [None] * len(columns)
    floats = [k for k, col in enumerate(columns) if col.dtype.kind == "f"]
    if floats:
        block = np.stack([columns[k][lo:hi] for k in floats]).ravel()
        chars = _g17_bytes(block).reshape(_FLOAT_WIDTH, len(floats), hi - lo)
        for t, k in enumerate(floats):
            pieces[k] = chars[:, t]
    for k, col in enumerate(columns):
        if col.dtype.kind == "i":
            pieces[k] = _int_bytes(col[lo:hi])
        elif col.dtype.kind != "f":
            pieces[k] = _str_bytes(col[lo:hi])
    # Row-major, one field and its separator after another.
    table = np.empty((hi - lo, sum(len(piece) + 1 for piece in pieces) + 1), dtype=np.uint8)
    at = 0
    for piece in pieces:
        table[:, at:at + len(piece)] = piece.T
        table[:, at + len(piece)] = ord(",")
        at += len(piece) + 1
    table[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    table = table.ravel()
    return table[table != 0]


def _write_rows(path, header: list[str], columns) -> None:
    """Write a header and row k of every column array per line, as ``csv.writer`` would.

    Float columns are printed as ``format(x, ".17g")``, integer columns as
    ``%d`` and others as ``str``.  No field of these tables holds a comma,
    quote, CR or LF, so the excel dialect quotes none.
    """
    rows = max(1, _CSV_BLOCK_FIELDS // len(columns))
    with Path(path).open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, len(columns[0]), rows):
            fh.write(_block_bytes(columns, lo, min(lo + rows, len(columns[0]))))


def _read_header(path, header_ok, expected: str) -> list[str]:
    """A CSV file's header, stripped; a TransportError if it fails ``header_ok``."""
    with Path(path).open(newline="") as fh:
        header = [c.strip() for c in next(csv.reader(fh), [])]
    if not header_ok(header):
        raise TransportError(f"{path}: bad header {header!r}, expected {expected}")
    return header


def _loadtxt(path, dtype):
    """The rows below the header as ``np.loadtxt`` parses them, or None where it fails.

    Its parser accepts a subset of what `_read_csv` accepts, to the same
    bits: no quotes, underscores or non-ASCII digits, and the same rule on
    blank lines and field counts.  It also strips the separators \\x1c to
    \\x1f around a number, which ``float`` and ``int`` refuse, so a file
    holding one is left to `_read_csv`.  An empty body warns, which counts
    as a failure.
    """
    raw = Path(path).read_bytes()
    if any(sep in raw for sep in b"\x1c\x1d\x1e\x1f"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except (ValueError, UserWarning):
        return None


def _read_csv(path, width: int, add) -> None:
    """Pass each non-empty row below the header to ``add``.

    A wrong field count or a ``ValueError`` from ``add`` raises a
    TransportError naming the file and the first bad line.
    """
    with Path(path).open(newline="") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != width:
                raise TransportError(f"{path}:{lineno}: expected {width} fields")
            try:
                add(row)
            except ValueError as exc:
                raise TransportError(f"{path}:{lineno}: {exc}") from None


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
    _write_rows(path, _measure_header(measure.dim), [measure.weights, *measure.atoms.T])


def read_measure_csv(path) -> DiscreteMeasure:
    width = len(_read_header(path, lambda header: header == _measure_header(len(header) - 1),
                             "w,x1,...,xd"))
    table = _loadtxt(path, float)
    if table is None or table.shape[1] != width:
        values: list[float] = []
        _read_csv(path, width, lambda row: values.extend(map(float, row)))
        table = np.array(values).reshape(-1, width)
    return _measure_from_raw(table[:, 1:], table[:, 0])


def write_measure_json(measure: DiscreteMeasure, path) -> None:
    """Write ``json.dumps({"weights": ..., "atoms": ...})``'s bytes, a block of values at a time."""
    atoms_per_block = max(1, _CSV_BLOCK_FIELDS // measure.dim)
    with Path(path).open("w") as fh:
        for opening, values, rows in (('{"weights": [', measure.weights, _CSV_BLOCK_FIELDS),
                                      ('], "atoms": [', measure.atoms, atoms_per_block)):
            fh.write(opening)
            for lo in range(0, len(values), rows):
                fh.write((", " if lo else "") + json.dumps(values[lo:lo + rows].tolist())[1:-1])
        fh.write("]}")


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
    _write_rows(path, ["i", "j", "mass"], [plan.i, plan.j, plan.mass])


_PLAN_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("mass", float)])


def read_plan_csv(path, source_size: int | None = None, target_size: int | None = None) -> TransportPlan:
    """Read a plan; sizes default to one past the largest index seen."""
    _read_header(path, lambda header: header == ["i", "j", "mass"], "i,j,mass")
    table = _loadtxt(path, _PLAN_ROW)
    if table is not None:
        ii, jj, mm = table["i"].ravel(), table["j"].ravel(), table["mass"].ravel()
    else:
        ii, jj, mm = [], [], []

        def add(row):
            ii.append(int(row[0]))
            jj.append(int(row[1]))
            mm.append(float(row[2]))

        _read_csv(path, 3, add)
        if not ii:
            raise TransportError(f"{path}: plan has no entries")
        try:
            ii, jj = np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64)
        except OverflowError:
            raise TransportError(f"{path}: plan index beyond the int64 range") from None
    n = source_size if source_size is not None else int(ii.max()) + 1
    m = target_size if target_size is not None else int(jj.max()) + 1
    return TransportPlan(n, m, ii, jj, np.asarray(mm))
