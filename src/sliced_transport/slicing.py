"""Projection of measures onto lines and monotone one-dimensional transport.

Projecting a discrete measure onto a direction theta groups atoms whose
projections coincide (up to a tolerance) into equivalence classes: the
projected measure lives on the class values, each class carrying the summed
mass of its members.  ``project`` does this for one direction and
``_sort_rows`` for a block of directions at once.  Between two projected
measures the optimal plan for any strictly convex cost is the unique
monotone coupling, which ``_monotone`` reads off the merged cumulative
class masses of the two sides, a block of slices at a time: every
cumulative mass is a cut, and the mass between two consecutive cuts ships
from the source class to the target class that both contain it.

Grouping tolerance is relative: with ``tol = g * max(1, max|theta . x|)``,
a sorted projection opens a new class when ``value - rep > tol``, ``rep``
being the value that opened the current class; ``g = 0`` merges exact ties
only.  Rounded subtraction is monotone, so a gap above ``tol`` always opens
a class, and a run of gaps at or below it that spans at most ``tol`` is one
class; only the other runs of close gaps need the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonUnitDirection, TransportError
from .measures import DiscreteMeasure, _trusted

# Direction vectors must be unit length within this tolerance.
UNIT_TOL = 1e-12
# Cuts of opposite sides closer than this coincide, which keeps slivers of
# float cancellation out of the plan.
RESIDUAL_CLAMP = 1e-15
# Totals of the two measures of a run may differ by at most this much.
MASS_BALANCE_TOL = 1e-9

DEFAULT_GROUPING_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProjectedMeasure:
    """A measure pushed onto a line, grouped into equivalence classes.

    The record ``project`` returns, built without checks: the invariants
    below hold because ``project`` computes them, not because a constructor
    tests them.  No function of the package takes one as input.

    Attributes
    ----------
    class_values : ndarray, shape (K,)
        Strictly increasing projected coordinates, one per class.
    class_masses : ndarray, shape (K,)
        Positive class masses, summing to 1 within 1e-9.
    member_indices : ndarray, shape (n,)
        Original atom indices, concatenated class by class.
    class_starts : ndarray, shape (K + 1,)
        Offsets into ``member_indices``: class a owns the slice
        ``member_indices[class_starts[a]:class_starts[a + 1]]``.
    member_weights : ndarray, shape (n,)
        Original atom weights aligned with ``member_indices``.
    """

    class_values: np.ndarray
    class_masses: np.ndarray
    member_indices: np.ndarray
    class_starts: np.ndarray
    member_weights: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.class_values.shape[0]


def _check_directions(directions, dim: int) -> np.ndarray:
    """An (L, dim) float array of unit directions, or a typed error."""
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[0] < 1:
        raise DimensionMismatch("directions must form a nonempty (L, d) array")
    if directions.shape[1] != dim:
        raise DimensionMismatch(
            f"direction has dimension {directions.shape[1]}, measure has {dim}"
        )
    norms = np.sqrt(np.einsum("ij,ij->i", directions, directions))
    bad = ~(np.abs(norms - 1.0) <= UNIT_TOL)
    if bad.any():
        norm = float(norms[bad.argmax()])
        raise NonUnitDirection(f"direction norm {norm!r} is not 1 within {UNIT_TOL}")
    return directions


def _check_tol(grouping_tol: float) -> None:
    if not 0 <= grouping_tol < np.inf:
        raise TransportError(f"grouping_tol must be a finite number >= 0, got {grouping_tol!r}")


def _projections(atoms: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """The (L, n) products ``directions @ atoms.T``, summed over d left to right.

    Elementwise products and sums give every entry the same bits whatever
    the number of directions; a BLAS product does not promise that.  The
    coordinates are copied out as contiguous rows once, and each one's
    product goes through one scratch array added to the sum in place.
    """
    coords = atoms.T.copy()
    out = directions[:, :1] * coords[0]
    scratch = np.empty_like(out)
    for k in range(1, coords.shape[0]):
        out += np.multiply(directions[:, k : k + 1], coords[k], out=scratch)
    return out


def _take_rows(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``take_along_axis(values, order, axis=1)`` as one flat ``np.take``."""
    return np.take(values, order + np.arange(0, values.size, values.shape[1])[:, None])


def _sort_rows(atoms: np.ndarray, directions: np.ndarray, grouping_tol: float):
    """Stable sort of the projections onto each direction, and their classes.

    Returns the sort orders and sorted values (L, n) and a boolean (L, n)
    array, True where a class opens under the row's tolerance by the rule
    of the module docstring (gap compare, span compare, then the scan).
    """
    proj = _projections(atoms, directions)
    # Distinct values have one sorted order, so the default (unstable,
    # vectorized) sort gives the stable order unless a row holds a tie;
    # only those rows are sorted again, stably.
    order = np.argsort(proj, axis=1)
    values = _take_rows(proj, order)
    tied = np.flatnonzero(~(values[:, 1:] > values[:, :-1]).all(axis=1))
    if tied.size:
        order[tied] = np.argsort(proj[tied], axis=1, kind="stable")
        values[tied] = np.take_along_axis(proj[tied], order[tied], axis=1)
    tol = grouping_tol * np.maximum(np.maximum(1.0, -values[:, 0]), values[:, -1])
    opens = np.ones(values.shape, dtype=bool)
    opens[:, 1:] = values[:, 1:] - values[:, :-1] > tol[:, None]
    # Runs of close gaps, on flat views (the scan writes into opens); every
    # row opens at its first value, so no run crosses rows.
    flat, vals = opens.reshape(-1), values.reshape(-1)
    last = np.append(flat[1:], True)
    heads, ends = np.flatnonzero(flat & ~last), np.flatnonzero(~flat & last)
    tols = tol[heads // values.shape[1]]
    wide = vals[ends] - vals[heads] > tols
    for head, end, row_tol in zip(heads[wide], ends[wide], tols[wide].tolist()):
        rep = vals[head]
        for k in range(head + 1, end + 1):
            if vals[k] - rep > row_tol:
                flat[k], rep = True, vals[k]
    return order, values, opens


def project(
    measure: DiscreteMeasure,
    direction,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> ProjectedMeasure:
    """Push a measure onto a unit direction, merging coincident projections.

    Atoms are sorted by projected value (original index as tie-break) and
    grouped by the running-representative rule of the module docstring.
    The result is valid by construction and built without checks.
    """
    theta = _check_directions(np.asarray(direction, dtype=float).reshape(1, -1), measure.dim)
    _check_tol(grouping_tol)
    (order,), (values,), (opens,) = _sort_rows(measure.atoms, theta, grouping_tol)
    weights = measure.weights[order]
    heads = np.flatnonzero(opens)
    return _trusted(ProjectedMeasure, values[heads], np.add.reduceat(weights, heads), order,
                    np.append(heads, len(order)), weights)


def _breaks(keys: np.ndarray) -> np.ndarray:
    """``len(keys) + 1`` flags: True at both ends and between unequal neighbours."""
    edge = np.ones(keys.shape[0] + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    return edge


def _monotone(ms: np.ndarray, mt: np.ndarray):
    """Rows, class indices and masses ``(r, a, b, mass)`` of monotone couplings.

    Row r of ``ms`` (c, K) and of ``mt`` (c, K') holds the class masses of
    one pair of projected measures; the entries come out row by row.  The
    cumulative masses of both sides, merged, cut the mass interval into
    entries; cuts of opposite sides within RESIDUAL_CLAMP coincide.  An
    entry ships the gap between its cuts, or the exact class mass when it
    carries a whole class, as a north-west-corner sweep would.  Entries come
    out sorted by row and class on both sides, so a class has one entry
    where its neighbours' classes differ; no class is counted.  Every step
    works within a row, so a row's entries do not depend on the others.
    """
    rows, k = ms.shape
    cs, ct = np.cumsum(ms, axis=1), np.cumsum(mt, axis=1)
    # The end of the shorter side sorts first among equal values, so the
    # cuts before it are exactly those inside the shipped interval.
    source_ends = cs[:, -1] <= ct[:, -1]
    ends = np.where(source_ends, cs[:, -1], ct[:, -1])
    cuts = np.concatenate((ends[:, None], cs[:, :-1], ct[:, :-1]), axis=1)
    width = cuts.shape[1]
    order = np.argsort(cuts, axis=1, kind="stable")
    count = order.argmin(axis=1)
    level = _take_rows(cuts, order)
    on_target = order >= k
    opens = np.ones(cuts.shape, dtype=bool)
    opens[:, 1:] = (level[:, 1:] - level[:, :-1] >= RESIDUAL_CLAMP) | (
        on_target[:, 1:] == on_target[:, :-1]
    )
    opens[np.arange(rows), count] = True
    opens &= np.arange(width) <= count[:, None]
    flat = np.flatnonzero(opens)
    r = flat // width
    at = flat - r * width
    b = np.take(np.cumsum(on_target, axis=1) - on_target, flat)
    a = at - b
    gaps = np.take(level, flat)
    gaps[1:] -= np.where(at[1:] > 0, gaps[:-1], 0.0)
    # A class is whole in its only entry, unless that is the last entry of
    # its row and the other side ends first.
    ga, gb = r * k + a, r * mt.shape[1] + b
    ea, eb = _breaks(ga), _breaks(gb)
    whole_a, whole_b = ea[:-1] & ea[1:], eb[:-1] & eb[1:]
    last = np.flatnonzero(_breaks(r)[1:])
    whole_a[last] &= source_ends
    whole_b[last] &= ct[:, -1] <= cs[:, -1]
    ma, mb = np.take(ms, ga), np.take(mt, gb)
    mass = np.where(whole_a, np.where(whole_b, np.minimum(ma, mb), ma), np.where(whole_b, mb, gaps))
    keep = mass > 0
    return r[keep], a[keep], b[keep], mass[keep]


def sample_sphere(count: int, dim: int, seed: int) -> np.ndarray:
    """Draw ``count`` unit directions in R^dim, deterministically by seed.

    Gaussian vectors are normalized; a draw with norm below 1e-12 is
    rejected and redrawn.  On the line (dim == 1) the two possible
    directions alternate +1, -1 instead of being sampled.
    """
    if count < 1 or dim < 1:
        raise TransportError("need count >= 1 and dim >= 1")
    if dim == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs.reshape(count, 1)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((count, dim))
    norms = np.linalg.norm(draws, axis=1)
    for k in np.flatnonzero(norms < 1e-12):
        while norms[k] < 1e-12:
            draws[k] = rng.standard_normal(dim)
            norms[k] = np.linalg.norm(draws[k])
    return draws / norms[:, None]
