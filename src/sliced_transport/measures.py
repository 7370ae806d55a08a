"""Finite discrete probability measures and sparse transport plans.

A measure is a finite list of weighted atoms in R^d; a transport plan is a
sparse nonnegative matrix coupling two such measures.  Both types are
immutable after construction (backing arrays are marked read-only) and all
operations here are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonFiniteAtoms,
    NonPositiveTotalMass,
    TransportError,
    WeightSumOutOfTolerance,
)

# Construction tolerance on the weight sum, and the marginal tolerance a
# plan must meet to count as a coupling.
WEIGHT_SUM_TOL = 1e-9
COUPLING_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _trusted(cls, *values):
    """A frozen dataclass instance from fields already known to be valid.

    Internal constructors use this to skip ``__post_init__``: no checks and
    no copies; array fields are marked read-only in place, so they must not
    be shared with a caller.
    """
    obj = object.__new__(cls)
    for field, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, field, _readonly(value) if isinstance(value, np.ndarray) else value)
    return obj


def _check_p(p: float) -> None:
    if not 1 < p < np.inf:
        raise TransportError(f"p must be a finite number > 1, got {p!r}")


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A finite weighted point set carrying unit total mass.

    Attributes
    ----------
    atoms : ndarray, shape (n, d)
        Finite atom locations.  Duplicate locations are allowed and stay
        distinct (atoms are identified by index, not by coordinates).
    weights : ndarray, shape (n,)
        Strictly positive masses summing to 1.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.array(self.atoms, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if atoms.ndim != 2 or atoms.shape[1] < 1:
            raise DimensionMismatch("atoms must form an (n, d) array with d >= 1")
        if weights.ndim != 1 or weights.shape[0] != atoms.shape[0]:
            raise DimensionMismatch("weights must be a vector matching the atom count")
        if atoms.shape[0] == 0:
            raise NonPositiveTotalMass("a measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise NonFiniteAtoms("atom coordinates must be finite")
        if not np.all(weights > 0):
            raise NonPositiveTotalMass("weights must be strictly positive")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise WeightSumOutOfTolerance("weights must sum to 1 within 1e-9")
        object.__setattr__(self, "atoms", _readonly(atoms))
        object.__setattr__(self, "weights", _readonly(weights))

    def __len__(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


def make_measure(atoms, weights) -> DiscreteMeasure:
    """Validate and normalize raw atom/weight data into a DiscreteMeasure.

    Zero-weight atoms are dropped, the remaining weights are renormalized
    (their float sum is 1 up to final rounding), and atom order is
    preserved.  A 1-dimensional ``atoms`` array is treated as n points on
    the line.

    Raises
    ------
    DimensionMismatch
        Ragged atoms, or atom/weight length disagreement.
    NonFiniteAtoms
        A NaN or infinite atom coordinate.
    NonPositiveTotalMass
        Negative or NaN weights, no atoms, or total mass <= 0.
    WeightSumOutOfTolerance
        Total mass differs from 1 by more than 1e-9.
    """
    try:
        atoms_arr = np.asarray(atoms, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"atoms are not a rectangular numeric array: {exc}") from None
    if atoms_arr.ndim == 1:
        atoms_arr = atoms_arr.reshape(-1, 1)
    if atoms_arr.ndim != 2:
        raise DimensionMismatch("atoms must be a list of d-vectors")
    weights_arr = np.asarray(weights, dtype=float)
    if weights_arr.ndim != 1 or weights_arr.shape[0] != atoms_arr.shape[0]:
        raise DimensionMismatch("weights must be a vector matching the atom count")
    if atoms_arr.shape[0] == 0:
        raise NonPositiveTotalMass("a measure needs at least one atom")
    if not (weights_arr >= 0).all():
        raise NonPositiveTotalMass("weights must be finite and nonnegative")
    total = float(weights_arr.sum())
    if total <= 0:
        raise NonPositiveTotalMass("total mass must be positive")
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumOutOfTolerance(
            f"weights sum to {total!r}, outside 1 +/- {WEIGHT_SUM_TOL}"
        )
    keep = weights_arr > 0
    if not keep.all():
        atoms_arr, weights_arr = atoms_arr[keep], weights_arr[keep]
    return DiscreteMeasure(atoms_arr, weights_arr / total)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse transport plan between a source and a target measure.

    Entries are stored as parallel arrays (i, j, mass), canonically sorted
    lexicographically by (i, j), with strictly positive masses and at most
    one entry per index pair.  The type itself does not promise that the
    marginals match any particular measure; use :func:`validate_coupling`
    for that.  Construction checks and sorts the entries; the solvers,
    whose entries are canonical already, build plans with ``_trusted``.
    """

    source_size: int
    target_size: int
    i: np.ndarray
    j: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        i = np.asarray(self.i, dtype=np.int64).ravel()
        j = np.asarray(self.j, dtype=np.int64).ravel()
        mass = np.asarray(self.mass, dtype=float).ravel()
        if not (i.shape == j.shape == mass.shape):
            raise DimensionMismatch("plan entry arrays must share one length")
        if i.size == 0:
            raise TransportError("a transport plan needs at least one entry")
        if self.source_size < 1 or self.target_size < 1:
            raise IndexOutOfRange("plan sizes must be positive")
        if int(self.source_size) * int(self.target_size) > np.iinfo(np.int64).max:
            raise IndexOutOfRange("plan sizes exceed the int64 range of (i, j) keys")
        if i.min() < 0 or i.max() >= self.source_size:
            raise IndexOutOfRange("source index outside [0, source_size)")
        if j.min() < 0 or j.max() >= self.target_size:
            raise IndexOutOfRange("target index outside [0, target_size)")
        if not np.all(mass > 0):
            raise TransportError("plan masses must be strictly positive")
        # Fancy indexing copies, so the caller's arrays are never frozen.
        order = np.argsort(i * self.target_size + j, kind="stable")
        i, j, mass = i[order], j[order], mass[order]
        dup = (i[1:] == i[:-1]) & (j[1:] == j[:-1])
        if np.any(dup):
            raise TransportError("duplicate (i, j) entry in transport plan")
        object.__setattr__(self, "i", _readonly(i))
        object.__setattr__(self, "j", _readonly(j))
        object.__setattr__(self, "mass", _readonly(mass))

    def __len__(self) -> int:
        return self.i.shape[0]

    @property
    def entries(self) -> list[tuple[int, int, float]]:
        """Entry triples as plain Python scalars, in (i, j) order."""
        return [
            (int(a), int(b), float(m))
            for a, b, m in zip(self.i, self.j, self.mass)
        ]

    def total_mass(self) -> float:
        return float(self.mass.sum())


def plan_cost(
    plan: TransportPlan,
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    p: float = 2.0,
) -> float:
    """Transport cost (sum of mass * |x_i - y_j|^p) ** (1/p) of a plan.

    Requires p > 1.  The sum runs over the plan's sparse entries only.  A
    cost that overflows the float range raises TransportError.
    """
    _check_p(p)
    if plan.source_size != len(source) or plan.target_size != len(target):
        raise IndexOutOfRange("plan sizes do not match the given measures")
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dimensions differ")
    bounds = (0, len(plan))
    with np.errstate(over="ignore"):
        cost = float(_plan_costs(source.atoms, target.atoms, plan.i, plan.j, plan.mass, p, bounds)[0])
    if not cost < np.inf:
        raise TransportError(f"plan cost overflows: |x - y|**p exceeds the float range at p={p!r}")
    return cost


def _plan_costs(x: np.ndarray, y: np.ndarray, i, j, mass, p: float, bounds) -> np.ndarray:
    """Costs of the plans held in the entry segments ``bounds[k]:bounds[k + 1]``.

    The rows of ``x`` and ``y`` are gathered with ``np.take`` and the
    difference, the distance, its p-th power and the weighting by mass are
    computed in place, in the order ``mass * |x_i - y_j| ** p`` would round
    them.  Each cost sums its own segment with ``np.add.reduce`` (what
    ``np.sum`` runs), so it has the bits it would have on its own.
    """
    diffs = np.take(x, i, axis=0)
    diffs -= np.take(y, j, axis=0)
    terms = np.einsum("ij,ij->i", diffs, diffs)
    del diffs
    np.sqrt(terms, out=terms)
    terms **= p
    terms *= mass
    return np.array(
        [max(float(np.add.reduce(terms[s:e])), 0.0) ** (1.0 / p)
         for s, e in zip(bounds[:-1], bounds[1:])]
    )


def validate_coupling(
    plan: TransportPlan,
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    tol: float = COUPLING_TOL,
) -> tuple[bool, float]:
    """Diagnostic marginal check: does the plan couple source to target?

    Returns ``(ok, max_deviation)`` where the deviation is the largest
    absolute gap between a plan marginal and the corresponding weight.
    Never raises on marginal mismatch; only size disagreement is an error.
    """
    if plan.source_size != len(source) or plan.target_size != len(target):
        raise IndexOutOfRange("plan sizes do not match the given measures")
    row = np.bincount(plan.i, weights=plan.mass, minlength=len(source))
    col = np.bincount(plan.j, weights=plan.mass, minlength=len(target))
    dev = max(
        float(np.max(np.abs(row - source.weights))),
        float(np.max(np.abs(col - target.weights))),
    )
    return dev <= tol, dev


def identity_coupling(measure: DiscreteMeasure) -> TransportPlan:
    """The diagonal plan coupling a measure to itself."""
    n = len(measure)
    idx = np.arange(n)
    return TransportPlan(n, n, idx, idx, measure.weights.copy())


def product_coupling(source: DiscreteMeasure, target: DiscreteMeasure) -> TransportPlan:
    """The independent coupling with mass w_i * v_j on every pair."""
    n, m = len(source), len(target)
    i = np.repeat(np.arange(n), m)
    j = np.tile(np.arange(m), n)
    mass = np.outer(source.weights, target.weights).ravel()
    return TransportPlan(n, m, i, j, mass)
