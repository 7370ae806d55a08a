"""Averaging lifted plans over a set of directions.

The sliced plan is the weighted average of the per-direction lifted plans,
and the sliced distance is the weighted power mean of the per-direction
costs:

    plan  = sum_l  w_l * plan_l
    dist  = (sum_l w_l * cost_l**p) ** (1/p)

With uniform weights this Monte-Carlo averages over directions; a
temperature tau reweights directions by a softmax of -tau * cost_l**p,
which interpolates between the uniform average (tau = 0) and the single
cheapest direction (tau -> infinity).  All three entry points run one loop
that differs only in how the slices are weighted.

The loop takes the directions in chunks (``lifting._chunks``): one
projection product and one row-wise sort per side for the whole chunk,
then the 1D solve, the lift and the cost of all its slices in one pass.
The chunk size follows from a working-set budget, ``lifting.CHUNK_ATOMS``
atoms per chunk (``CHUNK_ATOMS // (n + m)`` slices, at least one).
Results do not depend on it: projections are summed over the coordinates
in a fixed order, every other step works within one slice's row, and each
slice's cost sums its own entries.

Aggregation is a deterministic fold: contributions are merged on (i, j)
keys in slice order, and each key's mass is its first contribution plus
numpy's pairwise sum of the rest (``np.add.reduceat``).  The grouping of
that sum depends only on the slice order and the count of contributions,
so results are reproducible bit for bit.  A key whose mass underflows to
0 (a subnormal slice weight) is dropped.

Memory follows the plan, not the slice count: the merge holds the lifted
entries once as keys and masses plus one sort order, and hands its sorted,
unique keys to the plan without a second sort or copy.  ``min_swgg`` keeps
only the cheapest slice's entries seen so far, and a caller that reads only
the distance (``applications.transport(..., need_plan=False)``) keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TransportError
from .lifting import _check_costs, _check_run, _chunks
from .measures import DiscreteMeasure, TransportPlan, _readonly, _trusted
from .slicing import DEFAULT_GROUPING_TOL, _breaks, _check_directions

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SliceSet:
    """A finite set of unit directions with nonnegative weights summing to 1."""

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        directions = np.array(self.directions, dtype=float)
        weights = np.array(self.weights, dtype=float)
        # Any d will do: the rows only have to form an (L, d) array of unit vectors.
        directions = _check_directions(directions, directions.shape[-1] if directions.ndim else 0)
        if weights.shape != (directions.shape[0],):
            raise DimensionMismatch("need one weight per direction")
        # Written so that NaN fails both tests.
        if not (weights >= 0).all():
            raise TransportError("slice weights must be finite and nonnegative")
        if not abs(float(weights.sum()) - 1.0) <= WEIGHT_SUM_TOL:
            raise TransportError("slice weights must be finite and sum to 1 within 1e-12")
        object.__setattr__(self, "directions", _readonly(directions))
        object.__setattr__(self, "weights", _readonly(weights))

    def __len__(self) -> int:
        return self.directions.shape[0]

    @classmethod
    def uniform(cls, directions) -> "SliceSet":
        directions = np.asarray(directions, dtype=float)
        count = directions.shape[0]
        return cls(directions, np.full(count, 1.0 / max(count, 1)))


@dataclass(frozen=True, eq=False)
class EstResult:
    """Output of a sliced-transport computation.

    ``distance ** p`` equals the weighted sum of ``per_slice_costs ** p``;
    the costs themselves are reported rooted (not as p-th powers).
    """

    plan: TransportPlan
    distance: float
    per_slice_costs: np.ndarray
    slice_weights: np.ndarray


def _plan(n: int, m: int, key: np.ndarray, mass: np.ndarray) -> TransportPlan:
    """The plan of the increasing, unique keys ``i * m + j`` and their masses.

    Entries whose mass underflowed to 0 are dropped.  The arrays are the
    plan's own: nothing is checked, sorted or copied again.
    """
    keep = mass > 0
    if not keep.all():
        key, mass = key[keep], mass[keep]
    i = key // m
    key -= i * m
    return _trusted(TransportPlan, n, m, i, key, mass)


# An overflowing cost is reported once, as the TransportError below.
@np.errstate(over="ignore")
def _run(source, target, directions, p, grouping_tol, weigh, merge=True):
    """Lift along every direction and merge the slices under ``weigh(costs)``.

    Checks the inputs once, and the per-slice costs before they are
    weighed.  Returns the merged plan, the per-slice costs and the slice
    weights; slices of weight 0 add nothing to the plan.  Without ``merge``
    each chunk's lifted entries are dropped once costed and the plan is
    None, so memory stays at one chunk's working set whatever L is.
    """
    directions = _check_run(source, target, directions, p, grouping_tol)
    count, size = directions.shape[0], len(target)
    costs = np.empty(count)
    blocks = []
    for slices, bounds, i, j, mass, block_costs in _chunks(
        source, target, directions, p, grouping_tol
    ):
        costs[slices] = block_costs
        if not merge:
            continue
        # Keys (i, j, slice) are unique, so a plain sort orders every
        # (i, j) run by slice, as a stable sort of (i, j) in slice order would.
        key = i * size + j
        key *= count
        key += np.repeat(slices, np.diff(bounds))
        blocks.append((slices, bounds, key, mass))
    _check_costs(costs, p)
    weights = weigh(costs)
    if not merge:
        return None, costs, weights
    keys, masses = [], []
    for slices, bounds, key, mass in blocks:
        scale = np.repeat(weights[slices], np.diff(bounds))
        mass *= scale
        if not scale.all():
            keep = scale != 0
            key, mass = key[keep], mass[keep]
        keys.append(key)
        masses.append(mass)
    # Each array of all entries is dropped as soon as it is used, so at
    # most four are alive at a time: keys, masses, the order and a gather.
    del blocks
    key = np.concatenate(keys)
    del keys
    mass = np.concatenate(masses)
    del masses
    order = np.argsort(key)
    key = np.take(key, order)
    mass = np.take(mass, order)
    del order
    key //= count
    starts = np.flatnonzero(_breaks(key)[:-1])
    mass = np.add.reduceat(mass, starts)
    key = np.take(key, starts)
    del starts
    return _plan(len(source), size, key, mass), costs, weights


def _fold_distance(weights: np.ndarray, costs: np.ndarray, p: float) -> float:
    total = 0.0
    for w, c in zip(weights, costs):
        total += float(w) * float(c) ** p
    return max(total, 0.0) ** (1.0 / p)


def est_plan(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    slices: SliceSet,
    p: float = 2.0,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> EstResult:
    """Average the lifted plans over a weighted slice set.

    Parameters
    ----------
    source, target : DiscreteMeasure
        Measures of equal dimension.
    slices : SliceSet
        Directions and weights to average over.
    p : float
        Cost exponent, > 1.
    grouping_tol : float
        Relative projection-grouping tolerance (see :mod:`slicing`).
    """
    plan, costs, weights = _run(
        source, target, slices.directions, p, grouping_tol, lambda costs: slices.weights
    )
    return EstResult(plan, _fold_distance(weights, costs, p), costs, np.array(weights))


def _check_tau(tau: float) -> None:
    if not 0 <= tau < np.inf:
        raise TransportError(f"tau must be a finite number >= 0, got {tau!r}")


def sigma_tau_weights(costs_pth_power, tau: float) -> np.ndarray:
    """Softmax slice weights exp(-tau * c) / sum, computed stably.

    ``costs_pth_power`` holds the per-slice costs already raised to the
    p-th power.  The minimum cost is subtracted before exponentiation, so
    tau = 0 yields exactly the uniform vector 1/L and a large tau exactly
    the one-hot vector at the argmin.
    """
    costs = np.asarray(costs_pth_power, dtype=float)
    if costs.ndim != 1 or costs.shape[0] < 1:
        raise TransportError("need a nonempty cost vector")
    if not np.all(np.isfinite(costs)):
        raise TransportError("per-slice costs must be finite")
    _check_tau(tau)
    z = np.exp(-tau * (costs - costs.min()))
    return z / float(z.sum())


def est_plan_tempered(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    directions,
    p: float = 2.0,
    tau: float = 0.0,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> EstResult:
    """Sliced plan under the temperature-softened direction weights.

    The per-slice costs define the softmax weights, which then merge the
    per-slice plans.  tau = 0 reproduces :func:`est_plan` with uniform
    weights bit for bit.
    """
    return EstResult(*_tempered(source, target, directions, p, tau, grouping_tol))


def _tempered(source, target, directions, p, tau, grouping_tol, merge=True):
    """Plan, distance, costs and weights of the tempered average (see ``_run``)."""
    _check_tau(tau)
    plan, costs, weights = _run(
        source, target, directions, p, grouping_tol,
        lambda costs: sigma_tau_weights(costs**p, tau), merge,
    )
    return plan, _fold_distance(weights, costs, p), costs, weights


def min_swgg(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    directions,
    p: float = 2.0,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> tuple[int, TransportPlan, float]:
    """Cheapest single slice: index, lifted plan, and cost.

    Ties break toward the lowest slice index.  Equals the tau -> infinity
    limit of the tempered plan when the minimum cost is unique.
    """
    directions = _check_run(source, target, directions, p, grouping_tol)
    size = len(target)
    costs = np.empty(directions.shape[0])
    best = None
    with np.errstate(over="ignore"):
        for slices, bounds, i, j, mass, block_costs in _chunks(
            source, target, directions, p, grouping_tol
        ):
            costs[slices] = block_costs
            k = int(np.argmin(block_costs))
            # A chunk yields its grouped slices after its other ones, so a
            # tie goes to the lower index, not to the earlier block.
            if best is None or (block_costs[k], slices[k]) < (costs[best], best):
                best, lo, hi = int(slices[k]), bounds[k], bounds[k + 1]
                entries = (i[lo:hi] * size + j[lo:hi], mass[lo:hi].copy())
            del i, j, mass
    _check_costs(costs, p)
    key, mass = entries
    order = np.argsort(key)
    plan = _plan(len(source), size, np.take(key, order), np.take(mass, order))
    return best, plan, float(costs[best])
