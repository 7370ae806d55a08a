"""Lift one-dimensional plans back to the ambient space.

A 1D entry (a, b, m) between two projected measures spreads its mass over
the member atoms of the two classes in proportion to their weights:

    mass(i, j) = m * (p_i / P_a) * (q_j / Q_b)

for i in class a (source weight p_i, class mass P_a) and j in class b.
Summing over a class pair recovers m, so the lifted plan couples the
original measures whenever the 1D plan couples the projections.
"""

from __future__ import annotations

import numpy as np

from .errors import ClassMismatch, DimensionMismatch, MassImbalance
from .measures import DiscreteMeasure, TransportPlan, _check_p, _plan_cost
from .slicing import (
    DEFAULT_GROUPING_TOL,
    MASS_BALANCE_TOL,
    OneDPlan,
    ProjectedMeasure,
    _monotone,
    project,
)

# Lifted entries below this mass are dropped; their total is re-added
# proportionally to the surviving entries of the same 1D entry so the
# per-class-pair totals (and hence the marginals) are preserved.
MASS_FLOOR = 1e-15


def _check_pair(source: DiscreteMeasure, target: DiscreteMeasure, p: float) -> None:
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dimensions differ")
    if abs(float(source.weights.sum()) - float(target.weights.sum())) > MASS_BALANCE_TOL:
        raise MassImbalance("source and target carry different total mass")
    _check_p(p)


def _spread(ps: ProjectedMeasure, pt: ProjectedMeasure, a, b, m):
    """Lifted entries ``(i, j, mass)`` of the 1D entries ``(a, b, m)``.

    Each class pair expands row-major over its members; entries below
    MASS_FLOOR are dropped and their mass re-added within the 1D entry.
    """
    sa, sb = ps.class_starts[a], pt.class_starts[b]
    cols = pt.class_starts[b + 1] - sb
    sizes = (ps.class_starts[a + 1] - sa) * cols
    entry = np.repeat(np.arange(a.shape[0]), sizes)
    offset = np.arange(entry.shape[0]) - (np.cumsum(sizes) - sizes)[entry]
    si = sa[entry] + offset // cols[entry]
    tj = sb[entry] + offset % cols[entry]
    mass = (
        m[entry]
        * (ps.member_weights[si] / ps.class_masses[a][entry])
        * (pt.member_weights[tj] / pt.class_masses[b][entry])
    )
    low = mass < MASS_FLOOR
    if low.any():
        # Entries with no survivor keep everything; elsewhere total / kept
        # is exactly 1 unless something was dropped.
        keep = ~low | (np.bincount(entry, weights=~low)[entry] == 0)
        scale = np.bincount(entry, weights=mass) / np.bincount(entry[keep], weights=mass[keep])
        si, tj, mass = si[keep], tj[keep], mass[keep] * scale[entry[keep]]
    return ps.member_indices[si], pt.member_indices[tj], mass


def _slice(source: DiscreteMeasure, target: DiscreteMeasure, direction, p: float,
           grouping_tol: float):
    """Raw lifted plan ``(i, j, mass)`` and its cost along one direction."""
    ps = project(source, direction, grouping_tol)
    pt = project(target, direction, grouping_tol)
    i, j, mass = _spread(ps, pt, *_monotone(ps.class_masses, pt.class_masses))
    return i, j, mass, _plan_cost(source.atoms, target.atoms, i, j, mass, p)


def _check_projection(measure: DiscreteMeasure, proj: ProjectedMeasure, side: str) -> None:
    # Provenance sanity check: member count and per-atom weights must match.
    if proj.member_indices.shape[0] != len(measure) or not np.array_equal(
        proj.member_weights, measure.weights[proj.member_indices]
    ):
        raise ClassMismatch(f"{side} projection does not describe the {side} measure")


def lift(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    proj_source: ProjectedMeasure,
    proj_target: ProjectedMeasure,
    plan1d: OneDPlan,
) -> TransportPlan:
    """Spread a 1D class plan over the member atoms of each class pair."""
    _check_projection(source, proj_source, "source")
    _check_projection(target, proj_target, "target")
    if int(plan1d.a.max()) >= proj_source.n_classes or int(plan1d.a.min()) < 0:
        raise ClassMismatch("1D plan references a missing source class")
    if int(plan1d.b.max()) >= proj_target.n_classes or int(plan1d.b.min()) < 0:
        raise ClassMismatch("1D plan references a missing target class")
    i, j, mass = _spread(proj_source, proj_target, plan1d.a, plan1d.b, plan1d.mass)
    return TransportPlan(len(source), len(target), i, j, mass)


def lift_for_direction(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    direction,
    p: float = 2.0,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> tuple[TransportPlan, float]:
    """Project both measures onto a direction, solve in 1D, lift back.

    Returns the lifted plan together with its ambient cost
    ``plan_cost(plan, source, target, p)``, the slice's contribution to the
    sliced distance.
    """
    _check_pair(source, target, p)
    i, j, mass, cost = _slice(source, target, direction, p, grouping_tol)
    return TransportPlan(len(source), len(target), i, j, mass), cost
