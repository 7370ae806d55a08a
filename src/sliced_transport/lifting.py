"""Lift one-dimensional plans back to the ambient space.

A 1D entry (a, b, m) between two projected measures spreads its mass over
the member atoms of the two classes in proportion to their weights:

    mass(i, j) = m * (p_i / P_a) * (q_j / Q_b)

for i in class a (source weight p_i, class mass P_a) and j in class b.
Summing over a class pair recovers m, so the lifted plan couples the
original measures whenever the 1D plan couples the projections.

``_chunks`` is the one path from directions to lifted plans: it projects,
solves in 1D (``slicing._monotone``) and lifts (``_spread``) a block of
slices at a time.  This module holds kernels only: the one caller of
``_chunks``, ``est._run``, checks the inputs and the costs for every solver.
"""

from __future__ import annotations

import numpy as np

from .measures import DiscreteMeasure, _plan_costs
from .slicing import ProjectedMeasure, _monotone, _sort_rows, project

# Lifted entries below this mass are dropped; their total is re-added
# proportionally to the surviving entries of the same 1D entry so the
# per-class-pair totals (and hence the marginals) are preserved.
MASS_FLOOR = 1e-15
# Working-set budget of the slice engine: a chunk takes this many atoms
# divided by n + m slices, at least one.  Every slice is computed on its
# own row, so results do not depend on it.
CHUNK_ATOMS = 8192


def _layout(proj: ProjectedMeasure):
    return proj.member_indices, proj.class_starts, proj.member_weights, proj.class_masses


def _spread(a, b, m, source, target):
    """Lifted entries ``(i, j, mass)`` of the 1D entries ``(a, b, m)``.

    Each side is a class layout ``(members, starts, weights, masses)``:
    class a owns ``members[starts[a]:starts[a + 1]]``, whose weights sum to
    ``masses[a]``.  Each class pair expands row-major over its members;
    entries below MASS_FLOOR are dropped and their mass re-added within the
    1D entry.
    """
    members_s, starts_s, weights_s, masses_s = source
    members_t, starts_t, weights_t, masses_t = target
    sa, sb = starts_s[a], starts_t[b]
    cols = starts_t[b + 1] - sb
    sizes = (starts_s[a + 1] - sa) * cols
    entry = np.repeat(np.arange(a.shape[0]), sizes)
    offset = np.arange(entry.shape[0]) - (np.cumsum(sizes) - sizes)[entry]
    si = sa[entry] + offset // cols[entry]
    tj = sb[entry] + offset % cols[entry]
    mass = (
        m[entry]
        * (weights_s[si] / masses_s[a][entry])
        * (weights_t[tj] / masses_t[b][entry])
    )
    low = mass < MASS_FLOOR
    if low.any():
        # Entries with no survivor keep everything; elsewhere total / kept
        # is exactly 1 unless something was dropped.
        keep = ~low | (np.bincount(entry, weights=~low)[entry] == 0)
        scale = np.bincount(entry, weights=mass) / np.bincount(entry[keep], weights=mass[keep])
        si, tj, mass = si[keep], tj[keep], mass[keep] * scale[entry[keep]]
    return members_s[si], members_t[tj], mass


def _chunks(source: DiscreteMeasure, target: DiscreteMeasure, directions: np.ndarray,
            p: float, grouping_tol: float):
    """Lifted plans and costs along checked directions, a block at a time.

    Yields ``(slices, bounds, i, j, mass, costs)``: entries
    ``bounds[k]:bounds[k + 1]`` are the lifted plan of slice ``slices[k]``
    and ``costs[k]`` its cost.  A chunk of directions is projected and
    sorted with one product and one row-wise sort per side, which also
    marks where each slice's classes open.  Its slices whose every
    projection opens a class are solved and lifted together; every other
    slice takes its classes from ``project``, grouped by the same rule, and
    goes through the same kernels alone.
    """
    n, m = len(source), len(target)
    step = max(1, CHUNK_ATOMS // (n + m))
    for lo in range(0, directions.shape[0], step):
        chunk = directions[lo : lo + step]
        order_s, _, opens_s = _sort_rows(source.atoms, chunk, grouping_tol)
        order_t, _, opens_t = _sort_rows(target.atoms, chunk, grouping_tol)
        single = opens_s.all(axis=1) & opens_t.all(axis=1)
        rows = np.flatnonzero(single)
        if rows.size:
            order_s, order_t = np.take(order_s, rows, axis=0), np.take(order_t, rows, axis=0)
            r, a, b, mass = _monotone(np.take(source.weights, order_s),
                                      np.take(target.weights, order_t))
            # Every class is one atom, so the lift gives each 1D entry back
            # unchanged (w / w is exactly 1): only the indices change.
            i, j = np.take(order_s, r * n + a), np.take(order_t, r * m + b)
            bounds = np.searchsorted(r, np.arange(rows.size + 1))
            costs = _plan_costs(source.atoms, target.atoms, i, j, mass, p, bounds)
            yield lo + rows, bounds, i, j, mass, costs
        for row in np.flatnonzero(~single):
            ps = project(source, chunk[row], grouping_tol)
            pt = project(target, chunk[row], grouping_tol)
            _, a, b, mass = _monotone(ps.class_masses[None], pt.class_masses[None])
            i, j, mass = _spread(a, b, mass, _layout(ps), _layout(pt))
            bounds = np.array([0, i.shape[0]])
            costs = _plan_costs(source.atoms, target.atoms, i, j, mass, p, bounds)
            yield np.array([lo + row]), bounds, i, j, mass, costs
