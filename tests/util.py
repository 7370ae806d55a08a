"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np

from sliced_transport import DiscreteMeasure, make_measure, sample_sphere
from sliced_transport.slicing import DEFAULT_GROUPING_TOL, RESIDUAL_CLAMP

E1 = np.array([1.0, 0.0])


def random_measure(rng: np.random.Generator, n: int, d: int, uniform: bool = False) -> DiscreteMeasure:
    atoms = rng.standard_normal((n, d))
    if uniform:
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.random(n) + 0.05
        weights = weights / weights.sum()
    return make_measure(atoms, weights)


def random_pair(seed: int, max_n: int = 50, max_d: int = 5, uniform: bool = False,
                min_d: int = 1):
    """A random measure pair sharing one ambient dimension."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(min_d, max_d + 1))
    return random_measure(rng, n, d, uniform), random_measure(rng, m, d, uniform)


def sorted_matching_mean_power(mu, nu, directions, p: float = 2.0) -> float:
    """Direct slice average for uniform equal-size measures.

    For each direction, pair the atoms by sorted projection rank and average
    (1/N) sum |x - y|^p over directions.  Independent of the lifting
    pipeline; used as its oracle in the uniform case.
    """
    n = len(mu)
    assert len(nu) == n
    total = 0.0
    for theta in directions:
        sx = np.argsort(mu.atoms @ theta, kind="stable")
        sy = np.argsort(nu.atoms @ theta, kind="stable")
        diffs = mu.atoms[sx] - nu.atoms[sy]
        total += float(np.sum(np.linalg.norm(diffs, axis=1) ** p)) / n
    return total / directions.shape[0]


def worked_example():
    """Three-atom pair with an exact two-atom overlap under theta = e1.

    Projections: source [0, 1, 1] -> class masses [0.1, 0.9];
    target [2, 3, 3] -> class masses [0.5, 0.5].
    """
    src = make_measure([(0.0, 0.0), (1.0, 1.0), (1.0, -1.0)], [0.1, 0.3, 0.6])
    tgt = make_measure([(2.0, 0.0), (3.0, 1.0), (3.0, -1.0)], [0.5, 0.3, 0.2])
    theta = np.array([1.0, 0.0])
    return src, tgt, theta


def northwest_corner(ms, mt, clamp: float = 1e-15):
    """Reference monotone coupling of two class-mass vectors, by a sweep.

    Two cursors walk the classes left to right, ship the smaller of the two
    remaining masses and advance the exhausted side; residuals below
    ``clamp`` count as exhausted.  Returns ``(a, b, mass)`` arrays.
    """
    ia, ib, shipped = [], [], []
    a = b = 0
    ra, rb = float(ms[0]), float(mt[0])
    while a < len(ms) and b < len(mt):
        ship = min(ra, rb)
        if ship > 0.0:
            ia.append(a)
            ib.append(b)
            shipped.append(ship)
        ra = ra - ship if ra - ship >= clamp else 0.0
        rb = rb - ship if rb - ship >= clamp else 0.0
        if ra == 0.0:
            a += 1
            ra = float(ms[a]) if a < len(ms) else 0.0
        if rb == 0.0:
            b += 1
            rb = float(mt[b]) if b < len(mt) else 0.0
    return np.array(ia, dtype=np.int64), np.array(ib, dtype=np.int64), np.array(shipped)


def monotone_by_counts(ms, mt):
    """Reference for ``slicing._monotone``, bit for bit.

    The same sweep over the merged cumulative masses, with the kernel's
    earlier whole-class test: ``np.bincount`` counts every class's entries
    and an entry is whole when its class has one.  Rows come out with
    ``np.divmod`` and the sorted cuts with ``np.take_along_axis``.
    """
    rows, k = ms.shape
    cs, ct = np.cumsum(ms, axis=1), np.cumsum(mt, axis=1)
    source_ends = cs[:, -1] <= ct[:, -1]
    ends = np.where(source_ends, cs[:, -1], ct[:, -1])
    cuts = np.concatenate((ends[:, None], cs[:, :-1], ct[:, :-1]), axis=1)
    width = cuts.shape[1]
    order = np.argsort(cuts, axis=1, kind="stable")
    count = order.argmin(axis=1)
    level = np.take_along_axis(cuts, order, axis=1)
    on_target = order >= k
    opens = np.ones(cuts.shape, dtype=bool)
    opens[:, 1:] = (level[:, 1:] - level[:, :-1] >= RESIDUAL_CLAMP) | (
        on_target[:, 1:] == on_target[:, :-1]
    )
    opens[np.arange(rows), count] = True
    opens &= np.arange(width) <= count[:, None]
    flat = np.flatnonzero(opens)
    r, at = np.divmod(flat, width)
    b = (np.cumsum(on_target, axis=1) - on_target).ravel()[flat]
    a = at - b
    gaps = level.ravel()[flat]
    gaps[1:] -= np.where(at[1:] > 0, gaps[:-1], 0.0)
    ga, gb = r * k + a, r * mt.shape[1] + b
    whole_a = np.bincount(ga)[ga] == 1
    whole_b = np.bincount(gb)[gb] == 1
    last = np.flatnonzero(np.r_[r[1:] != r[:-1], True])
    whole_a[last] &= source_ends
    whole_b[last] &= ct[:, -1] <= cs[:, -1]
    ma, mb = ms.ravel()[ga], mt.ravel()[gb]
    mass = np.where(whole_a, np.where(whole_b, np.minimum(ma, mb), ma), np.where(whole_b, mb, gaps))
    keep = mass > 0
    return r[keep], a[keep], b[keep], mass[keep]


def plan_costs_by_fancy_index(x, y, i, j, mass, p: float, bounds) -> np.ndarray:
    """Reference for ``measures._plan_costs``, bit for bit.

    Gathers the rows by fancy indexing and forms ``mass * dists**p`` with a
    new array per step; each segment's cost sums its own terms.
    """
    diffs = x[i] - y[j]
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    terms = mass * dists**p
    return np.array(
        [max(float(np.sum(terms[s:e])), 0.0) ** (1.0 / p) for s, e in zip(bounds[:-1], bounds[1:])]
    )


def running_representative_starts(values, tol: float) -> np.ndarray:
    """Reference grouping of sorted values, one value at a time.

    A value opens a class when it exceeds the value that opened the current
    class by more than ``tol``.  Returns the class offsets, ending with
    ``len(values)``.
    """
    starts = [0]
    rep = values[0]
    for k in range(1, len(values)):
        if values[k] - rep > tol:
            starts.append(k)
            rep = values[k]
    return np.array(starts + [len(values)], dtype=np.int64)


def lift_by_entry(proj_source, proj_target, a1d, b1d, m1d, floor: float = 1e-15):
    """Reference lift, one 1D entry at a time.

    Spreads each 1D entry ``(a1d[k], b1d[k], m1d[k])`` over the outer
    product of its two classes' member weights, drops lifted masses below
    ``floor`` when some survive, and rescales the survivors to the entry's
    total.  Returns ``(i, j, mass)``.
    """
    parts_i, parts_j, parts_m = [], [], []
    for a, b, m in zip(a1d, b1d, m1d):
        lo, hi = proj_source.class_starts[a], proj_source.class_starts[a + 1]
        si, sw = proj_source.member_indices[lo:hi], proj_source.member_weights[lo:hi]
        lo, hi = proj_target.class_starts[b], proj_target.class_starts[b + 1]
        ti, tw = proj_target.member_indices[lo:hi], proj_target.member_weights[lo:hi]
        denom = float(proj_source.class_masses[a]) * float(proj_target.class_masses[b])
        flat = (float(m) / denom) * np.outer(sw, tw).ravel()
        ii = np.repeat(si, ti.shape[0])
        jj = np.tile(ti, si.shape[0])
        keep = flat >= floor
        if keep.any() and not keep.all():
            total = float(flat.sum())
            flat = flat[keep] * (total / float(flat[keep].sum()))
            ii, jj = ii[keep], jj[keep]
        parts_i.append(ii)
        parts_j.append(jj)
        parts_m.append(flat)
    return np.concatenate(parts_i), np.concatenate(parts_j), np.concatenate(parts_m)


def dense(i, j, mass, shape) -> np.ndarray:
    """Sparse entries summed into a dense matrix."""
    out = np.zeros(shape)
    np.add.at(out, (i, j), mass)
    return out


def adversarial_pair(regime: str, seed: int):
    """A measure pair and a direction that stress one grouping regime."""
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(2, 40, size=2))

    def plain(k):
        w = rng.random(k) + 0.05
        return w / w.sum()

    if regime == "exact-ties":
        xs, ys = (rng.integers(0, 4, size=(k, 2)).astype(float) for k in (n, m))
        ws, wt, theta = plain(n), plain(m), E1
    elif regime == "near-ties":
        # Offsets of 0.5 and 1.5 effective tolerances (max |projection| is
        # 4.5) straddle the grouping tolerance.
        steps = np.array([-1.5, -0.5, 0.0, 0.5, 1.5]) * DEFAULT_GROUPING_TOL * 4.5
        xs, ys = (
            np.c_[rng.integers(0, 4, k) + rng.choice(steps, k), rng.standard_normal(k)]
            for k in (n, m)
        )
        ws, wt, theta = plain(n), plain(m), E1
    elif regime == "duplicates":
        pool = rng.standard_normal((5, 2))
        xs, ys = pool[rng.integers(0, 5, n)], pool[rng.integers(0, 5, m)]
        ws, wt, theta = plain(n), plain(m), sample_sphere(1, 2, seed)[0]
    else:  # pareto: heavy-tailed weights on a coarse grid
        xs, ys = (rng.integers(0, 3, size=(k, 2)).astype(float) for k in (n, m))
        ws, wt = ((lambda w: w / w.sum())(rng.pareto(0.3, k) + 1e-12) for k in (n, m))
        theta = E1
    return make_measure(xs, ws), make_measure(ys, wt), theta
