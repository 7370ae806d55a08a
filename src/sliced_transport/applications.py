"""Things to do with a transport plan once you have one.

Displacement interpolation, geodesics under the exact quadratic plan,
barycentric projections, and fixed-reference embeddings that turn a
collection of measures into vectors (one row per reference atom, each row
the displacement of that atom's barycentric image).  Also the synthetic
data generators and the weak-convergence experiment driver used by the
command-line tool and the test suite.

:func:`transport` is the one place a method name becomes a solver call:
the CLI, the embeddings and the experiments all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import est, oracles
from .errors import DimensionMismatch, InvalidCoupling, InvalidT, TransportError
from .measures import (
    DiscreteMeasure,
    TransportPlan,
    _readonly,
    make_measure,
    plan_cost,
    product_coupling,
    validate_coupling,
)
from .slicing import DEFAULT_GROUPING_TOL, sample_sphere

# The paper's sliced plan, its cheapest single slice, and the two
# reference solvers, each with the options of `transport` it reads besides p.
METHODS = {
    "est": ("slices", "seed", "tau", "grouping_tol"),
    "min-swgg": ("slices", "seed", "grouping_tol"),
    "exact": (),
    "sinkhorn": ("lam",),
}

# Plans fed into interpolation or barycentric projection may be approximate
# couplings (entropic plans stop at a finite marginal error), so the gate
# here is looser than the 1e-9 diagnostic in validate_coupling.
APPLICATION_COUPLING_TOL = 1e-6


def transport(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    method: str = "est",
    p: float = 2.0,
    slices: int = 128,
    tau: float = 0.0,
    seed: int = 0,
    lam: float = 1.0,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
    need_plan: bool = True,
):
    """Plan, distance and detail ``(plan, distance, detail)`` of a method in METHODS.

    "est" averages the lifted plans over ``slices`` directions drawn with
    ``seed``, tempered by ``tau``; its detail is the EstResult.  "min-swgg"
    keeps the cheapest of those slices.  "exact" is the optimal plan.
    "sinkhorn" is the entropic plan with regularizer ``lam``; its distance
    is the plan's cost and its detail the marginal error.  A method reads
    ``p`` and its options in METHODS and ignores the others; the detail is
    None where there is none.

    A caller that reads no plan passes ``need_plan=False``: "est" then
    skips the merge of its slices, returns None for the plan and the pair
    ``(per_slice_costs, slice_weights)`` as the detail, with the distance
    bits unchanged.  The other methods return their plan as usual.
    """
    if method not in METHODS:
        raise TransportError(f"unknown method {method!r}; known: {', '.join(METHODS)}")
    # Solvers are looked up on their modules at call time, so a wrapper
    # installed there (a tracer, a test spy) sees every call.
    if method == "exact":
        plan, dist = oracles.wasserstein_exact(source, target, p)
        return plan, dist, None
    if method == "sinkhorn":
        plan, err = oracles.sinkhorn(source, target, p=p, lam=lam)
        return plan, plan_cost(plan, source, target, p), err
    directions = sample_sphere(slices, source.dim, seed)
    if method == "min-swgg":
        _, plan, cost = est.min_swgg(source, target, directions, p=p, grouping_tol=grouping_tol)
        return plan, cost, None
    if not need_plan:
        _, dist, costs, weights = est._tempered(source, target, directions, p, tau, grouping_tol,
                                                merge=False)
        return None, dist, (costs, weights)
    res = est.est_plan_tempered(source, target, directions, p=p, tau=tau,
                                grouping_tol=grouping_tol)
    return res.plan, res.distance, res


def _require_coupling(plan: TransportPlan, source: DiscreteMeasure, target: DiscreteMeasure) -> None:
    ok, dev = validate_coupling(plan, source, target, tol=APPLICATION_COUPLING_TOL)
    if not ok:
        raise InvalidCoupling(f"plan marginals deviate by {dev:.3e} (> {APPLICATION_COUPLING_TOL})")


def interpolate(
    plan: TransportPlan,
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    t: float,
) -> DiscreteMeasure:
    """Displacement interpolation ((1 - t) x + t y) along a plan.

    Every plan entry becomes one atom at ``(1 - t) x_i + t y_j`` with the
    entry's mass as weight; coincident atoms stay distinct.  t = 0 and
    t = 1 reproduce the endpoints up to this atom splitting.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidT(f"t = {t!r} outside [0, 1]")
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dimensions differ")
    _require_coupling(plan, source, target)
    atoms = np.take(source.atoms, plan.i, axis=0)
    atoms *= 1.0 - t
    ends = np.take(target.atoms, plan.j, axis=0)
    ends *= t
    atoms += ends
    # An admissible plan may carry up to 1e-6 marginal drift; rescale so
    # the masses pass the much tighter measure-weight gate.
    return make_measure(atoms, plan.mass / float(np.sum(plan.mass)))


def geodesic(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    t: float,
    p: float = 2.0,
) -> DiscreteMeasure:
    """Point at parameter t on the exact-plan displacement path."""
    return interpolate(transport(source, target, "exact", p)[0], source, target, t)


def barycentric_projection(
    plan: TransportPlan,
    reference: DiscreteMeasure,
    target: DiscreteMeasure,
) -> np.ndarray:
    """Per-reference-atom barycenters of the plan's target mass.

    Row i is ``(1 / alpha_i) * sum_j mass_ij * y_j`` where ``alpha_i`` is
    the reference weight; reference weights are strictly positive by
    construction, so the division is always defined.
    """
    if reference.dim != target.dim:
        raise DimensionMismatch("reference and target dimensions differ")
    _require_coupling(plan, reference, target)
    # One bincount per coordinate adds in entry order, as np.add.at would,
    # without an (entries, d) temporary.
    out = np.empty((len(reference), reference.dim))
    for k in range(reference.dim):
        out[:, k] = np.bincount(plan.i, weights=plan.mass * np.take(target.atoms[:, k], plan.j),
                                minlength=len(reference))
    return out / reference.weights[:, None]


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Fixed-reference embedding of one measure: (N, d) displacement rows."""

    rows: np.ndarray
    reference_size: int
    dim: int

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=float)
        if rows.shape != (self.reference_size, self.dim):
            raise DimensionMismatch("embedding rows must be (reference_size, dim)")
        if not np.all(np.isfinite(rows)):
            raise TransportError("embedding rows must be finite")
        object.__setattr__(self, "rows", _readonly(rows))


def lot_embed(
    reference: DiscreteMeasure,
    measure: DiscreteMeasure,
    method: str = "est",
    p: float = 2.0,
    slices: int = 128,
    tau: float = 0.0,
    seed: int = 0,
    lam: float = 1.0,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> EmbeddingMatrix:
    """Embed a measure against a fixed reference via a transport plan.

    The plan is :func:`transport`'s for ``method`` and the options.  Row i
    of the result is the barycentric image of reference atom i minus the
    atom itself.
    """
    plan = transport(reference, measure, method, p, slices, tau, seed, lam, grouping_tol)[0]
    rows = barycentric_projection(plan, reference, measure) - reference.atoms
    return EmbeddingMatrix(rows, len(reference), reference.dim)


# ---------------------------------------------------------------------------
# synthetic inputs shared by the CLI experiments and the test suite


def reference_measure(size: int = 50, dim: int = 2, seed: int = 0) -> DiscreteMeasure:
    """Uniform-mass standard-Gaussian reference cloud (fixed seed)."""
    rng = np.random.default_rng(seed)
    return make_measure(rng.standard_normal((size, dim)), np.full(size, 1.0 / size))


def gaussian_pair(
    size: int = 50,
    dim: int = 2,
    shift: float = 3.0,
    seed: int = 0,
) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Two uniform-mass Gaussian samples, the second shifted along axis 0."""
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal((size, dim))
    nu = rng.standard_normal((size, dim))
    nu[:, 0] += shift
    w = np.full(size, 1.0 / size)
    return make_measure(mu, w), make_measure(nu, w.copy())


def two_class_task(
    clouds_per_class: int = 20,
    atoms_per_cloud: int = 30,
    dim: int = 2,
    separation: float = 4.0,
    seed: int = 0,
) -> tuple[list[DiscreteMeasure], np.ndarray]:
    """Two classes of unit-variance point clouds with shifted class means.

    Returns the clouds (class 0 first) and +/-1 labels.  ``separation`` is
    the distance between the class means in units of the cloud standard
    deviation (1), so the default keeps the classes 4 sigma apart.
    """
    rng = np.random.default_rng(seed)
    means = [np.zeros(dim), np.concatenate(([separation], np.zeros(dim - 1)))]
    clouds: list[DiscreteMeasure] = []
    labels: list[float] = []
    w = np.full(atoms_per_cloud, 1.0 / atoms_per_cloud)
    for label, mean in zip((-1.0, 1.0), means):
        for _ in range(clouds_per_class):
            atoms = mean + rng.standard_normal((atoms_per_cloud, dim))
            clouds.append(make_measure(atoms, w.copy()))
            labels.append(label)
    return clouds, np.asarray(labels)


def embedding_features(
    reference: DiscreteMeasure,
    measures: list[DiscreteMeasure],
    **embed_kwargs,
) -> np.ndarray:
    """Stack flattened embeddings of many measures into a feature matrix."""
    return np.stack(
        [lot_embed(reference, m, **embed_kwargs).rows.ravel() for m in measures]
    )


def least_squares_accuracy(features: np.ndarray, labels: np.ndarray) -> float:
    """Training accuracy of an ordinary-least-squares classifier.

    Fits an affine predictor to +/-1 labels and scores sign agreement on
    the same data.
    """
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, labels, rcond=None)
    pred = np.sign(design @ coef)
    pred[pred == 0] = 1.0
    return float(np.mean(pred == labels))


def weak_convergence_table(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    ts,
    slices: int = 512,
    taus=(0.0,),
    lambdas=(1.0, 10.0),
    seed: int = 0,
    p: float = 2.0,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> list[dict]:
    """Discrepancies between the displacement path and its endpoint.

    Walks mu_t along the exact plan from ``source`` to ``target`` and, at
    every t, records the sliced distance (per tau), the exact W_p, entropic
    plan costs (per lambda), and the independent-coupling cost against the
    endpoint.  One dict per t, keys named after the columns.
    """
    plan_star = transport(source, target, "exact", p)[0]
    rows: list[dict] = []
    for t in ts:
        mu_t = interpolate(plan_star, source, target, float(t))
        row: dict = {"t": float(t)}
        for tau in taus:
            row[f"est_tau_{tau:g}"] = transport(
                mu_t, target, "est", p, slices, tau, seed, grouping_tol=grouping_tol,
                need_plan=False,
            )[1]
        row["w_exact"] = transport(mu_t, target, "exact", p)[1]
        for lam in lambdas:
            row[f"sinkhorn_lam_{lam:g}"] = transport(mu_t, target, "sinkhorn", p, lam=lam)[1]
        row["product"] = plan_cost(product_coupling(mu_t, target), mu_t, target, p)
        rows.append(row)
    return rows
