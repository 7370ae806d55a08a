"""Interpolation, geodesics, barycentric projection, embeddings."""

import inspect
import tracemalloc

import numpy as np
import pytest

from sliced_transport import (
    METHODS,
    EmbeddingMatrix,
    InvalidCoupling,
    InvalidT,
    TransportError,
    TransportPlan,
    barycentric_projection,
    est_plan,
    est_plan_tempered,
    SliceSet,
    gaussian_pair,
    geodesic,
    identity_coupling,
    interpolate,
    least_squares_accuracy,
    lot_embed,
    make_measure,
    min_swgg,
    plan_cost,
    product_coupling,
    reference_measure,
    sample_sphere,
    sinkhorn,
    transport,
    two_class_task,
    wasserstein_exact,
    weak_convergence_table,
)
from util import random_pair


def small_pair():
    mu = make_measure([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [0.2, 0.3, 0.5])
    nu = make_measure([(2.0, 2.0), (3.0, 1.0)], [0.6, 0.4])
    return mu, nu


def test_interpolate_endpoints():
    mu, nu = small_pair()
    plan, _ = wasserstein_exact(mu, nu)
    start = interpolate(plan, mu, nu, 0.0)
    end = interpolate(plan, mu, nu, 1.0)
    # endpoints re-split atoms along plan entries but are the same measures
    assert wasserstein_exact(start, mu)[1] == pytest.approx(0.0, abs=1e-9)
    assert wasserstein_exact(end, nu)[1] == pytest.approx(0.0, abs=1e-9)


def test_interpolate_atoms_move_linearly():
    mu, nu = small_pair()
    plan, _ = wasserstein_exact(mu, nu)
    half = interpolate(plan, mu, nu, 0.5)
    expect = 0.5 * mu.atoms[plan.i] + 0.5 * nu.atoms[plan.j]
    np.testing.assert_allclose(half.atoms, expect, atol=1e-15)
    np.testing.assert_allclose(half.weights, plan.mass, atol=1e-15)


def test_interpolate_rejects_t_outside_unit_interval():
    mu, nu = small_pair()
    plan, _ = wasserstein_exact(mu, nu)
    with pytest.raises(InvalidT):
        interpolate(plan, mu, nu, -0.01)
    with pytest.raises(InvalidT):
        interpolate(plan, mu, nu, 1.01)


def test_interpolate_rejects_broken_coupling():
    mu, nu = small_pair()
    broken = TransportPlan(3, 2, [0, 1], [0, 1], [0.5, 0.5])
    with pytest.raises(InvalidCoupling):
        interpolate(broken, mu, nu, 0.5)


def test_interpolate_admits_mildly_off_couplings():
    """Marginal drift below 1e-6 passes the application gate."""
    mu, nu = small_pair()
    plan, _ = wasserstein_exact(mu, nu)
    nudged = TransportPlan(
        plan.source_size,
        plan.target_size,
        plan.i,
        plan.j,
        plan.mass * (1.0 + 1e-8),
    )
    frame = interpolate(nudged, mu, nu, 0.25)
    assert len(frame) == len(plan)


def test_geodesic_distance_is_linear_in_t():
    """W2 from the path point to the target scales as (1 - t)."""
    mu, nu = gaussian_pair(size=15, dim=2, shift=2.0, seed=3)
    _, full = wasserstein_exact(mu, nu)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        mu_t = geodesic(mu, nu, t)
        rest = wasserstein_exact(mu_t, nu)[1]
        assert rest == pytest.approx((1.0 - t) * full, abs=1e-9)


def test_barycentric_projection_identity_plan():
    mu, _ = small_pair()
    bary = barycentric_projection(identity_coupling(mu), mu, mu)
    np.testing.assert_allclose(bary, mu.atoms, atol=1e-15)


def test_barycentric_projection_product_plan_gives_mean():
    mu, _ = small_pair()
    nu = make_measure([(0.0, 0.0), (2.0, 0.0)], [0.5, 0.5])
    bary = barycentric_projection(product_coupling(mu, nu), mu, nu)
    np.testing.assert_allclose(bary, np.tile([1.0, 0.0], (3, 1)), atol=1e-15)


def test_barycentric_projection_splits_by_mass():
    mu = make_measure([(0.0,)], [1.0])
    nu = make_measure([(0.0,), (4.0,)], [0.75, 0.25])
    plan = product_coupling(mu, nu)
    bary = barycentric_projection(plan, mu, nu)
    assert bary[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_barycentric_projection_matches_add_at_bitwise():
    mu, nu = random_pair(4, max_n=60, max_d=4)
    plan = est_plan(mu, nu, SliceSet.uniform(sample_sphere(16, mu.dim, 2))).plan
    want = np.zeros((len(mu), mu.dim))
    np.add.at(want, plan.i, plan.mass[:, None] * nu.atoms[plan.j])
    want /= mu.weights[:, None]
    assert np.array_equal(barycentric_projection(plan, mu, nu), want)


def test_lot_embed_self_is_zero():
    ref = reference_measure(size=12, dim=2, seed=1)
    emb = lot_embed(ref, ref, method="exact")
    assert np.max(np.abs(emb.rows)) < 1e-9


def test_lot_embed_shapes_and_methods_agree_loosely():
    ref = reference_measure(size=10, dim=2, seed=0)
    mu, _ = gaussian_pair(size=14, dim=2, shift=1.0, seed=5)
    for method, kwargs in (
        ("est", {"slices": 64, "seed": 2}),
        ("exact", {}),
        ("sinkhorn", {"lam": 0.5}),
    ):
        emb = lot_embed(ref, mu, method=method, **kwargs)
        assert emb.rows.shape == (10, 2)
        assert np.all(np.isfinite(emb.rows))


def test_lot_embed_translation_shows_up_in_rows():
    """Embedding a shifted copy of the reference is close to the shift."""
    ref = reference_measure(size=20, dim=2, seed=4)
    shifted = make_measure(ref.atoms + [2.0, 0.0], ref.weights)
    emb = lot_embed(ref, shifted, method="exact")
    np.testing.assert_allclose(emb.rows, np.tile([2.0, 0.0], (20, 1)), atol=1e-8)


OPTIONS = {"p": 3.0, "slices": 12, "tau": 2.0, "seed": 5, "lam": 0.7, "grouping_tol": 1e-6}


def _direct(method, mu, nu):
    """The solver call a method name stands for, with OPTIONS spelled out."""
    p, lam, tol = OPTIONS["p"], OPTIONS["lam"], OPTIONS["grouping_tol"]
    dirs = sample_sphere(OPTIONS["slices"], mu.dim, OPTIONS["seed"])
    if method == "est":
        res = est_plan_tempered(mu, nu, dirs, p=p, tau=OPTIONS["tau"], grouping_tol=tol)
        return res.plan, res.distance, res.per_slice_costs
    if method == "min-swgg":
        _, plan, cost = min_swgg(mu, nu, dirs, p=p, grouping_tol=tol)
        return plan, cost, None
    if method == "exact":
        return (*wasserstein_exact(mu, nu, p), None)
    plan, err = sinkhorn(mu, nu, p=p, lam=lam)
    return plan, plan_cost(plan, mu, nu, p), err


@pytest.mark.parametrize("method", METHODS)
def test_transport_is_the_direct_solver_call(method):
    mu, nu = random_pair(7, max_n=20, max_d=3)
    plan, dist, detail = transport(mu, nu, method, **OPTIONS)
    want_plan, want_dist, want_detail = _direct(method, mu, nu)
    for field in ("i", "j", "mass"):
        assert getattr(plan, field).tobytes() == getattr(want_plan, field).tobytes()
    assert dist == want_dist
    if method == "est":
        assert detail.per_slice_costs.tobytes() == want_detail.tobytes()
    else:
        assert detail == want_detail


@pytest.mark.parametrize("method", METHODS)
def test_methods_ignore_the_options_outside_their_entry(method):
    # OPTIONS holds a non-default value for every option of transport;
    # need_plan chooses what is returned, not what is computed.
    assert set(OPTIONS) == (set(inspect.signature(transport).parameters)
                            - {"source", "target", "method", "need_plan"})
    mu, nu = random_pair(7, max_n=20, max_d=3)
    plan, dist, _ = transport(mu, nu, method)
    for name in set(OPTIONS) - {"p", *METHODS[method]}:
        other, other_dist, _ = transport(mu, nu, method, **{name: OPTIONS[name]})
        for field in ("i", "j", "mass"):
            assert getattr(other, field).tobytes() == getattr(plan, field).tobytes(), name
        assert other_dist == dist, name


@pytest.mark.parametrize("method", METHODS)
def test_transport_without_the_plan_keeps_the_distance_bits(method):
    mu, nu = random_pair(7, max_n=20, max_d=3)
    plan, dist, detail = transport(mu, nu, method, **OPTIONS)
    no_plan, no_plan_dist, no_plan_detail = transport(mu, nu, method, need_plan=False, **OPTIONS)
    assert no_plan_dist == dist
    if method == "est":
        assert no_plan is None
        costs, weights = no_plan_detail
        assert costs.tobytes() == detail.per_slice_costs.tobytes()
        assert weights.tobytes() == detail.slice_weights.tobytes()
    else:
        for field in ("i", "j", "mass"):
            assert getattr(no_plan, field).tobytes() == getattr(plan, field).tobytes()
        assert no_plan_detail == detail


def test_est_distance_peak_memory_does_not_grow_with_the_slice_count():
    # 16 slices fill one chunk at n + m = 512; 256 slices take sixteen.  With
    # the plan, the merge holds every slice's entries.
    mu, nu = gaussian_pair(size=256, dim=2, shift=1.0, seed=0)
    peaks = {}
    for need_plan in (False, True):
        for count in (16, 256):
            tracemalloc.start()
            try:
                transport(mu, nu, "est", slices=count, need_plan=need_plan)
                peaks[need_plan, count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[False, 256] <= 1.5 * peaks[False, 16]
    assert peaks[True, 256] > 2 * peaks[True, 16]


def test_transport_unknown_method_names_the_known_ones():
    mu, nu = random_pair(7, max_n=20)
    with pytest.raises(TransportError, match="'nope'; known: est, min-swgg, exact, sinkhorn$"):
        transport(mu, nu, "nope")


def test_lot_embed_unknown_method():
    ref = reference_measure(size=5, dim=2, seed=0)
    with pytest.raises(Exception):
        lot_embed(ref, ref, method="nope")


def test_embedding_matrix_rejects_nans():
    with pytest.raises(Exception):
        EmbeddingMatrix(np.array([[np.nan, 0.0]]), 1, 2)


def test_least_squares_accuracy_perfect_split():
    feats = np.array([[0.0], [0.1], [5.0], [5.1]])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    assert least_squares_accuracy(feats, labels) == 1.0


def test_two_class_task_reproducible():
    clouds_a, labels_a = two_class_task(clouds_per_class=3, atoms_per_cloud=5, seed=9)
    clouds_b, labels_b = two_class_task(clouds_per_class=3, atoms_per_cloud=5, seed=9)
    np.testing.assert_array_equal(labels_a, labels_b)
    assert labels_a.tolist() == [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]
    for a, b in zip(clouds_a, clouds_b):
        np.testing.assert_array_equal(a.atoms, b.atoms)


def test_synthetic_generators_match_requested_shapes():
    ref = reference_measure(size=7, dim=3, seed=0)
    assert len(ref) == 7 and ref.dim == 3
    np.testing.assert_allclose(ref.weights, np.full(7, 1 / 7), atol=1e-15)
    mu, nu = gaussian_pair(size=9, dim=4, shift=2.0, seed=0)
    assert mu.dim == nu.dim == 4
    assert float(np.mean(nu.atoms[:, 0]) - np.mean(mu.atoms[:, 0])) == pytest.approx(
        2.0, abs=1.5
    )


def test_weak_convergence_table_columns_and_monotone_exact():
    mu, nu = gaussian_pair(size=12, dim=2, shift=2.0, seed=1)
    rows = weak_convergence_table(
        mu, nu, ts=[0.0, 0.5, 1.0], slices=32, taus=(0.0,), lambdas=(1.0,), seed=0
    )
    assert [r["t"] for r in rows] == [0.0, 0.5, 1.0]
    for r in rows:
        assert set(r) == {"t", "est_tau_0", "w_exact", "sinkhorn_lam_1", "product"}
    w = [r["w_exact"] for r in rows]
    assert w[0] > w[1] > w[2]
    assert w[2] == pytest.approx(0.0, abs=1e-9)
    # the independent coupling never tightens along the path the way W does
    assert rows[2]["product"] > rows[2]["w_exact"]


def test_est_plan_feeds_applications():
    """Sliced plans are couplings, so every application accepts them."""
    mu, nu = random_pair(8, max_n=12)
    slices = SliceSet.uniform(sample_sphere(32, mu.dim, 0))
    res = est_plan(mu, nu, slices)
    frame = interpolate(res.plan, mu, nu, 0.5)
    assert len(frame) == len(res.plan)
    bary = barycentric_projection(res.plan, mu, nu)
    assert bary.shape == (len(mu), mu.dim)
