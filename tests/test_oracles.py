"""Reference solvers: exact LP plans, 1D quantile integration, entropic plans."""

import math
import warnings

import numpy as np
import pytest

from sliced_transport import (
    InstanceTooLarge,
    MassImbalance,
    TransportError,
    gaussian_pair,
    make_measure,
    plan_cost,
    product_coupling,
    sinkhorn,
    validate_coupling,
    wasserstein_1d,
    wasserstein_exact,
)
from util import random_pair


def test_exact_dirac_pair_is_euclidean_distance():
    mu = make_measure([(0.0, 0.0)], [1.0])
    nu = make_measure([(3.0, 4.0)], [1.0])
    plan, dist = wasserstein_exact(mu, nu)
    assert dist == 5.0
    assert plan.entries == [(0, 0, 1.0)]


def test_exact_dirac_pair_any_p():
    # A single shipment of unit mass roots back to the raw distance.
    mu = make_measure([(0.0, 0.0)], [1.0])
    nu = make_measure([(3.0, 4.0)], [1.0])
    for p in (1.5, 2.0, 3.0):
        assert wasserstein_exact(mu, nu, p)[1] == pytest.approx(5.0, rel=1e-12)


def test_exact_frozen_line_instance():
    # Monotone optimum ships 0.4 across a unit gap: W2 = sqrt(0.4).
    mu = make_measure([(0.0,), (1.0,)], [0.5, 0.5])
    nu = make_measure([(0.0,), (1.0,)], [0.9, 0.1])
    plan, dist = wasserstein_exact(mu, nu)
    assert dist == pytest.approx(0.6324555320336759, abs=1e-12)
    ok, dev = validate_coupling(plan, mu, nu)
    assert ok, dev


def test_exact_never_beaten_by_feasible_couplings():
    for seed in range(15):
        mu, nu = random_pair(seed, max_n=12)
        _, dist = wasserstein_exact(mu, nu)
        assert dist <= plan_cost(product_coupling(mu, nu), mu, nu) + 1e-12


def test_exact_symmetric():
    for seed in range(8):
        mu, nu = random_pair(seed, max_n=12)
        assert wasserstein_exact(mu, nu)[1] == pytest.approx(
            wasserstein_exact(nu, mu)[1], rel=1e-10
        )


def test_exact_plans_are_sparse_vertices():
    """A basic LP solution has at most n + m - 1 active entries."""
    for seed in range(10):
        mu, nu = random_pair(seed, max_n=15)
        plan, _ = wasserstein_exact(mu, nu)
        assert len(plan) <= len(mu) + len(nu) - 1


def test_exact_size_guard():
    n = 501
    w = np.full(n, 1.0 / n)
    mu = make_measure(np.arange(n, dtype=float).reshape(-1, 1), w)
    with pytest.raises(InstanceTooLarge):
        wasserstein_exact(mu, mu)


def test_exact_rejects_p_at_most_one():
    mu = make_measure([(0.0,)], [1.0])
    with pytest.raises(TransportError):
        wasserstein_exact(mu, mu, p=1.0)


# ---------------------------------------------------------------------------
# 1D quantile integration


def test_wasserstein_1d_frozen_values():
    got = wasserstein_1d([0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [0.9, 0.1])
    assert got == pytest.approx(math.sqrt(0.4), abs=1e-15)
    got = wasserstein_1d(
        [0.0, 1.0], [0.5, 0.5], [0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3]
    )
    assert got == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_wasserstein_1d_translation():
    # Shifting one measure by c moves W2 to exactly |c| for equal shapes.
    pos = [0.0, 1.0, 4.0]
    w = [0.2, 0.3, 0.5]
    got = wasserstein_1d(pos, w, [x + 2.5 for x in pos], w)
    assert got == pytest.approx(2.5, abs=1e-12)


def test_wasserstein_1d_order_invariant():
    rng = np.random.default_rng(0)
    pos = rng.standard_normal(9)
    w = rng.random(9)
    w = w / w.sum()
    perm = rng.permutation(9)
    a = wasserstein_1d(pos, w, pos * 2 + 1, w)
    b = wasserstein_1d(pos[perm], w[perm], pos * 2 + 1, w)
    assert a == pytest.approx(b, rel=1e-14)


def test_wasserstein_1d_agrees_with_exact_lp():
    for seed in range(40):
        mu, nu = random_pair(seed, max_n=20, max_d=1)
        _, lp = wasserstein_exact(mu, nu)
        quant = wasserstein_1d(
            mu.atoms[:, 0], mu.weights, nu.atoms[:, 0], nu.weights
        )
        assert lp == pytest.approx(quant, rel=1e-8, abs=1e-10)


def test_wasserstein_1d_rejects_imbalance():
    with pytest.raises(MassImbalance):
        wasserstein_1d([0.0], [1.0], [0.0], [0.5])


def test_wasserstein_1d_rejects_negative_weight():
    with pytest.raises(TransportError):
        wasserstein_1d([0.0, 1.0], [1.5, -0.5], [0.0], [1.0])


@pytest.mark.parametrize("u_pos, u_w, what", [
    ([0.0, 1.0], [math.nan, 1.0], "weights"),
    ([0.0, 1.0], [math.inf, 1.0], "weights"),
    ([math.nan, 1.0], [0.5, 0.5], "positions"),
    ([math.inf, 1.0], [0.5, 0.5], "positions"),
])
def test_wasserstein_1d_rejects_non_finite_input(u_pos, u_w, what):
    with pytest.raises(TransportError, match=f"^{what} must be finite"):
        wasserstein_1d(u_pos, u_w, [0.0, 2.0], [0.5, 0.5])
    with pytest.raises(TransportError, match=f"^{what} must be finite"):
        wasserstein_1d([0.0, 2.0], [0.5, 0.5], u_pos, u_w)


# ---------------------------------------------------------------------------
# entropic plans


def test_sinkhorn_converges_and_couples():
    mu, nu = random_pair(2, max_n=12, uniform=True)
    plan, err = sinkhorn(mu, nu, lam=1.0)
    assert err < 1e-9
    ok, dev = validate_coupling(plan, mu, nu, tol=1e-6)
    assert ok, dev


def test_sinkhorn_cost_dominates_exact():
    mu, nu = random_pair(6, max_n=12)
    _, exact = wasserstein_exact(mu, nu)
    plan, err = sinkhorn(mu, nu, lam=0.5)
    assert err < 1e-9
    assert plan_cost(plan, mu, nu) >= exact - 1e-9


def test_sinkhorn_smaller_lambda_is_sharper():
    mu, nu = random_pair(9, max_n=12)
    _, exact = wasserstein_exact(mu, nu)
    loose = plan_cost(sinkhorn(mu, nu, lam=5.0)[0], mu, nu)
    tight = plan_cost(sinkhorn(mu, nu, lam=0.05, max_iters=20000)[0], mu, nu)
    assert abs(tight - exact) < abs(loose - exact)
    assert abs(tight - exact) < 1e-2 * max(exact, 1.0)


def test_sinkhorn_trace_tracks_error():
    mu, nu = random_pair(4, max_n=10)
    plan, err, trace = sinkhorn(mu, nu, lam=1.0, return_trace=True)
    assert trace[-1] == err
    assert len(trace) <= 5000
    # errors shrink by orders of magnitude from first to last iterate
    assert trace[-1] < trace[0] * 1e-3


def test_sinkhorn_nonconvergence_reported_not_raised():
    mu, nu = random_pair(4, max_n=10)
    plan, err = sinkhorn(mu, nu, lam=0.01, max_iters=3)
    assert err > 1e-9  # nowhere near converged after 3 rounds
    assert len(plan) >= 1


def test_sinkhorn_degenerate_kernel_falls_back_to_product():
    # The costs are finite but cost / lam overflows, the kernel dies, and
    # the product coupling comes back with an infinite reported error.
    mu = make_measure([(0.0,), (1.0,)], [0.5, 0.5])
    nu = make_measure([(1e100,), (2e100,)], [0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan, err = sinkhorn(mu, nu, lam=1e-200)
    assert err == np.inf
    expect = product_coupling(mu, nu)
    assert plan.entries == expect.entries


def wasserstein_1d_first_axis(mu, nu, p):
    return wasserstein_1d(mu.atoms[:, 0], mu.weights, nu.atoms[:, 0], nu.weights, p=p)


@pytest.mark.parametrize("solver", [wasserstein_exact, sinkhorn, wasserstein_1d_first_axis])
def test_overflowing_costs_raise_a_typed_error(solver):
    mu, nu = gaussian_pair(size=20, dim=2, shift=3.0, seed=0)
    costs = "1D" if solver is wasserstein_1d_first_axis else "pairwise"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TransportError, match=rf"^{costs} costs overflow: .* at p=2000\.0$"):
            solver(mu, nu, p=2000.0)


def test_sinkhorn_rejects_bad_parameters():
    mu = make_measure([(0.0,)], [1.0])
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(TransportError, match="^lam must be positive and finite"):
            sinkhorn(mu, mu, lam=lam)
    with pytest.raises(TransportError):
        sinkhorn(mu, mu, p=1.0)
    for max_iters in (0, -1, 2.5):
        with pytest.raises(TransportError, match="^max_iters must be an integer >= 1"):
            sinkhorn(mu, mu, max_iters=max_iters)
