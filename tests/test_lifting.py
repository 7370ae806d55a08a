"""Lifting 1D plans back to the ambient space: ``lift_for_direction`` and
the ``_spread`` kernel."""

import numpy as np
import pytest

from sliced_transport import (
    lift_for_direction,
    make_measure,
    plan_cost,
    project,
    sample_sphere,
    validate_coupling,
)
from sliced_transport import lifting
from sliced_transport.lifting import _layout, _spread
from sliced_transport.slicing import DEFAULT_GROUPING_TOL, _monotone
from util import (
    adversarial_pair,
    dense,
    lift_by_entry,
    northwest_corner,
    random_pair,
    worked_example,
)


def test_lift_worked_example_split():
    """One unit-mass class of two atoms splits 1:2 by target weight."""
    src, tgt, theta = worked_example()
    plan, _ = lift_for_direction(src, tgt, theta)

    entries = {(i, j): m for i, j, m in plan.entries}
    # Source class {1,2} (mass 0.9, weights 0.3/0.6) ships 0.4 to the lone
    # atom of target class 0, splitting 1:2.  The 0.5 it ships to target
    # class {1,2} (weights 0.3/0.2) splits on both sides.
    assert entries[(0, 0)] == pytest.approx(0.1, abs=1e-12)
    assert entries[(1, 0)] == pytest.approx(0.4 * (0.3 / 0.9), abs=1e-12)
    assert entries[(2, 0)] == pytest.approx(0.4 * (0.6 / 0.9), abs=1e-12)
    assert entries[(1, 1)] == pytest.approx(0.5 * (0.3 / 0.9) * (0.3 / 0.5), abs=1e-12)
    assert entries[(1, 2)] == pytest.approx(0.5 * (0.3 / 0.9) * (0.2 / 0.5), abs=1e-12)
    assert entries[(2, 1)] == pytest.approx(0.5 * (0.6 / 0.9) * (0.3 / 0.5), abs=1e-12)
    assert entries[(2, 2)] == pytest.approx(0.5 * (0.6 / 0.9) * (0.2 / 0.5), abs=1e-12)
    assert len(entries) == 7

    ok, dev = validate_coupling(plan, src, tgt)
    assert ok, dev


def test_lift_singleton_classes_is_direct_copy():
    """With no grouping the lifted plan reuses the 1D entries verbatim."""
    mu = make_measure([(0.0, 0.0), (1.0, 0.5), (2.0, -0.5)], [0.2, 0.3, 0.5])
    nu = make_measure([(0.5, 1.0), (1.5, 1.0)], [0.6, 0.4])
    theta = np.array([1.0, 0.0])
    ps, pt = project(mu, theta), project(nu, theta)
    assert ps.n_classes == len(mu) and pt.n_classes == len(nu)
    _, a, _, mass = _monotone(ps.class_masses[None], pt.class_masses[None])
    plan, _ = lift_for_direction(mu, nu, theta)
    assert len(plan.entries) == len(a)
    np.testing.assert_array_equal(np.sort(plan.mass), np.sort(mass))


def test_lift_for_direction_cost_matches_plan_cost():
    """The per-slice cost returned alongside the plan is the plan's cost."""
    for seed in range(30):
        mu, nu = random_pair(seed, max_n=20)
        theta = sample_sphere(1, mu.dim, seed + 1)[0]
        plan, cost = lift_for_direction(mu, nu, theta)
        assert cost == pytest.approx(plan_cost(plan, mu, nu, 2.0), rel=1e-12)


def test_lift_for_direction_valid_coupling_grouped_or_not():
    # Atoms placed so projections collide for theta = e1.
    mu = make_measure(
        [(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (1.0, 3.0)], [0.1, 0.2, 0.3, 0.4]
    )
    nu = make_measure([(2.0, 0.0), (2.0, 5.0), (4.0, 1.0)], [0.3, 0.3, 0.4])
    theta = np.array([1.0, 0.0])
    plan, _ = lift_for_direction(mu, nu, theta)
    ok, dev = validate_coupling(plan, mu, nu)
    assert ok
    assert dev < 1e-12


def test_lift_p_changes_cost_not_plan():
    mu, nu = random_pair(11, max_n=15)
    theta = sample_sphere(1, mu.dim, 5)[0]
    plan2, cost2 = lift_for_direction(mu, nu, theta, p=2.0)
    plan3, cost3 = lift_for_direction(mu, nu, theta, p=3.0)
    np.testing.assert_array_equal(plan2.i, plan3.i)
    np.testing.assert_array_equal(plan2.j, plan3.j)
    np.testing.assert_array_equal(plan2.mass, plan3.mass)
    assert cost2 != cost3


# ---------------------------------------------------------------------------
# the array kernels against the loops they replaced


def _reference_slice(mu, nu, theta):
    """Dense lifted plan of one slice from the reference loops, and whether
    the slice has a class of more than one atom."""
    ps, pt = project(mu, theta), project(nu, theta)
    entries = northwest_corner(ps.class_masses, pt.class_masses)
    grouped = ps.n_classes < len(mu) or pt.n_classes < len(nu)
    return dense(*lift_by_entry(ps, pt, *entries), (len(mu), len(nu))), grouped


@pytest.mark.parametrize("regime", ["exact-ties", "near-ties", "duplicates", "pareto"])
def test_kernels_match_the_reference_loops(regime, monkeypatch):
    eps = np.finfo(float).eps
    grouped = floored = mixed = 0
    monkeypatch.setattr(lifting, "CHUNK_ATOMS", 10**6)
    for seed in range(30):
        mu, nu, theta = adversarial_pair(regime, seed)
        tol = 16 * (len(mu) + len(nu)) * eps
        # One chunk of slices: theta and three random directions, so
        # grouped and all-singleton slices can share it.
        directions = np.vstack([sample_sphere(2, 2, seed), theta, sample_sphere(1, 2, seed + 1000)])
        kinds = set()
        for slices, bounds, i, j, mass, _ in lifting._chunks(
            mu, nu, directions, 2.0, DEFAULT_GROUPING_TOL
        ):
            for k, lo, hi in zip(slices, bounds[:-1], bounds[1:]):
                got = dense(i[lo:hi], j[lo:hi], mass[lo:hi], (len(mu), len(nu)))
                want, grouped_slice = _reference_slice(mu, nu, directions[k])
                kinds.add(grouped_slice)
                assert np.abs(got - want).max() <= tol, (regime, seed, k)
        mixed += len(kinds) == 2
        ps, pt = project(mu, theta), project(nu, theta)
        grouped += ps.n_classes < len(mu) or pt.n_classes < len(nu)
        shape = (ps.n_classes, pt.n_classes)
        _, a, b, m1d = _monotone(ps.class_masses[None], pt.class_masses[None])
        got = dense(a, b, m1d, shape)
        want = dense(*northwest_corner(ps.class_masses, pt.class_masses), shape)
        assert np.abs(got - want).max() <= tol, (regime, seed)
        i, j, mass = _spread(a, b, m1d, _layout(ps), _layout(pt))
        got = dense(i, j, mass, (len(mu), len(nu)))
        want = dense(*lift_by_entry(ps, pt, a, b, m1d), (len(mu), len(nu)))
        assert np.abs(got - want).max() <= tol, (regime, seed)
        pairs = np.diff(ps.class_starts)[a] * np.diff(pt.class_starts)[b]
        floored += len(mass) < pairs.sum()
    assert grouped > 0
    assert floored > 0 or regime != "pareto"  # the mass floor drops entries
    # In the other regimes repeated atoms group (nearly) every slice.
    assert mixed > 0 or regime != "near-ties"
