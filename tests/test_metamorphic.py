"""Metamorphic checks: transformations of the input with a known effect on the output.

Every pair used here has all sorted projection gaps, on every direction and
after every transformation, wider than 1e3 grouping tolerances, so each
transformation leaves the grouping (all singletons) unchanged and the
distance may differ only by rounding.
"""

import numpy as np
import pytest

from sliced_transport import DiscreteMeasure, SliceSet, est_plan, min_swgg, sample_sphere
from sliced_transport.slicing import DEFAULT_GROUPING_TOL
from util import dense, random_pair

SEEDS = range(12)
SLICES = 16
REL = 1e-12


def _case(seed):
    mu, nu = random_pair(seed, max_n=30, min_d=2, max_d=5)
    return mu, nu, sample_sphere(SLICES, mu.dim, seed)


def _assert_gaps_clear(measure, directions):
    """No two sorted projections within 1e3 effective grouping tolerances."""
    values = np.sort(measure.atoms @ directions.T, axis=0)
    scale = np.maximum(1.0, np.abs(values).max(axis=0))
    assert np.all(np.diff(values, axis=0) > 1e3 * DEFAULT_GROUPING_TOL * scale)


def _distances(mu, nu, directions):
    for measure in (mu, nu):
        _assert_gaps_clear(measure, directions)
    res = est_plan(mu, nu, SliceSet.uniform(directions))
    _, swgg_plan, swgg_cost = min_swgg(mu, nu, directions)
    return res, swgg_plan, swgg_cost


def _plan_matrix(plan):
    return dense(plan.i, plan.j, plan.mass, (plan.source_size, plan.target_size))


@pytest.mark.parametrize("seed", SEEDS)
def test_atom_permutation_permutes_the_plan(seed):
    mu, nu, dirs = _case(seed)
    rng = np.random.default_rng([seed, 1])
    sigma, tau = rng.permutation(len(mu)), rng.permutation(len(nu))
    # DiscreteMeasure, not make_measure: renormalizing would change the weights' bits.
    mu_p = DiscreteMeasure(mu.atoms[sigma], mu.weights[sigma])
    nu_p = DiscreteMeasure(nu.atoms[tau], nu.weights[tau])
    res, swgg_plan, swgg_cost = _distances(mu, nu, dirs)
    res_p, swgg_plan_p, swgg_cost_p = _distances(mu_p, nu_p, dirs)
    assert res_p.distance == pytest.approx(res.distance, rel=REL)
    assert swgg_cost_p == pytest.approx(swgg_cost, rel=REL)
    for plan, plan_p in ((res.plan, res_p.plan), (swgg_plan, swgg_plan_p)):
        expect = _plan_matrix(plan)[np.ix_(sigma, tau)]
        np.testing.assert_allclose(_plan_matrix(plan_p), expect, rtol=REL, atol=0)


@pytest.mark.parametrize("seed", SEEDS)
def test_reversed_directions_keep_the_distance(seed):
    mu, nu, dirs = _case(seed)
    res, _, swgg_cost = _distances(mu, nu, dirs)
    res_r, _, swgg_cost_r = _distances(mu, nu, -dirs)
    assert res_r.distance == pytest.approx(res.distance, rel=REL)
    assert swgg_cost_r == pytest.approx(swgg_cost, rel=REL)


@pytest.mark.parametrize("seed", SEEDS)
def test_joint_translation_keeps_the_distance(seed):
    mu, nu, dirs = _case(seed)
    shift = 5.0 * np.random.default_rng([seed, 2]).standard_normal(mu.dim)
    mu_t = DiscreteMeasure(mu.atoms + shift, mu.weights)
    nu_t = DiscreteMeasure(nu.atoms + shift, nu.weights)
    res, _, swgg_cost = _distances(mu, nu, dirs)
    res_t, _, swgg_cost_t = _distances(mu_t, nu_t, dirs)
    assert res_t.distance == pytest.approx(res.distance, rel=REL)
    assert swgg_cost_t == pytest.approx(swgg_cost, rel=REL)


@pytest.mark.parametrize("k", [-3, -1, 3, 20])
@pytest.mark.parametrize("seed", SEEDS)
def test_scaling_by_a_power_of_two_scales_the_distance(seed, k):
    mu, nu, dirs = _case(seed)
    c = 2.0**k
    mu_s = DiscreteMeasure(mu.atoms * c, mu.weights)
    nu_s = DiscreteMeasure(nu.atoms * c, nu.weights)
    res, _, swgg_cost = _distances(mu, nu, dirs)
    res_s, _, swgg_cost_s = _distances(mu_s, nu_s, dirs)
    assert res_s.distance == pytest.approx(c * res.distance, rel=REL)
    assert swgg_cost_s == pytest.approx(c * swgg_cost, rel=REL)
