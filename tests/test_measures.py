"""Measure and plan construction, costs, and coupling checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliced_transport import (
    DimensionMismatch,
    DiscreteMeasure,
    IndexOutOfRange,
    NonFiniteAtoms,
    NonPositiveTotalMass,
    TransportError,
    TransportPlan,
    WeightSumOutOfTolerance,
    identity_coupling,
    lift_for_direction,
    make_measure,
    plan_cost,
    product_coupling,
    sample_sphere,
    validate_coupling,
)
from sliced_transport.measures import _plan_costs
from util import plan_costs_by_fancy_index, random_pair, random_measure


def test_make_measure_keeps_atoms_and_weights():
    m = make_measure([(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)], [0.2, 0.3, 0.5])
    assert len(m) == 3
    assert m.dim == 2
    np.testing.assert_array_equal(m.weights, [0.2, 0.3, 0.5])
    np.testing.assert_array_equal(m.atoms[1], [2.0, 3.0])


def test_make_measure_weight_sum_lands_within_rounding():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w = rng.random(11)
        w = w / w.sum()
        m = make_measure(rng.standard_normal((11, 3)), w)
        assert abs(float(np.sum(m.weights)) - 1.0) < 1e-14


def test_make_measure_drops_zero_weight_atoms():
    m = make_measure([(0.0,), (1.0,), (2.0,)], [0.5, 0.0, 0.5])
    assert len(m) == 2
    np.testing.assert_array_equal(m.atoms[:, 0], [0.0, 2.0])


def test_make_measure_renormalizes_near_one():
    # Sum is 1 + 5e-10: inside tolerance, renormalized away.
    m = make_measure([(0.0,), (1.0,)], [0.5, 0.5 + 5e-10])
    assert float(np.sum(m.weights)) == pytest.approx(1.0, abs=1e-15)
    assert m.weights[0] < 0.5


def test_make_measure_accepts_scalar_atoms_as_1d():
    m = make_measure([3.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    assert m.dim == 1
    assert m.atoms.shape == (3, 1)


def test_make_measure_duplicate_atoms_stay_distinct():
    m = make_measure([(1.0, 2.0), (1.0, 2.0)], [0.5, 0.5])
    assert len(m) == 2


def test_make_measure_rejects_ragged_atoms():
    with pytest.raises(DimensionMismatch):
        make_measure([(0.0, 1.0), (2.0,)], [0.5, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measures_reject_non_finite_atoms(bad):
    with pytest.raises(NonFiniteAtoms):
        DiscreteMeasure(np.array([[0.0, 1.0], [bad, 2.0]]), np.array([0.5, 0.5]))
    with pytest.raises(NonFiniteAtoms):
        make_measure([(0.0, 1.0), (2.0, bad)], [0.5, 0.5])


def test_make_measure_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        make_measure([(0.0, 1.0), (2.0, 3.0)], [1.0])


def test_make_measure_rejects_negative_weight():
    with pytest.raises(NonPositiveTotalMass):
        make_measure([(0.0,), (1.0,)], [1.5, -0.5])


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [0.5, math.nan, 0.5], [math.nan, math.nan]])
def test_make_measure_rejects_nan_weights(weights):
    # NaN passes "< 0", "<= 0" and the sum tolerance alike; the message
    # must not call it non-positive.
    with pytest.raises(NonPositiveTotalMass, match="^weights must be finite and nonnegative$"):
        make_measure(np.zeros((len(weights), 1)), weights)


def test_make_measure_copies_the_atoms_once_and_leaves_the_caller_writable():
    rng = np.random.default_rng(0)
    atoms, weights = rng.standard_normal((50, 3)), np.full(50, 1 / 50)
    m = make_measure(atoms, weights)
    assert atoms.flags.writeable and weights.flags.writeable
    assert not np.shares_memory(m.atoms, atoms) and not np.shares_memory(m.weights, weights)
    assert m.atoms.tobytes() == atoms.tobytes()
    assert m.weights.tobytes() == (weights / weights.sum()).tobytes()


def test_make_measure_rejects_zero_total():
    with pytest.raises(NonPositiveTotalMass):
        make_measure([(0.0,), (1.0,)], [0.0, 0.0])


def test_make_measure_rejects_empty():
    with pytest.raises(NonPositiveTotalMass):
        make_measure([], [])


def test_make_measure_rejects_bad_sum():
    with pytest.raises(WeightSumOutOfTolerance):
        make_measure([(0.0,), (1.0,)], [0.5, 0.4])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_make_measure_idempotent(seed):
    """Re-validating an already-valid measure moves nothing beyond an ulp."""
    rng = np.random.default_rng(seed)
    m = random_measure(rng, int(rng.integers(1, 20)), int(rng.integers(1, 4)))
    m2 = make_measure(m.atoms, m.weights)
    np.testing.assert_array_equal(m.atoms, m2.atoms)
    np.testing.assert_allclose(m.weights, m2.weights, rtol=1e-15, atol=0)


def test_measure_arrays_are_readonly():
    m = make_measure([(0.0,), (1.0,)], [0.5, 0.5])
    with pytest.raises(ValueError):
        m.atoms[0, 0] = 7.0
    with pytest.raises(ValueError):
        m.weights[0] = 0.9


# ---------------------------------------------------------------------------
# transport plans


def test_plan_canonical_order_and_entries():
    plan = TransportPlan(2, 2, [1, 0], [0, 1], [0.5, 0.5])
    assert plan.entries == [(0, 1, 0.5), (1, 0, 0.5)]


def test_plan_order_is_the_lexicographic_order_and_leaves_inputs_writable():
    rng = np.random.default_rng(0)
    keys = rng.choice(40 * 30, size=300, replace=False)
    i, j, mass = keys // 30, keys % 30, rng.random(300) + 0.1
    plan = TransportPlan(40, 30, i, j, mass)
    order = np.lexsort((j, i))
    assert np.array_equal(plan.i, i[order]) and np.array_equal(plan.j, j[order])
    assert np.array_equal(plan.mass, mass[order])
    assert i.flags.writeable and j.flags.writeable and mass.flags.writeable


def test_plan_rejects_duplicate_pairs():
    with pytest.raises(TransportError):
        TransportPlan(2, 2, [0, 0], [1, 1], [0.25, 0.25])


def test_plan_rejects_nonpositive_mass():
    with pytest.raises(TransportError):
        TransportPlan(1, 1, [0], [0], [0.0])


def test_plan_rejects_out_of_range_indices():
    with pytest.raises(IndexOutOfRange):
        TransportPlan(2, 2, [0, 2], [0, 1], [0.5, 0.5])
    with pytest.raises(IndexOutOfRange):
        TransportPlan(2, 2, [0, 1], [0, -1], [0.5, 0.5])
    with pytest.raises(IndexOutOfRange, match="int64"):
        TransportPlan(2**32, 2**31, [0], [0], [1.0])


def test_plan_cost_single_dirac_pair():
    mu = make_measure([(0.0, 0.0)], [1.0])
    nu = make_measure([(3.0, 4.0)], [1.0])
    plan = TransportPlan(1, 1, [0], [0], [1.0])
    assert plan_cost(plan, mu, nu, 2.0) == 5.0


def test_plan_cost_frozen_two_entry_value():
    # 0.5 * 1^2 + 0.5 * 3^2 = 5, so the rooted cost is sqrt(5).
    mu = make_measure([(0.0,), (0.0,)], [0.5, 0.5])
    nu = make_measure([(1.0,), (3.0,)], [0.5, 0.5])
    plan = TransportPlan(2, 2, [0, 1], [0, 1], [0.5, 0.5])
    assert plan_cost(plan, mu, nu, 2.0) == pytest.approx(math.sqrt(5.0), abs=1e-15)


def test_plan_cost_requires_p_above_one():
    mu = make_measure([(0.0,)], [1.0])
    with pytest.raises(TransportError):
        plan_cost(identity_coupling(mu), mu, mu, 1.0)


def test_plan_cost_checks_sizes():
    mu = make_measure([(0.0,), (1.0,)], [0.5, 0.5])
    nu = make_measure([(0.0,)], [1.0])
    with pytest.raises(IndexOutOfRange):
        plan_cost(identity_coupling(mu), mu, nu)


def test_plan_cost_symmetric_under_transpose():
    for seed in range(10):
        mu, nu = random_pair(seed, max_n=12)
        plan = product_coupling(mu, nu)
        flipped = TransportPlan(len(nu), len(mu), plan.j, plan.i, plan.mass)
        a = plan_cost(plan, mu, nu, 2.0)
        b = plan_cost(flipped, nu, mu, 2.0)
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_plan_costs_match_the_reference_bit_for_bit(d, p):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((30, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    y = rng.standard_normal((20, d))
    # Repeated indices, and one-entry segments between longer ones.
    i, j = rng.integers(0, 30, 300), rng.integers(0, 20, 300)
    i[:60], j[100:140] = 3, 7
    mass = rng.random(300) * 10.0 ** rng.integers(-20, 1, size=300)
    for bounds in ([0, 300], [0, 1, 2, 40, 41, 120, 299, 300], list(range(301))):
        got = _plan_costs(x, y, i, j, mass, p, np.array(bounds))
        want = plan_costs_by_fancy_index(x, y, i, j, mass, p, np.array(bounds))
        assert got.tobytes() == want.tobytes()


def test_validate_coupling_product_is_exact():
    mu = make_measure([(0.0,), (1.0,)], [0.5, 0.5])
    nu = make_measure([(2.0,), (3.0,)], [0.5, 0.5])
    ok, dev = validate_coupling(product_coupling(mu, nu), mu, nu)
    assert ok
    assert dev == 0.0


def test_validate_coupling_detects_missing_mass():
    mu = make_measure([(0.0,), (1.0,)], [0.5, 0.5])
    nu = make_measure([(2.0,), (3.0,)], [0.5, 0.5])
    broken = TransportPlan(2, 2, [0, 1, 1], [0, 0, 1], [0.25, 0.25, 0.25])
    ok, dev = validate_coupling(broken, mu, nu)
    assert not ok
    assert dev == pytest.approx(0.25, abs=1e-15)


def test_validate_coupling_size_mismatch_raises():
    mu = make_measure([(0.0,), (1.0,)], [0.5, 0.5])
    nu = make_measure([(2.0,)], [1.0])
    with pytest.raises(IndexOutOfRange):
        validate_coupling(identity_coupling(mu), mu, nu)


def test_identity_coupling_is_valid():
    rng = np.random.default_rng(3)
    m = random_measure(rng, 9, 2)
    ok, dev = validate_coupling(identity_coupling(m), m, m)
    assert ok and dev == 0.0


def test_lifted_plans_are_couplings_over_many_seeds():
    """Lifting along a random direction always yields a valid coupling."""
    for seed in range(100):
        mu, nu = random_pair(seed, max_n=16)
        theta = sample_sphere(1, mu.dim, seed)[0]
        plan, _ = lift_for_direction(mu, nu, theta)
        ok, dev = validate_coupling(plan, mu, nu)
        assert ok, f"seed {seed}: deviation {dev}"
