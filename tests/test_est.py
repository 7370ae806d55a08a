"""Slice aggregation: averaged plans, distances, temperature, min-slice."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliced_transport import (
    NonUnitDirection,
    SliceSet,
    TransportError,
    est_plan,
    est_plan_tempered,
    gaussian_pair,
    lift_for_direction,
    make_measure,
    min_swgg,
    plan_cost,
    product_coupling,
    sample_sphere,
    sigma_tau_weights,
    validate_coupling,
)
from sliced_transport import lifting
from sliced_transport.measures import TransportPlan
from sliced_transport.slicing import project
from util import adversarial_pair, random_pair, worked_example


def test_slice_set_uniform():
    s = SliceSet.uniform(sample_sphere(16, 3, seed=0))
    assert s.weights.tolist() == [1.0 / 16.0] * 16
    assert float(np.sum(s.weights)) == 1.0


def test_slice_set_rejects_non_unit_rows():
    dirs = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(TransportError):
        SliceSet.uniform(dirs)
    with pytest.raises(NonUnitDirection, match="^direction norm 2.0 "):
        SliceSet(dirs, np.array([0.5, 0.5]))


def test_slice_set_rejects_nan_rows():
    with pytest.raises(TransportError):
        SliceSet.uniform(np.array([[np.nan, 1.0], [1.0, 0.0]]))


def test_slice_set_rejects_bad_weight_sum():
    dirs = sample_sphere(2, 2, seed=0)
    with pytest.raises(TransportError):
        SliceSet(dirs, np.array([0.7, 0.7]))


@pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.25, 0.25], [np.nan] * 4, [np.inf, 0.0, 0.0, 0.0]])
def test_slice_set_rejects_non_finite_weights(weights):
    # A NaN weight, a NaN sum and an infinite sum: comparisons with NaN are
    # False, so a check written as "fails when < 0" would let NaN through.
    with pytest.raises(TransportError, match="must be finite"):
        SliceSet(sample_sphere(4, 2, seed=0), np.array(weights))


def test_est_plan_is_valid_coupling():
    for seed in range(40):
        mu, nu = random_pair(seed, max_n=25)
        slices = SliceSet.uniform(sample_sphere(32, mu.dim, seed))
        res = est_plan(mu, nu, slices)
        ok, dev = validate_coupling(res.plan, mu, nu)
        assert ok, f"seed {seed}: deviation {dev}"


def test_est_distance_is_weighted_power_mean_of_slices():
    """distance^p equals the weighted sum of per-slice cost^p exactly
    as the sequential fold computes it."""
    mu, nu = random_pair(7, max_n=20)
    slices = SliceSet.uniform(sample_sphere(24, mu.dim, 3))
    res = est_plan(mu, nu, slices)
    acc = 0.0
    for w, c in zip(slices.weights, res.per_slice_costs):
        acc += float(w) * float(c) ** 2.0
    assert res.distance == math.sqrt(acc)


def test_est_plan_cost_identity():
    """plan_cost of the averaged plan agrees with the distance."""
    for seed in (0, 1, 2):
        mu, nu = random_pair(seed, max_n=18)
        slices = SliceSet.uniform(sample_sphere(48, mu.dim, seed))
        res = est_plan(mu, nu, slices)
        assert plan_cost(res.plan, mu, nu, 2.0) == pytest.approx(
            res.distance, rel=1e-10
        )


def test_est_self_distance_zero():
    mu, _ = random_pair(4, max_n=20)
    slices = SliceSet.uniform(sample_sphere(16, mu.dim, 0))
    res = est_plan(mu, mu, slices)
    assert res.distance == 0.0


def test_est_symmetry():
    mu, nu = random_pair(9, max_n=20)
    slices = SliceSet.uniform(sample_sphere(64, mu.dim, 1))
    fwd = est_plan(mu, nu, slices)
    bwd = est_plan(nu, mu, slices)
    assert fwd.distance == pytest.approx(bwd.distance, abs=1e-12)


def test_est_single_slice_equals_lift():
    mu, nu = random_pair(13, max_n=15)
    theta = sample_sphere(1, mu.dim, 2)
    res = est_plan(mu, nu, SliceSet.uniform(theta))
    plan, cost = lift_for_direction(mu, nu, theta[0])
    assert res.distance == pytest.approx(cost, rel=1e-14)
    np.testing.assert_array_equal(res.plan.i, plan.i)
    np.testing.assert_array_equal(res.plan.j, plan.j)
    np.testing.assert_allclose(res.plan.mass, plan.mass, atol=1e-16)


ENTRY_POINTS = {
    "est_plan": lambda mu, nu, dirs, **kw: est_plan(mu, nu, SliceSet.uniform(dirs), **kw),
    "est_plan_tempered": est_plan_tempered,
    "min_swgg": min_swgg,
}
BAD_VALUES = [
    ("p", {"p": 1.0}),
    ("p", {"p": 0.5}),
    ("p", {"p": math.nan}),
    ("p", {"p": math.inf}),
    ("grouping_tol", {"grouping_tol": math.nan}),
    ("grouping_tol", {"grouping_tol": -1e-9}),
    ("directions", {}),
    ("grouping_tol", {"grouping_tol": math.inf}),
]


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("name, kwargs", BAD_VALUES)
def test_entry_points_reject_bad_values_by_name(entry, name, kwargs):
    mu, nu = random_pair(2, max_n=10, min_d=2, max_d=2)
    dirs = sample_sphere(4, 2, 0)[: 0 if name == "directions" else 4]
    with pytest.raises(TransportError, match=f"^{name} must"):
        ENTRY_POINTS[entry](mu, nu, dirs, **kwargs)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
def test_tempered_rejects_bad_tau_by_name(tau):
    mu, nu = random_pair(2, max_n=10)
    with pytest.raises(TransportError, match="^tau must"):
        est_plan_tempered(mu, nu, sample_sphere(4, mu.dim, 0), tau=tau)
    with pytest.raises(TransportError, match="^tau must"):
        sigma_tau_weights(np.array([1.0, 2.0]), tau)
    # tau is checked before any slice is solved, so it wins over overflowing costs.
    mu, nu = gaussian_pair(20, 2, 3.0, 0)
    with pytest.raises(TransportError, match="^tau must"):
        est_plan_tempered(mu, nu, sample_sphere(4, 2, 0), p=2000, tau=tau)


OVERFLOWING = {
    **ENTRY_POINTS,
    "lift_for_direction": lambda mu, nu, dirs, p: lift_for_direction(mu, nu, dirs[0], p=p),
    "plan_cost": lambda mu, nu, dirs, p: plan_cost(product_coupling(mu, nu), mu, nu, p),
}


@pytest.mark.parametrize("entry", list(OVERFLOWING))
def test_overflowing_costs_raise_a_typed_error(entry):
    # |x - y|**2000 overflows for atoms more than ~1.43 apart; the overflow
    # is reported once, as the error, not as a numpy warning.
    mu, nu = gaussian_pair(size=20, dim=2, shift=3.0, seed=0)
    message = "plan cost overflows" if entry == "plan_cost" else "slice costs overflow"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TransportError, match=rf"^{message}: .* at p=2000\.0$"):
            OVERFLOWING[entry](mu, nu, sample_sphere(8, 2, 0), p=2000.0)


def test_est_worked_example_plan():
    src, tgt, theta = worked_example()
    res = est_plan(src, tgt, SliceSet.uniform(theta[None, :]))
    entries = {(i, j): m for i, j, m in res.plan.entries}
    assert entries[(1, 0)] == pytest.approx(0.4 * 0.3 / 0.9, abs=1e-12)
    assert entries[(2, 0)] == pytest.approx(0.4 * 0.6 / 0.9, abs=1e-12)


# ---------------------------------------------------------------------------
# temperature weighting


def test_sigma_tau_zero_is_exactly_uniform():
    costs = np.array([1.0, 5.0, 2.0, 9.0])
    w = sigma_tau_weights(costs, 0.0)
    assert w.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_sigma_tau_huge_is_one_hot():
    costs = np.array([3.0, 1.0, 2.0])
    w = sigma_tau_weights(costs, 1e12)
    assert w.tolist() == [0.0, 1.0, 0.0]


def test_sigma_tau_prefers_cheaper_slices():
    costs = np.array([1.0, 2.0, 3.0])
    w = sigma_tau_weights(costs, 1.0)
    assert w[0] > w[1] > w[2]
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    tau=st.floats(0.0, 100.0, allow_nan=False),
)
def test_sigma_tau_properties(seed, tau):
    """Nonnegative, sums to one, invariant to a constant cost shift."""
    rng = np.random.default_rng(seed)
    costs = rng.random(int(rng.integers(1, 30))) * 10
    w = sigma_tau_weights(costs, tau)
    assert np.all(w >= 0.0)
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-14)
    shifted = sigma_tau_weights(costs + 7.5, tau)
    np.testing.assert_allclose(w, shifted, atol=1e-12)


def test_tempered_tau_zero_matches_plain_est():
    mu, nu = random_pair(5, max_n=20)
    dirs = sample_sphere(32, mu.dim, 8)
    plain = est_plan(mu, nu, SliceSet.uniform(dirs))
    temp = est_plan_tempered(mu, nu, dirs, tau=0.0)
    assert temp.distance == plain.distance
    assert np.array_equal(temp.plan.mass, plain.plan.mass)


def test_tempered_huge_tau_equals_min_swgg():
    # d >= 2: on the line the +1/-1 slices tie at float level, so the
    # softmax legitimately splits weight instead of going one-hot.
    for seed in range(10):
        mu, nu = random_pair(seed, max_n=20, min_d=2)
        dirs = sample_sphere(64, mu.dim, seed + 100)
        temp = est_plan_tempered(mu, nu, dirs, tau=1e12)
        best, plan, cost = min_swgg(mu, nu, dirs)
        assert np.array_equal(temp.plan.i, plan.i)
        assert np.array_equal(temp.plan.j, plan.j)
        assert np.array_equal(temp.plan.mass, plan.mass)
        assert temp.distance == cost


def test_tempered_distance_decreases_with_tau():
    """Larger tau shifts weight toward cheaper slices, so the tempered
    distance is non-increasing along a tau ladder."""
    mu, nu = random_pair(17, max_n=25)
    dirs = sample_sphere(64, mu.dim, 4)
    ds = [
        est_plan_tempered(mu, nu, dirs, tau=t).distance
        for t in (0.0, 0.5, 2.0, 16.0, 1e6)
    ]
    for lo, hi in zip(ds[1:], ds[:-1]):
        assert lo <= hi + 1e-12


def test_min_swgg_picks_argmin():
    mu, nu = random_pair(3, max_n=15)
    dirs = sample_sphere(32, mu.dim, 12)
    best, plan, cost = min_swgg(mu, nu, dirs)
    costs = [lift_for_direction(mu, nu, d)[1] for d in dirs]
    assert best == int(np.argmin(costs))
    assert cost == costs[best]
    assert validate_coupling(plan, mu, nu)[0]
    lifted, _ = lift_for_direction(mu, nu, dirs[best])
    for field in ("i", "j", "mass"):
        assert getattr(plan, field).tobytes() == getattr(lifted, field).tobytes()


def test_min_swgg_tie_goes_to_the_lowest_index_across_blocks():
    # Along e2 the two target atoms tie, so slice 0 is grouped and comes
    # out of its chunk after the singleton slice 1; both cost exactly 1.
    mu = make_measure([(0.0, 0.0)], [1.0])
    nu = make_measure([(1.0, 0.0), (-1.0, 0.0)], [0.5, 0.5])
    dirs = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert [lift_for_direction(mu, nu, d)[1] for d in dirs] == [1.0, 1.0, 1.0]
    best, plan, cost = min_swgg(mu, nu, dirs)
    assert (best, cost, plan.entries) == (0, 1.0, [(0, 0, 0.5), (0, 1, 0.5)])


def subnormal_weight_case():
    """A pair and directions whose second-cheapest slice gets a subnormal
    tempered weight: weight * mass underflows to 0 on some entries."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((40, 2)), rng.standard_normal((40, 2))
    y[:, 0] += 3.0
    mu, nu = make_measure(x, np.full(40, 1 / 40)), make_measure(y, np.full(40, 1 / 40))
    dirs = sample_sphere(8, 2, 1)
    low, second = np.sort(est_plan_tempered(mu, nu, dirs).per_slice_costs ** 2)[:2]
    return mu, nu, dirs, 744 / (second - low)


@pytest.mark.parametrize("entry", ["est_plan_tempered", "est_plan"])
def test_subnormal_slice_weight_drops_underflowed_entries(entry):
    mu, nu, dirs, tau = subnormal_weight_case()
    if entry == "est_plan_tempered":
        res = est_plan_tempered(mu, nu, dirs, tau=tau)
        assert 0.0 < np.sort(res.slice_weights)[-2] < np.finfo(float).tiny
    else:
        weights = np.full(8, 1 / 7)
        weights[0] = 5e-324
        res = est_plan(mu, nu, SliceSet(dirs, weights))
    assert (res.plan.mass > 0).all()
    ok, dev = validate_coupling(res.plan, mu, nu)
    assert ok and dev <= 1e-9


@pytest.mark.parametrize("regime", ["exact-ties", "near-ties", "duplicates", "pareto"])
def test_internal_objects_equal_validated_rebuilds(regime):
    # project and the solvers build their results without the checks:
    # project's output holds the invariants ProjectedMeasure documents, and
    # rebuilding a plan through the checking constructor changes nothing.
    def same(a, b):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes() and not a.flags.writeable

    for seed in range(10):
        mu, nu, theta = adversarial_pair(regime, seed)
        for measure in (mu, nu):
            proj = project(measure, theta)
            values, masses = proj.class_values, proj.class_masses
            members, starts, weights = proj.member_indices, proj.class_starts, proj.member_weights
            for field in proj.__dataclass_fields__:
                assert not getattr(proj, field).flags.writeable
            assert values.dtype == masses.dtype == weights.dtype == np.float64
            assert members.dtype == starts.dtype == np.int64
            assert (values[1:] > values[:-1]).all()
            assert (masses > 0).all() and abs(float(masses.sum()) - 1.0) <= 1e-9
            assert starts[0] == 0 and starts[-1] == len(measure) and (starts[1:] > starts[:-1]).all()
            assert (np.bincount(members, minlength=len(measure)) == 1).all()
            assert len(members) == len(weights) == len(measure)
            assert float(np.abs(np.add.reduceat(weights, starts[:-1]) - masses).max()) <= 1e-12
        dirs = np.vstack([theta, sample_sphere(6, 2, seed)])
        plans = [est_plan(mu, nu, SliceSet.uniform(dirs)).plan,
                 est_plan_tempered(mu, nu, dirs, tau=50.0).plan, min_swgg(mu, nu, dirs)[1]]
        for plan in plans:
            rebuilt = TransportPlan(len(mu), len(nu), plan.i, plan.j, plan.mass)
            assert all(same(getattr(plan, f), getattr(rebuilt, f)) for f in ("i", "j", "mass"))


def test_est_plan_peak_memory_is_within_twice_the_plan():
    mu, nu = gaussian_pair(size=2000, dim=2, shift=1.0, seed=0)
    slices = SliceSet.uniform(sample_sphere(32, 2, 1))
    tracemalloc.start()
    try:
        plan = est_plan(mu, nu, slices).plan
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (plan.i.nbytes + plan.j.nbytes + plan.mass.nbytes)


def test_min_swgg_peak_memory_does_not_grow_with_the_slice_count():
    # 16 slices fill one chunk at n + m = 512; 256 slices take sixteen.
    mu, nu = gaussian_pair(size=256, dim=2, shift=1.0, seed=0)
    peaks = []
    for count in (16, 256):
        directions = sample_sphere(count, 2, 1)
        tracemalloc.start()
        try:
            min_swgg(mu, nu, directions)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("regime", ["exact-ties", "near-ties", "duplicates", "pareto"])
def test_outputs_do_not_depend_on_the_chunk_budget(regime, monkeypatch):
    default = lifting.CHUNK_ATOMS
    for seed in range(6):
        mu, nu, theta = adversarial_pair(regime, seed)
        dirs = np.vstack([sample_sphere(5, 2, seed), theta, sample_sphere(6, 2, seed + 1000)])
        atoms = len(mu) + len(nu)
        outputs = set()
        # One slice per chunk; five, so theta (slice 5) shares its chunk
        # with four random slices; the default; all L in one chunk.
        for budget in (1, 5 * atoms, default, len(dirs) * atoms):
            monkeypatch.setattr(lifting, "CHUNK_ATOMS", budget)
            res = est_plan(mu, nu, SliceSet.uniform(dirs))
            hot = est_plan_tempered(mu, nu, dirs, tau=5.0)
            best, plan, cost = min_swgg(mu, nu, dirs)
            arrays = (res.plan.i, res.plan.j, res.plan.mass, res.per_slice_costs,
                      hot.plan.i, hot.plan.j, hot.plan.mass, hot.slice_weights,
                      plan.i, plan.j, plan.mass)
            outputs.add((b"".join(a.tobytes() for a in arrays), res.distance, hot.distance,
                         best, cost))
        assert len(outputs) == 1, (regime, seed)
