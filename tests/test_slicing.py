"""Projection onto lines, 1D monotone plans, and direction sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliced_transport import (
    NonUnitDirection,
    TransportError,
    make_measure,
    project,
    sample_sphere,
)
from sliced_transport.slicing import DEFAULT_GROUPING_TOL, _monotone, _projections, _sort_rows
from util import (
    adversarial_pair,
    monotone_by_counts,
    random_measure,
    running_representative_starts,
    worked_example,
)


def test_project_groups_equal_projections():
    src, _, theta = worked_example()
    proj = project(src, theta)
    # (1,1) and (1,-1) collapse onto the same point of the line.
    assert proj.n_classes == 2
    np.testing.assert_allclose(proj.class_values, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(proj.class_masses, [0.1, 0.9], atol=1e-15)
    np.testing.assert_array_equal(proj.class_starts, [0, 1, 3])
    assert proj.member_indices[:1].tolist() == [0]
    np.testing.assert_array_equal(proj.member_weights[:1], [0.1])
    assert sorted(proj.member_indices[1:].tolist()) == [1, 2]
    assert float(np.sum(proj.member_weights[1:])) == pytest.approx(0.9, abs=1e-15)


def test_project_worked_example_target():
    _, tgt, theta = worked_example()
    proj = project(tgt, theta)
    assert proj.n_classes == 2
    np.testing.assert_allclose(proj.class_values, [2.0, 3.0], atol=1e-15)
    np.testing.assert_allclose(proj.class_masses, [0.5, 0.5], atol=1e-15)


def test_project_all_singletons_when_projections_differ():
    m = make_measure([(0.0,), (1.0,), (2.0,)], [0.2, 0.3, 0.5])
    proj = project(m, np.array([1.0]))
    assert proj.n_classes == len(proj.member_indices) == 3
    np.testing.assert_array_equal(proj.class_values, [0.0, 1.0, 2.0])


def test_project_sorts_by_projection_value():
    m = make_measure([(5.0,), (1.0,), (3.0,)], [0.2, 0.3, 0.5])
    proj = project(m, np.array([1.0]))
    np.testing.assert_array_equal(proj.class_values, [1.0, 3.0, 5.0])
    # member_indices point back into the original atom order
    assert proj.member_indices.tolist() == [1, 2, 0]


def test_project_rejects_non_unit_direction():
    m = make_measure([(0.0, 0.0)], [1.0])
    with pytest.raises(NonUnitDirection):
        project(m, np.array([1.0, 1.0]))


def test_project_rejects_nan_direction():
    m = make_measure([(0.0, 0.0)], [1.0])
    with pytest.raises(NonUnitDirection):
        project(m, np.array([np.nan, 1.0]))


def test_project_rejects_dimension_mismatch():
    m = make_measure([(0.0, 0.0)], [1.0])
    with pytest.raises(TransportError):
        project(m, np.array([1.0]))


def test_project_grouping_tol_is_relative():
    # Gap of 1e-6 between projections of size ~1e3: merged at tol 1e-6
    # because the radius scales with max |projection|, kept at tol 1e-12.
    m = make_measure([(1000.0,), (1000.000001,)], [0.5, 0.5])
    theta = np.array([1.0])
    merged = project(m, theta, grouping_tol=1e-6)
    assert merged.n_classes == 1
    kept = project(m, theta, grouping_tol=1e-12)
    assert kept.n_classes == 2


def test_project_zero_tol_merges_exact_ties_only():
    m = make_measure([(0.0, 1.0), (0.0, -1.0), (1e-300, 0.0)], [0.3, 0.3, 0.4])
    theta = np.array([1.0, 0.0])
    proj = project(m, theta, grouping_tol=0.0)
    assert proj.n_classes == 2
    np.testing.assert_allclose(proj.class_masses, [0.6, 0.4], atol=1e-15)


def test_project_masses_partition_total():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        m = random_measure(rng, int(rng.integers(2, 30)), 3)
        theta = sample_sphere(1, 3, seed)[0]
        proj = project(m, theta)
        assert float(np.sum(proj.class_masses)) == pytest.approx(1.0, abs=1e-12)
        assert sorted(proj.member_indices.tolist()) == list(range(len(m)))


# ---------------------------------------------------------------------------
# grouping against the reference scan

E1, E2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
# A power of two, so that multiples of it in hand-built rows are exact.
TOL = 2.0**-30


def assert_grouped_like_the_scan(measure, directions, grouping_tol=DEFAULT_GROUPING_TOL):
    """Check the class openings of ``_sort_rows`` and the classes of ``project``
    along every direction against the reference scan; return the openings
    and the number of classes that opened after a gap within the tolerance."""
    directions = np.asarray(directions, dtype=float)
    order, values, opens = _sort_rows(measure.atoms, directions, grouping_tol)
    proj_rows = _projections(measure.atoms, directions)
    stable = np.argsort(proj_rows, axis=1, kind="stable")
    np.testing.assert_array_equal(order, stable)
    assert values.tobytes() == np.take_along_axis(proj_rows, stable, axis=1).tobytes()
    inside_runs = 0
    for row, theta in enumerate(directions):
        tol = grouping_tol * max(1.0, -values[row, 0], values[row, -1])
        starts = running_representative_starts(values[row], tol)
        np.testing.assert_array_equal(np.flatnonzero(opens[row]), starts[:-1])
        inside_runs += int(np.sum(np.diff(values[row])[starts[1:-1] - 1] <= tol))
        proj = project(measure, theta, grouping_tol)
        weights = measure.weights[order[row]]
        np.testing.assert_array_equal(proj.class_starts, starts)
        np.testing.assert_array_equal(proj.member_indices, order[row])
        np.testing.assert_array_equal(proj.class_values, values[row, starts[:-1]])
        np.testing.assert_allclose(
            proj.class_masses, [weights[lo:hi].sum() for lo, hi in zip(starts[:-1], starts[1:])],
            rtol=1e-14, atol=0,
        )
    return opens, inside_runs


def plane_measure(xs, ys):
    w = np.linspace(1.0, 2.0, len(xs))
    return make_measure(np.c_[xs, ys], w / w.sum())


@pytest.mark.parametrize("regime", ["exact-ties", "near-ties", "duplicates", "pareto"])
def test_grouping_matches_the_reference_scan(regime):
    inside_runs = 0
    for seed in range(30):
        mu, nu, theta = adversarial_pair(regime, seed)
        directions = np.vstack([theta, sample_sphere(3, 2, seed)])
        for measure in (mu, nu):
            inside_runs += assert_grouped_like_the_scan(measure, directions)[1]
    # Near-ties straddle the tolerance: some runs of close gaps span more.
    assert inside_runs > 0 or regime != "near-ties"


def test_grouping_opens_a_class_inside_a_chain_of_close_gaps():
    # Every gap is 0.6 tolerances, but every second value lies more than one
    # tolerance above the value that opened its class.
    chain = np.arange(12) * (0.6 * TOL)
    measure = plane_measure(chain, np.zeros(12))
    opens, inside_runs = assert_grouped_like_the_scan(measure, [E1, -E1, E2], TOL)
    assert np.flatnonzero(opens[0]).tolist() == [0, 2, 4, 6, 8, 10]
    assert np.flatnonzero(opens[1]).tolist() == [0, 2, 4, 6, 8, 10]
    assert np.flatnonzero(opens[2]).tolist() == [0]
    assert inside_runs == 10


def test_grouping_exact_ties_at_both_ends_of_a_row():
    measure = plane_measure([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 3.0, 3.0], np.arange(8.0))
    opens, _ = assert_grouped_like_the_scan(measure, [E1, -E1, E2])
    assert np.flatnonzero(opens[0]).tolist() == [0, 3, 4, 5]
    assert np.flatnonzero(opens[1]).tolist() == [0, 3, 4, 5]
    assert opens[2].all()


def test_grouping_run_spanning_exactly_the_tolerance_is_one_class():
    # [0, 0.5, 1] spans exactly one tolerance: one class.  [3, 3.5, 4, 4.5]
    # spans 1.5, so its last value opens a class of its own.
    measure = plane_measure(np.array([0.0, 0.5, 1.0, 3.0, 3.5, 4.0, 4.5]) * TOL, np.zeros(7))
    opens, _ = assert_grouped_like_the_scan(measure, [E1], TOL)
    assert np.flatnonzero(opens[0]).tolist() == [0, 3, 6]


def test_grouping_with_zero_tolerance_merges_exact_ties_only():
    xs = [0.0, 0.0, 5e-324, 1e-300, 1e-300, 1.0]
    opens, _ = assert_grouped_like_the_scan(plane_measure(xs, np.arange(6.0)), [E1, -E1, E2], 0.0)
    assert np.flatnonzero(opens[0]).tolist() == [0, 2, 3, 5]
    assert np.flatnonzero(opens[1]).tolist() == [0, 1, 3, 4]


def test_sort_rows_keeps_the_stable_order_on_ties_signed_zeros_and_equal_rows():
    # Rows with exact ties, +0.0 and -0.0 mixed (equal, but distinct bits),
    # a row of all-equal values, and a long row of distinct values with a
    # few ties; every row must come out in the stable order.
    zeros = plane_measure([0.0, -0.0, 1.0, 0.0, -0.0, 1.0, -1.0, 0.0], [-0.0] * 8)
    assert_grouped_like_the_scan(zeros, [E1, -E1, E2], 0.0)
    assert_grouped_like_the_scan(zeros, [E1, -E1, E2])
    rng = np.random.default_rng(0)
    xs = rng.standard_normal(1000)
    xs[rng.integers(0, 1000, 40)] = xs[rng.integers(0, 1000, 40)]
    line = make_measure(xs[:, None], np.full(1000, 1e-3))
    assert_grouped_like_the_scan(line, [[1.0], [-1.0]], 0.0)
    assert_grouped_like_the_scan(line, [[1.0], [-1.0]])
    distinct = plane_measure(rng.standard_normal(300), np.full(300, 2.0))
    assert_grouped_like_the_scan(distinct, [E1, -E1, E2, sample_sphere(1, 2, 0)[0]])


gap_in_tolerances = st.sampled_from([0.0, 1 + 2.0**-52, 1 - 2.0**-52, 1.0, 0.5, 2.0])


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(st.tuples(gap_in_tolerances, gap_in_tolerances), min_size=1, max_size=40),
    offset=st.sampled_from([0.0, 0.25, -0.5]),
)
def test_grouping_matches_the_scan_on_sorted_rows(gaps, offset):
    """Rows built from gaps at and around the tolerance, grouped along each
    axis (rows E1, -E1 and E2 of one chunk) exactly as the scan groups them."""
    gx, gy = np.array(gaps).T * TOL
    xs = offset + np.cumsum(np.r_[0.0, gx])
    ys = np.cumsum(np.r_[0.0, gy])
    assert_grouped_like_the_scan(plane_measure(xs, ys), [E1, -E1, E2], TOL)


# ---------------------------------------------------------------------------
# 1D monotone plans


def uniform_line(values):
    n = len(values)
    return project(
        make_measure([(v,) for v in values], [1.0 / n] * n), np.array([1.0])
    )


def weighted_line(values, weights):
    return project(make_measure([(v,) for v in values], weights), np.array([1.0]))


def assert_monotone_like_the_reference(ms, mt):
    """The kernel's entries have the reference's bits; returns them."""
    ms, mt = np.atleast_2d(np.asarray(ms, dtype=float)), np.atleast_2d(np.asarray(mt, dtype=float))
    got, want = _monotone(ms, mt), monotone_by_counts(ms, mt)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    return got


# Class masses with exact ties of cumulative sums, masses the running sum
# absorbs, zero masses (whose entries are dropped) and arbitrary ones.
class_mass = st.sampled_from([0.5, 0.25, 1 / 3, 0.1, 0.3, 1e-17, 1e-16, 0.0]) | st.floats(1e-6, 1.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4),
       widths=st.tuples(st.integers(1, 8), st.integers(1, 8)),
       scale=st.sampled_from([1.0, 1 - 2.0**-53, 1 + 2.0**-52, 1 + 1e-12]))
def test_monotone_matches_the_reference_bit_for_bit(data, rows, widths, scale):
    sides = []
    for width in widths:
        m = np.array(data.draw(st.lists(st.lists(class_mass, min_size=width, max_size=width),
                                        min_size=rows, max_size=rows)))
        m[m.sum(axis=1) == 0, 0] = 1.0
        sides.append(m / m.sum(axis=1, keepdims=True))
    ms, mt = sides[0], sides[1] * scale
    r, a, b, mass = assert_monotone_like_the_reference(ms, mt)
    # Every row's entries are those it has on its own.
    for row in range(rows):
        alone = _monotone(ms[row : row + 1], mt[row : row + 1])
        sel = r == row
        for got, want in zip((a[sel], b[sel], mass[sel]), alone[1:]):
            assert got.tobytes() == want.tobytes()


def test_monotone_keeps_a_class_mass_the_running_sum_absorbs():
    for mt in ([0.5, 0.5], [1.0], [0.25, 0.75], [0.5, 1e-17, 0.5]):
        _, a, _, mass = assert_monotone_like_the_reference([0.5, 1e-17, 0.5], mt)
        assert 1 in a and mass[a == 1].sum() == 1e-17


def test_monotone_drops_zero_mass_entries():
    _, a, _, mass = assert_monotone_like_the_reference([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]],
                                                       [[1.0, 0.0], [0.5, 0.5]])
    assert (mass > 0).all() and 1 not in a[:2] and len(mass) == 4


def test_monotone_single_class_rows():
    for ms, mt in (([1.0], [1.0]), ([1.0], [0.3, 0.7]), ([0.3, 0.7], [1.0]),
                   ([[1.0], [1.0]], [[0.2, 0.8], [1.0 - 2.0**-53, 2.0**-53]])):
        r, _, _, _ = assert_monotone_like_the_reference(ms, mt)
        rows, width = np.atleast_2d(mt).shape
        assert np.array_equal(np.bincount(r), [max(len(np.atleast_2d(ms)[0]), width)] * rows)


def test_monotone_multi_row_chunks_match_the_reference():
    # Chunks of many rows, with heavy-tailed masses and masses the running
    # sum absorbs.
    rng = np.random.default_rng(5)
    for rows, k, k2 in ((16, 256, 256), (3, 40, 7), (50, 1, 30)):
        ms, mt = rng.pareto(0.5, (rows, k)) + 1e-12, rng.random((rows, k2)) + 0.05
        ms[:, ::3] *= 1e-17
        assert_monotone_like_the_reference(ms / ms.sum(axis=1, keepdims=True),
                                           mt / mt.sum(axis=1, keepdims=True))


def monotone_1d(u, v):
    """The 1D solve: class indices and masses ``(a, b, mass)`` of the
    monotone coupling of two projected measures, from the engine's kernel."""
    return _monotone(u.class_masses[None], v.class_masses[None])[1:]


def test_solve_1d_equal_masses_is_diagonal():
    u = uniform_line([0.0, 1.0, 2.0])
    v = uniform_line([5.0, 6.0, 7.0])
    a, b, mass = monotone_1d(u, v)
    assert a.tolist() == [0, 1, 2]
    assert b.tolist() == [0, 1, 2]
    np.testing.assert_array_equal(mass, [1.0 / 3.0] * 3)


def test_solve_1d_hand_derived_staircase():
    # Halves against thirds: the classic interleaving.
    u = weighted_line([0.0, 1.0], [0.5, 0.5])
    v = weighted_line([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
    a, b, mass = monotone_1d(u, v)
    expect = [(0, 0, 1 / 3), (0, 1, 1 / 6), (1, 1, 1 / 6), (1, 2, 1 / 3)]
    assert len(a) == 4
    for (ea, eb, em), ga, gb, gm in zip(expect, a, b, mass):
        assert (ea, eb) == (ga, gb)
        assert gm == pytest.approx(em, abs=1e-15)


def test_solve_1d_worked_example():
    src, tgt, theta = worked_example()
    a, b, mass = monotone_1d(project(src, theta), project(tgt, theta))
    assert a.tolist() == [0, 1, 1]
    assert b.tolist() == [0, 0, 1]
    np.testing.assert_allclose(mass, [0.1, 0.4, 0.5], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_solve_1d_invariants(seed):
    """Sweep output is a staircase with correct marginals and entry bound."""
    rng = np.random.default_rng(seed)
    nu = int(rng.integers(1, 25))
    nv = int(rng.integers(1, 25))
    u = weighted_line(
        np.sort(rng.standard_normal(nu) * 10).tolist(),
        (lambda w: (w / w.sum()).tolist())(rng.random(nu) + 0.05),
    )
    v = weighted_line(
        np.sort(rng.standard_normal(nv) * 10).tolist(),
        (lambda w: (w / w.sum()).tolist())(rng.random(nv) + 0.05),
    )
    a, b, mass = monotone_1d(u, v)
    # no more than K+M-1 entries
    assert len(a) <= u.n_classes + v.n_classes - 1
    # both index sequences non-decreasing
    assert np.all(np.diff(a) >= 0)
    assert np.all(np.diff(b) >= 0)
    # marginals recover the class masses
    row = np.bincount(a, weights=mass, minlength=u.n_classes)
    col = np.bincount(b, weights=mass, minlength=v.n_classes)
    np.testing.assert_allclose(row, u.class_masses, atol=1e-12)
    np.testing.assert_allclose(col, v.class_masses, atol=1e-12)


# ---------------------------------------------------------------------------
# direction sampling


def test_sample_sphere_unit_norms():
    dirs = sample_sphere(200, 5, seed=0)
    assert dirs.shape == (200, 5)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


def test_sample_sphere_reproducible():
    a = sample_sphere(64, 3, seed=42)
    b = sample_sphere(64, 3, seed=42)
    np.testing.assert_array_equal(a, b)
    c = sample_sphere(64, 3, seed=43)
    assert not np.array_equal(a, c)


def test_sample_sphere_d1_alternates_signs():
    dirs = sample_sphere(6, 1, seed=7)
    assert dirs[:, 0].tolist() == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    # same for every seed
    np.testing.assert_array_equal(dirs, sample_sphere(6, 1, seed=99))


def test_sample_sphere_rejects_bad_args():
    with pytest.raises(TransportError):
        sample_sphere(0, 3, seed=0)
    with pytest.raises(TransportError):
        sample_sphere(4, 0, seed=0)


def test_projections_do_not_depend_on_the_chunk_shape():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 8, 32):
        atoms = rng.standard_normal((300, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        dirs = sample_sphere(40, d, d)
        full = _projections(atoms, dirs)
        for size in (1, 3, 8):
            for lo in range(0, 40, size):
                assert np.array_equal(_projections(atoms, dirs[lo : lo + size]), full[lo : lo + size])
        measure = make_measure(atoms, np.full(300, 1 / 300))
        assert np.array_equal(project(measure, dirs[7]).class_values, np.sort(full[7]))
