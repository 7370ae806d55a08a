"""End-to-end acceptance checks, one test per numbered guarantee.

Each test computes its payload through the public API, asserts the stated
tolerances, and prints one PASS line (run ``pytest -s`` to see them).
Payloads return a byte digest of their numeric output alongside the values
under test, so the final check can rerun everything in a fresh interpreter
and compare bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np

import sliced_transport
from sliced_transport import (
    SliceSet,
    embedding_features,
    est_plan,
    est_plan_tempered,
    gaussian_pair,
    least_squares_accuracy,
    lift_for_direction,
    make_measure,
    min_swgg,
    project,
    reference_measure,
    sample_sphere,
    two_class_task,
    validate_coupling,
    wasserstein_exact,
    weak_convergence_table,
)
from sliced_transport.slicing import _monotone
from util import random_measure, random_pair, sorted_matching_mean_power, worked_example


def _digest(*arrays) -> str:
    """SHA-256 of dtype, shape, and raw bytes of every array, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# payloads: pure computations, no asserts; asserts live in the tests


def _run_bulk_pairs() -> dict:
    """200 random pairs (n, m <= 50, d <= 5), 64 slices each."""
    start = time.perf_counter()
    worst = 0.0
    pairs = []
    distances = []
    slice_costs = []
    parts = []
    for k in range(200):
        mu, nu = random_pair(1000 + k)
        directions = sample_sphere(64, mu.dim, seed=5000 + k)
        res = est_plan(mu, nu, SliceSet.uniform(directions))
        for theta in directions:
            plan_theta, _ = lift_for_direction(mu, nu, theta)
            _, dev = validate_coupling(plan_theta, mu, nu)
            worst = max(worst, dev)
        _, dev = validate_coupling(res.plan, mu, nu)
        worst = max(worst, dev)
        pairs.append((mu, nu))
        distances.append(res.distance)
        slice_costs.append(res.per_slice_costs)
        parts.extend((res.plan.i, res.plan.j, res.plan.mass, res.per_slice_costs))
    elapsed = time.perf_counter() - start
    distances = np.asarray(distances)
    parts.append(distances)
    return {
        "worst": worst,
        "elapsed": elapsed,
        "pairs": pairs,
        "distances": distances,
        "slice_costs": slice_costs,
        "digest": _digest(*parts),
    }


def _run_lower_bound(bulk: dict) -> dict:
    """Exact W2 on the same 200 pairs, compared to the sliced figures."""
    worst_avg = -np.inf
    worst_slice = -np.inf
    exact = []
    for (mu, nu), d2, costs in zip(bulk["pairs"], bulk["distances"], bulk["slice_costs"]):
        w2 = wasserstein_exact(mu, nu)[1]
        exact.append(w2)
        worst_avg = max(worst_avg, w2 - d2)
        worst_slice = max(worst_slice, w2 - float(np.min(costs)))
    exact = np.asarray(exact)
    return {
        "worst_avg": worst_avg,
        "worst_slice": worst_slice,
        "digest": _digest(exact, bulk["distances"]),
    }


def _run_metric_axioms() -> dict:
    """100 triples of uniform 20-atom measures in R^3, shared 64-slice set."""
    start = time.perf_counter()
    sym = ident = tri = 0.0
    dists = []
    for k in range(100):
        rng = np.random.default_rng(3000 + k)
        a = random_measure(rng, 20, 3, uniform=True)
        b = random_measure(rng, 20, 3, uniform=True)
        c = random_measure(rng, 20, 3, uniform=True)
        slices = SliceSet.uniform(sample_sphere(64, 3, seed=300 + k))
        dab = est_plan(a, b, slices).distance
        dba = est_plan(b, a, slices).distance
        dbc = est_plan(b, c, slices).distance
        dac = est_plan(a, c, slices).distance
        daa = est_plan(a, a, slices).distance
        sym = max(sym, abs(dab - dba))
        ident = max(ident, abs(daa))
        tri = max(tri, dac - (dab + dbc))
        dists.extend((dab, dba, dbc, dac, daa))
    elapsed = time.perf_counter() - start
    return {
        "sym": sym,
        "ident": ident,
        "tri": tri,
        "elapsed": elapsed,
        "digest": _digest(np.asarray(dists)),
    }


def _run_line_exactness() -> dict:
    """100 one-dimensional pairs across several exponents."""
    gaps = []
    ests = []
    for k in range(100):
        p = (1.5, 2.0, 3.0)[k % 3]
        mu, nu = random_pair(4000 + k, max_d=1)
        slices = SliceSet.uniform(sample_sphere(2, 1, seed=k))
        d = est_plan(mu, nu, slices, p=p).distance
        w = wasserstein_exact(mu, nu, p)[1]
        gaps.append(abs(d - w))
        ests.append(d)
    return {
        "worst": float(np.max(gaps)),
        "digest": _digest(np.asarray(ests), np.asarray(gaps)),
    }


def _run_overlap_example() -> dict:
    """The three-atom overlap instance, checked value by value."""
    src, tgt, theta = worked_example()
    ps = project(src, theta)
    pt = project(tgt, theta)
    _, a1, b1, m1 = _monotone(ps.class_masses[None], pt.class_masses[None])
    lifted, _ = lift_for_direction(src, tgt, theta)
    worst = 0.0

    def gap(actual, expected) -> float:
        return float(np.max(np.abs(np.asarray(actual, dtype=float) - expected)))

    worst = max(worst, gap(ps.class_values, [0.0, 1.0]))
    worst = max(worst, gap(ps.class_masses, [0.1, 0.9]))
    worst = max(worst, gap(pt.class_values, [2.0, 3.0]))
    worst = max(worst, gap(pt.class_masses, [0.5, 0.5]))
    worst = max(worst, gap(a1, [0, 1, 1]))
    worst = max(worst, gap(b1, [0, 0, 1]))
    worst = max(worst, gap(m1, [0.1, 0.4, 0.5]))
    worst = max(worst, gap(lifted.i, [0, 1, 1, 1, 2, 2, 2]))
    worst = max(worst, gap(lifted.j, [0, 0, 1, 2, 0, 1, 2]))
    expected_mass = [0.1, 2 / 15, 0.1, 1 / 15, 4 / 15, 0.2, 2 / 15]
    worst = max(worst, gap(lifted.mass, expected_mass))
    # the 0.9-mass source class splits 1:2 toward every target it feeds
    m = dict(zip(zip(lifted.i.tolist(), lifted.j.tolist()), lifted.mass.tolist()))
    for j in (0, 1, 2):
        worst = max(worst, abs(m[(2, j)] - 2.0 * m[(1, j)]))
    return {
        "worst": worst,
        "digest": _digest(lifted.i, lifted.j, lifted.mass, m1,
                          ps.class_masses, pt.class_masses),
    }


def _run_uniform_equivalence() -> dict:
    """Uniform equal-size pairs: squared distance vs direct sorted pairing."""
    gaps = []
    powers = []
    for k in range(50):
        rng = np.random.default_rng(6000 + k)
        n = int(rng.integers(5, 41))
        d = int(rng.integers(2, 6))
        mu = random_measure(rng, n, d, uniform=True)
        nu = random_measure(rng, n, d, uniform=True)
        directions = sample_sphere(48, d, seed=600 + k)
        dist = est_plan(mu, nu, SliceSet.uniform(directions)).distance
        direct = sorted_matching_mean_power(mu, nu, directions, 2.0)
        gaps.append(abs(dist**2 - direct))
        powers.append(dist**2)
    return {
        "worst": float(np.max(gaps)),
        "digest": _digest(np.asarray(powers), np.asarray(gaps)),
    }


def _run_temperature_limits() -> dict:
    """tau = 0 against uniform weights, tau = 1e12 against the best slice."""
    uniform_exact = True
    identical = True
    parts = []
    for k in range(20):
        # d >= 3: the one-hot limit needs a unique cheapest slice.  On the
        # line the mirrored directions tie exactly, and in the plane two of
        # 128 directions often land in the same constant-ordering arc and
        # carry the same coupling at bitwise-equal cost, so the softmax
        # legitimately splits weight between them.
        mu, nu = random_pair(7000 + k, max_n=30, min_d=3)
        directions = sample_sphere(128, mu.dim, seed=700 + k)
        cold = est_plan_tempered(mu, nu, directions, tau=0.0)
        uniform_exact &= bool(np.all(cold.slice_weights == 1.0 / 128))
        hot = est_plan_tempered(mu, nu, directions, tau=1e12)
        _, best_plan, _ = min_swgg(mu, nu, directions)
        identical &= bool(
            np.array_equal(hot.plan.i, best_plan.i)
            and np.array_equal(hot.plan.j, best_plan.j)
            and np.array_equal(hot.plan.mass, best_plan.mass)
        )
        parts.extend((hot.plan.i, hot.plan.j, hot.plan.mass, cold.slice_weights))
    return {"uniform_exact": uniform_exact, "identical": identical, "digest": _digest(*parts)}


_PATH_COLUMNS = ("t", "est_tau_0", "w_exact", "sinkhorn_lam_1", "sinkhorn_lam_10", "product")


def _run_path_table() -> dict:
    """Distance-to-endpoint table along the displacement path."""
    start = time.perf_counter()
    mu, nu = gaussian_pair(size=50, dim=2, shift=3.0, seed=3)
    ts = [round(0.1 * i, 1) for i in range(10)] + [0.99]
    rows = weak_convergence_table(mu, nu, ts, slices=512, taus=(0.0,),
                                  lambdas=(1.0, 10.0), seed=3)
    elapsed = time.perf_counter() - start
    w0 = rows[0]["w_exact"]
    lin = max(
        abs(r["w_exact"] - (1.0 - r["t"]) * w0) / ((1.0 - r["t"]) * w0) for r in rows
    )
    ratio = {
        name: rows[-1][name] / rows[0][name]
        for name in ("est_tau_0", "sinkhorn_lam_1", "sinkhorn_lam_10", "product")
    }
    table = np.asarray([[row[c] for c in _PATH_COLUMNS] for row in rows])
    return {
        "lin": lin,
        "ratio": ratio,
        "elapsed": elapsed,
        "digest": _digest(table),
    }


def _run_embedding_task() -> dict:
    """Two separated cloud classes, least squares on plan embeddings."""
    clouds, labels = two_class_task(seed=0)
    ref = reference_measure(50, 2, seed=0)
    feats_cold = embedding_features(ref, clouds, slices=128, tau=0.0, seed=0)
    acc_cold = least_squares_accuracy(feats_cold, labels)
    feats_hot = embedding_features(ref, clouds, slices=128, tau=1e6, seed=0)
    acc_hot = least_squares_accuracy(feats_hot, labels)
    return {
        "acc_cold": acc_cold,
        "acc_hot": acc_hot,
        "digest": _digest(feats_cold, feats_hot, np.asarray([acc_cold, acc_hot])),
    }


_RUNNERS = {
    1: _run_bulk_pairs,
    3: _run_metric_axioms,
    4: _run_line_exactness,
    5: _run_overlap_example,
    6: _run_uniform_equivalence,
    7: _run_temperature_limits,
    8: _run_path_table,
    9: _run_embedding_task,
}

_baseline: dict[int, dict] = {}


def _payload(num: int) -> dict:
    """Baseline payload of check ``num``, computed once per interpreter."""
    if num not in _baseline:
        if num == 2:
            _baseline[2] = _run_lower_bound(_payload(1))
        else:
            _baseline[num] = _RUNNERS[num]()
    return _baseline[num]


# ---------------------------------------------------------------------------
# the checks


def test_01_every_slice_plan_and_average_are_couplings():
    pay = _payload(1)
    assert pay["worst"] <= 1e-9
    assert pay["elapsed"] < 10.0
    print(f"\nPASS 01 marginal validity: 200 pairs, 64 slices, "
          f"worst deviation {pay['worst']:.2e}, {pay['elapsed']:.1f}s")


def test_02_exact_distance_never_exceeds_sliced():
    pay = _payload(2)
    assert pay["worst_avg"] <= 1e-10
    assert pay["worst_slice"] <= 1e-10
    print(f"\nPASS 02 lower bound: W2 - D2 <= {pay['worst_avg']:.2e}, "
          f"W2 - min slice cost <= {pay['worst_slice']:.2e} on 200 pairs")


def test_03_metric_axioms_on_random_triples():
    pay = _payload(3)
    assert pay["sym"] <= 1e-12
    assert pay["ident"] == 0.0
    assert pay["tri"] <= 1e-9
    assert pay["elapsed"] < 30.0
    print(f"\nPASS 03 metric axioms: 100 triples, symmetry gap {pay['sym']:.2e}, "
          f"self distance {pay['ident']:.1f}, triangle slack {pay['tri']:.2e}, "
          f"{pay['elapsed']:.1f}s")


def test_04_line_measures_match_exact_transport():
    pay = _payload(4)
    assert pay["worst"] <= 1e-9
    print(f"\nPASS 04 one-dimensional exactness: 100 instances, "
          f"worst |D_p - W_p| = {pay['worst']:.2e}")


def test_05_overlap_example_lifts_exactly():
    pay = _payload(5)
    assert pay["worst"] <= 1e-12
    print(f"\nPASS 05 overlap example: projections, 1D plan, and 1:2 lifted "
          f"split all within {pay['worst']:.2e}")


def test_06_uniform_equal_size_matches_sorted_pairing():
    pay = _payload(6)
    assert pay["worst"] <= 1e-10
    print(f"\nPASS 06 sorted-pairing equivalence: 50 uniform pairs, "
          f"worst |D2^2 - direct| = {pay['worst']:.2e}")


def test_07_temperature_limits():
    pay = _payload(7)
    assert pay["uniform_exact"]
    assert pay["identical"]
    print("\nPASS 07 temperature limits: tau=0 weights exactly uniform, "
          "tau=1e12 plan identical to the best single slice on 20 instances")


def test_08_displacement_path_discrepancies():
    pay = _payload(8)
    ratio = pay["ratio"]
    assert pay["lin"] <= 1e-6
    assert ratio["est_tau_0"] < 0.10
    assert ratio["sinkhorn_lam_1"] > 0.25
    assert ratio["sinkhorn_lam_10"] > 0.25
    assert ratio["product"] > 0.25
    assert pay["elapsed"] < 120.0
    print(f"\nPASS 08 path to the endpoint: exact column linear within "
          f"{pay['lin']:.1e}; end/start ratios est {ratio['est_tau_0']:.3f} < 0.10, "
          f"sinkhorn {ratio['sinkhorn_lam_1']:.2f}/{ratio['sinkhorn_lam_10']:.2f} and "
          f"product {ratio['product']:.2f} > 0.25; {pay['elapsed']:.1f}s")


def test_09_embedding_classification():
    pay = _payload(9)
    assert pay["acc_cold"] >= 0.95
    assert pay["acc_cold"] >= pay["acc_hot"]
    print(f"\nPASS 09 embedding classification: tau=0 accuracy {pay['acc_cold']:.2f} "
          f">= 0.95 and >= tau=1e6 accuracy {pay['acc_hot']:.2f}")


def test_10_large_instance_single_thread_runtime():
    rng = np.random.default_rng(1010)
    mu = make_measure(rng.standard_normal((1000, 2)), np.full(1000, 1.0 / 1000))
    nu = make_measure(rng.standard_normal((1000, 2)) + np.array([2.0, 0.0]),
                      np.full(1000, 1.0 / 1000))
    slices = SliceSet.uniform(sample_sphere(128, 2, seed=1010))
    start = time.perf_counter()
    res = est_plan(mu, nu, slices)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"\nPASS 10 performance: n=m=1000, 128 slices, one thread, "
          f"{elapsed:.2f}s, {res.plan.i.shape[0]} plan entries")


def test_11_thread_count_independence():
    """Checks 1-9 give the same bytes in a fresh interpreter with another
    hash seed."""
    base = {num: _payload(num)["digest"] for num in sorted(set(_RUNNERS) | {2})}
    here = os.path.dirname(os.path.abspath(__file__))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sliced_transport.__file__)))
    path = [here, package_root, os.environ.get("PYTHONPATH", "")]
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED=hash_seed)
    code = ("import json, test_acceptance as t; "
            f"print(json.dumps({{n: t._payload(n)['digest'] for n in {sorted(base)}}}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    redo = {int(num): d for num, d in json.loads(proc.stdout.splitlines()[-1]).items()}
    mismatched = [num for num in sorted(base) if base[num] != redo[num]]
    assert mismatched == []
    print(f"\nPASS 11 determinism: checks 1-9 byte-identical in a fresh interpreter "
          f"with PYTHONHASHSEED={hash_seed}")
