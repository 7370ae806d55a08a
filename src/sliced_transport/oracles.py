"""Ground-truth solvers the sliced pipeline is checked against.

Three independent routes:

* ``wasserstein_exact``: the discrete optimal-transport linear program,
  solved to a vertex by the HiGHS simplex behind ``scipy.optimize.linprog``.
  Works on the p-th-power costs and takes the root only at the end.
* ``wasserstein_1d``: closed-form 1D distance by inverse-CDF integration
  over the merged cumulative-mass breakpoints.  Deliberately shares no code
  with ``_monotone`` in :mod:`slicing`, the 1D kernel of the sliced
  solvers, so the two can cross-check each other.
* ``sinkhorn``: entropic regularization, iterated in the log domain from
  the first step.  The regularizer ``lam`` applies to the raw
  ``|x - y|**p`` costs.

``wasserstein_exact`` and ``sinkhorn`` import scipy when called, not at
module level: importing this module, the package or the CLI loads numpy
only, and the sliced solvers never pay for scipy's start-up.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    MassImbalance,
    TransportError,
)
from .measures import DiscreteMeasure, TransportPlan, _check_p, plan_cost, product_coupling

# Desk-scale guard for the LP: at most this many plan variables.
EXACT_SIZE_LIMIT = 250_000


def _pairwise_pth_costs(source: DiscreteMeasure, target: DiscreteMeasure, p: float) -> np.ndarray:
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dimensions differ")
    diff = source.atoms[:, None, :] - target.atoms[None, :, :]
    with np.errstate(over="ignore"):
        costs = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) ** p
    if not np.isfinite(costs).all():
        raise TransportError(f"pairwise costs overflow: |x - y|**p exceeds the float range at p={p!r}")
    return costs


def _check_lam(lam: float) -> None:
    if not 0 < lam < np.inf:
        raise TransportError(f"lam must be positive and finite, got {lam!r}")


def wasserstein_exact(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    p: float = 2.0,
) -> tuple[TransportPlan, float]:
    """Optimal plan and W_p distance via the transport linear program.

    Raises InstanceTooLarge when n * m exceeds 250000 variables, and
    TransportError when a cost ``|x - y|**p`` overflows.  The returned plan
    is a basic (vertex) solution, hence sparse.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    _check_p(p)
    n, m = len(source), len(target)
    if n * m > EXACT_SIZE_LIMIT:
        raise InstanceTooLarge(f"{n} x {m} exceeds the {EXACT_SIZE_LIMIT}-variable guard")
    costs = _pairwise_pth_costs(source, target, p)
    var = np.arange(n * m)
    row_of_var = np.repeat(np.arange(n), m)
    col_of_var = n + np.tile(np.arange(m), n)
    ones = np.ones(n * m)
    a_eq = sparse.coo_matrix(
        (
            np.concatenate([ones, ones]),
            (np.concatenate([row_of_var, col_of_var]), np.concatenate([var, var])),
        ),
        shape=(n + m, n * m),
    ).tocsr()
    b_eq = np.concatenate([source.weights, target.weights])
    res = linprog(
        costs.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={
            # 1e-10 is the tightest value HiGHS accepts for these.
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not res.success:
        raise TransportError(f"exact transport LP failed: {res.message}")
    gamma = res.x.reshape(n, m)
    gamma[gamma < 0] = 0.0
    ii, jj = np.nonzero(gamma > 0)
    plan = TransportPlan(n, m, ii, jj, gamma[ii, jj])
    return plan, plan_cost(plan, source, target, p)


def wasserstein_1d(u_positions, u_weights, v_positions, v_weights, p: float = 2.0) -> float:
    """W_p between two measures on the line, by quantile integration.

    Merges the cumulative-mass breakpoints of both measures and integrates
    |F_u^{-1} - F_v^{-1}|^p over the unit mass interval segment by segment.
    Raises TransportError for a position or weight that is not finite, and
    when that integral overflows the float range.
    """
    _check_p(p)
    u_pos = np.asarray(u_positions, dtype=float).ravel()
    u_w = np.asarray(u_weights, dtype=float).ravel()
    v_pos = np.asarray(v_positions, dtype=float).ravel()
    v_w = np.asarray(v_weights, dtype=float).ravel()
    if u_pos.shape != u_w.shape or v_pos.shape != v_w.shape:
        raise DimensionMismatch("positions and weights must align")
    if u_pos.size == 0 or v_pos.size == 0:
        raise TransportError("measures must be nonempty")
    if not (np.isfinite(u_pos).all() and np.isfinite(v_pos).all()):
        raise TransportError("positions must be finite")
    # Written so that NaN fails it.
    if not (((0 <= u_w) & (u_w < np.inf)).all() and ((0 <= v_w) & (v_w < np.inf)).all()):
        raise TransportError("weights must be finite and nonnegative")
    if abs(float(u_w.sum()) - float(v_w.sum())) > 1e-9:
        raise MassImbalance("total masses differ by more than 1e-9")
    us = np.argsort(u_pos, kind="stable")
    vs = np.argsort(v_pos, kind="stable")
    u_sorted, uw_sorted = u_pos[us], u_w[us]
    v_sorted, vw_sorted = v_pos[vs], v_w[vs]
    cu = np.cumsum(uw_sorted)
    cv = np.cumsum(vw_sorted)
    end = min(float(cu[-1]), float(cv[-1]))
    levels = np.union1d(cu, cv)
    levels = levels[levels <= end]
    if levels.size == 0 or levels[-1] < end:
        levels = np.append(levels, end)
    widths = np.diff(np.concatenate(([0.0], levels)))
    iu = np.minimum(np.searchsorted(cu, levels, side="left"), cu.size - 1)
    iv = np.minimum(np.searchsorted(cv, levels, side="left"), cv.size - 1)
    with np.errstate(over="ignore"):
        gaps = np.abs(u_sorted[iu] - v_sorted[iv])
        total = float(np.sum(widths * gaps**p))
    if not total < np.inf:
        raise TransportError(f"1D costs overflow: |x - y|**p exceeds the float range at p={p!r}")
    return max(total, 0.0) ** (1.0 / p)


def sinkhorn(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    p: float = 2.0,
    lam: float = 1.0,
    max_iters: int = 5000,
    stop_tol: float = 1e-9,
    return_trace: bool = False,
):
    """Entropic transport plan, iterated in the log domain.

    Alternately rescales the two potentials of the kernel
    ``exp(-|x - y|**p / lam)`` until both marginal L1 errors drop below
    ``stop_tol`` or ``max_iters`` is reached.  Returns ``(plan, err)``
    where ``err`` is the achieved marginal error; non-convergence is
    reported through ``err``, never as an exception; a cost ``|x - y|**p``
    that overflows raises TransportError.  A kernel row or column that
    underflows to zero everywhere (``cost / lam`` overflowing) aborts with
    the independent product plan and ``err = inf`` instead of propagating
    NaNs.  With
    ``return_trace=True`` a third element lists the error after each
    iteration.
    """
    from scipy.special import logsumexp

    _check_p(p)
    _check_lam(lam)
    if not (isinstance(max_iters, (int, np.integer)) and max_iters >= 1):
        raise TransportError(f"max_iters must be an integer >= 1, got {max_iters!r}")
    costs = _pairwise_pth_costs(source, target, p)
    a = source.weights
    b = target.weights
    # cost / lam may overflow to -inf; the dead-kernel check below handles it.
    with np.errstate(over="ignore"):
        log_kernel = -costs / lam
    row_dead = np.all(np.isneginf(log_kernel), axis=1)
    col_dead = np.all(np.isneginf(log_kernel), axis=0)
    if row_dead.any() or col_dead.any():
        return _degenerate(source, target, [np.inf], return_trace)
    log_a = np.log(a)
    log_b = np.log(b)
    f = np.zeros(len(source))
    g = np.zeros(len(target))
    trace: list[float] = []
    err = np.inf
    for _ in range(max_iters):
        f = log_a - logsumexp(log_kernel + g[None, :], axis=1)
        g = log_b - logsumexp(log_kernel + f[:, None], axis=0)
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            return _degenerate(source, target, trace + [np.inf], return_trace)
        gamma = np.exp(f[:, None] + log_kernel + g[None, :])
        row_err = float(np.abs(gamma.sum(axis=1) - a).sum())
        col_err = float(np.abs(gamma.sum(axis=0) - b).sum())
        err = max(row_err, col_err)
        trace.append(err)
        if err < stop_tol:
            break
    ii, jj = np.nonzero(gamma > 0)
    plan = TransportPlan(len(source), len(target), ii, jj, gamma[ii, jj])
    if return_trace:
        return plan, err, trace
    return plan, err


def _degenerate(source, target, trace, return_trace):
    plan = product_coupling(source, target)
    if return_trace:
        return plan, np.inf, trace
    return plan, np.inf
