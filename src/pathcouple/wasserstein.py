"""Empirical Wasserstein distances between particle clouds.

Ground cost is the truncated weighted path seminorm; the full distance takes
the max over truncation levels.  Because the cost is entrywise nondecreasing
in the truncation level, the optimal-transport value is nondecreasing too, so
the max over levels is attained at N = T_mem; `wk_full` exploits that.

Every transport problem is solved exactly, at any size.  Clouds are equally
weighted, so their sizes pick the solver: assignment for equal sizes (an
optimal plan is a permutation), a sparse linear program otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment, linprog

from .errors import ConfigurationError, InvalidCloudError
from .pathspace import ParticleCloud

__all__ = [
    "OTPlan",
    "cloud_moment",
    "ot_plan",
    "pairwise_truncated_norm",
    "wk_full",
    "wk_truncated",
]

@dataclass(frozen=True)
class OTPlan:
    """Solved transport problem: cost matrix, coupling and its objective."""

    cost_matrix: np.ndarray
    plan: np.ndarray
    objective: float
    solver: str


def _check_pair(a: ParticleCloud, b: ParticleCloud) -> None:
    if a.config != b.config:
        raise InvalidCloudError("clouds live on different grids")


def pairwise_truncated_norm(a: ParticleCloud, b: ParticleCloud, N: float) -> np.ndarray:
    """Matrix of ||xi_i - eta_j||_{N,tau} over the two clouds."""
    cfg = a.config
    m = cfg.grid_index(N)
    sl = slice(cfg.n_steps - m, cfg.n_points)
    va, vb = a.values[:, sl, :], b.values[:, sl, :]
    w = cfg.weights[sl]
    out = np.zeros((len(a), len(b)))
    # Chunk over the grid axis to keep the (N, M, chunk) temporaries small.
    chunk = max(1, int(2**22 // max(1, len(a) * len(b))))
    for k0 in range(0, va.shape[1], chunk):
        k1 = min(k0 + chunk, va.shape[1])
        if cfg.d == 1:
            mags = va[:, None, k0:k1, 0] - vb[None, :, k0:k1, 0]
            np.abs(mags, out=mags)
        else:
            mags = np.linalg.norm(va[:, None, k0:k1, :] - vb[None, :, k0:k1, :], axis=-1)
        mags *= w[k0:k1]
        np.maximum(out, mags.max(axis=-1), out=out)
    return out


def ot_plan(a: ParticleCloud, b: ParticleCloud, k: float, N: float) -> OTPlan:
    """Exact optimal coupling for the k-th power of the truncated seminorm cost."""
    if k < 1:
        raise ConfigurationError(f"only k >= 1 is supported, got k={k}")
    _check_pair(a, b)
    cost = pairwise_truncated_norm(a, b, N) ** k
    n, m = cost.shape
    # Uniform clouds of equal size: some permutation is an optimal plan.
    if n == m:
        rows, cols = linear_sum_assignment(cost)
        plan = np.zeros_like(cost)
        plan[rows, cols] = 1.0 / n
        return OTPlan(cost, plan, float((plan * cost).sum()), solver="assignment")
    # Unequal sizes: exact LP (network-simplex equivalent via HiGHS) over the
    # row-major plan, with row sums 1/n and column sums 1/m as sparse equalities.
    A_eq = sp.vstack([
        sp.kron(sp.eye(n), np.ones((1, m))),
        sp.kron(np.ones((1, n)), sp.eye(m)),
    ], format="csr")[:-1]  # drop one redundant constraint
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])[:-1]
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise InvalidCloudError(f"exact OT solve failed: {res.message}")
    plan = res.x.reshape(n, m)
    return OTPlan(cost, plan, float((plan * cost).sum()), solver="linprog")


def wk_truncated(a: ParticleCloud, b: ParticleCloud, k: float, N: float) -> float:
    """W_k between the clouds with ground cost ||.||_{N,tau}."""
    plan = ot_plan(a, b, k, N)
    return float(max(plan.objective, 0.0) ** (1.0 / max(k, 1.0)))


def wk_full(a: ParticleCloud, b: ParticleCloud, k: float) -> float:
    """max over truncation levels N in {h, 2h, ..., T_mem} of wk_truncated.

    The per-level values are nondecreasing in N (the cost matrix is), so the
    top level alone gives the maximum.
    """
    return wk_truncated(a, b, k, a.config.T_mem)


def cloud_moment(a: ParticleCloud, k: float) -> float:
    """||mu||_k = (mean of ||xi||_tau^k)^(1/k) over the cloud."""
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    return float(np.mean(a.norms() ** k) ** (1.0 / k))
