"""Empirical Wasserstein distances between particle clouds.

Ground cost is the weighted path norm ||xi - eta||_tau over the whole window
[-T_mem, 0], the norm of the growth estimate; `wk_full` is the one W_k.

Every transport problem is solved exactly, at any size.  Clouds are equally
weighted and of equal size, so some permutation is an optimal plan and an
assignment solve finds it; clouds of unequal size are rejected.

At d = 1 the cost max_k w_k |a_k - b_k| (w_k > 0) is the Chebyshev distance
between the weighted rows w*a and w*b, one `cdist` call with no
(N, M, n_points) temporary.  Its rounding differs from the weight-last form
w_k |a_k - b_k| by at most a few ulps of max(|w a|, |w b|); a cloud against
itself still costs exactly 0 on the diagonal.

SciPy is imported inside the functions that call it, so importing this module
loads numpy only: `cdist` in the d = 1 branch of `pairwise_truncated_norm`,
and `linear_sum_assignment` in `ot_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidCloudError
from .pathspace import ParticleCloud

__all__ = [
    "OTPlan",
    "cloud_moment",
    "ot_plan",
    "pairwise_truncated_norm",
    "wk_full",
]

@dataclass(frozen=True)
class OTPlan:
    """Solved transport problem: coupling, its objective and the solver used."""

    plan: np.ndarray
    objective: float
    solver: str


def pairwise_truncated_norm(a: ParticleCloud, b: ParticleCloud) -> np.ndarray:
    """Matrix of ||xi_i - eta_j||_tau over the whole window, for the two clouds.

    The name keeps "truncated" for the benchmark tracer, which patches it by name.
    """
    cfg = a.config
    va, vb, w = a.values, b.values, cfg.weights
    if cfg.d == 1:  # Chebyshev distance of the weighted rows; see the module docstring
        from scipy.spatial.distance import cdist

        return cdist(va[:, :, 0] * w, vb[:, :, 0] * w, "chebyshev")
    out = np.zeros((len(a), len(b)))
    # Chunk over the grid axis to keep the (N, M, chunk, d) temporaries small.
    chunk = max(1, 2**20 // max(1, len(a) * len(b) * cfg.d))
    for k0 in range(0, va.shape[1], chunk):
        k1 = min(k0 + chunk, va.shape[1])
        mags = np.linalg.norm(va[:, None, k0:k1, :] - vb[None, :, k0:k1, :], axis=-1)
        mags *= w[k0:k1]
        np.maximum(out, mags.max(axis=-1), out=out)
    return out


def ot_plan(a: ParticleCloud, b: ParticleCloud, k: float) -> OTPlan:
    """Exact optimal coupling of two equal-size clouds for the k-th power of the
    path-norm cost."""
    if k < 1:
        raise ConfigurationError(f"only k >= 1 is supported, got k={k}")
    if a.config != b.config:
        raise InvalidCloudError("clouds live on different grids")
    n = len(a)
    if len(b) != n:
        raise InvalidCloudError(f"clouds of unequal size {n} and {len(b)}: OT needs equal sizes")
    from scipy.optimize import linear_sum_assignment

    cost = pairwise_truncated_norm(a, b) ** k
    # Uniform clouds of equal size: some permutation is an optimal plan.
    rows, cols = linear_sum_assignment(cost)
    plan = np.zeros_like(cost)
    plan[rows, cols] = 1.0 / n
    return OTPlan(plan, float((plan * cost).sum()), solver="assignment")


def wk_full(a: ParticleCloud, b: ParticleCloud, k: float) -> float:
    """W_k between the clouds with ground cost ||.||_tau."""
    plan = ot_plan(a, b, k)
    return float(max(plan.objective, 0.0) ** (1.0 / k))


def cloud_moment(a: ParticleCloud, k: float) -> float:
    """||mu||_k = (mean of ||xi||_tau^k)^(1/k) over the cloud."""
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    return float(np.mean(a.norms() ** k) ** (1.0 / k))
