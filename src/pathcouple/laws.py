"""Initial-law generators on path space and moment diagnostics.

Clouds are i.i.d. samples of history segments.  The Gaussian generator draws
stationary Ornstein-Uhlenbeck histories, which have an exponential envelope
and therefore all the exponential norm-moments the growth estimates require.
The comonotone pair shares the underlying normals between two generators,
which is the coupling recorded for initial Wasserstein distances.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnreliableMomentWarning
from .pathspace import ParticleCloud, PathSpaceConfig
from .simulate import philox_rng

__all__ = [
    "comonotone_pair",
    "exp_norm_moment",
    "gaussian_history_cloud",
]

_OVERFLOW_LOG = math.log(np.finfo(float).max) - math.log(10.0)  # 10x safety margin


def _ou_histories(cfg: PathSpaceConfig, normals: np.ndarray, mean, scale: float, rate: float):
    """Stationary OU paths on the history grid from given standard normals.

    normals has shape (n, n_points, d); the first column seeds the stationary
    marginal, the rest drive the increments.
    """
    n, n_points, d = normals.shape
    std = scale / math.sqrt(2.0 * rate)
    out = np.empty((n, n_points, d))
    out[:, 0] = std * normals[:, 0]
    decay = math.exp(-rate * cfg.h)
    inc_std = std * math.sqrt(1.0 - decay**2)
    for i in range(1, n_points):
        out[:, i] = decay * out[:, i - 1] + inc_std * normals[:, i]
    return out + np.asarray(mean, dtype=float)


def gaussian_history_cloud(
    cfg: PathSpaceConfig,
    n: int,
    seed: int,
    stream: int = 0,
    mean=0.0,
    scale: float = 1.0,
    rate: float = 1.0,
) -> ParticleCloud:
    """i.i.d. stationary OU history segments around a constant mean."""
    rng = philox_rng(seed, stream)
    normals = rng.standard_normal((n, cfg.n_points, cfg.d))
    return ParticleCloud(cfg, _ou_histories(cfg, normals, mean, scale, rate))


def comonotone_pair(
    cfg: PathSpaceConfig,
    n: int,
    seed: int,
    stream: int = 0,
    mean_a=0.0,
    mean_b=0.0,
    scale_a: float = 1.0,
    scale_b: float = 1.0,
    rate: float = 1.0,
):
    """Two Gaussian-history clouds built from the same underlying normals.

    The shared-randomness construction couples the i-th particles, so the
    pairing (i, i) is the recorded coupling between the two initial laws.
    """
    rng = philox_rng(seed, stream)
    normals = rng.standard_normal((n, cfg.n_points, cfg.d))
    a = ParticleCloud(cfg, _ou_histories(cfg, normals, mean_a, scale_a, rate))
    b = ParticleCloud(cfg, _ou_histories(cfg, normals, mean_b, scale_b, rate))
    return a, b


def exp_norm_moment(cloud: ParticleCloud, delta: float, power: float):
    """Sample moment of e^{delta ||xi||^power} with an overflow-proximity flag.

    Returns (estimate, flagged); flagged when the largest exponent is within a
    factor 10 of floating-point overflow.
    """
    exponents = delta * cloud.norms() ** power
    flagged = bool(np.max(exponents) > _OVERFLOW_LOG)
    if flagged:
        import warnings

        warnings.warn(
            "exponential norm-moment within 10x of overflow; estimate unreliable",
            UnreliableMomentWarning,
        )
    w = np.exp(np.minimum(exponents, _OVERFLOW_LOG))
    return float(np.sum(cloud.weights * w)), flagged
