"""Coefficient model: bounded Dini part b0, regular path/law part b1, diffusion.

A CoefficientSet carries the declared constants (K, K1, alpha) and the Dini
modulus phi together with callables

    b0(x)        (..., d) -> (..., d)        bounded, Dini continuous
    b1(seg, law) segment batch -> (..., d)   Lipschitz in path norm and law
    sigma(x)     (..., d) -> (..., d, d)     Lipschitz, uniformly elliptic

The drift of the equation is b0(xi(0)) + b1(xi, mu).  The hypotheses tying
these pieces to the declared constants are checked statistically by
validate_H; the report records the sampled certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, InvalidCoefficientError, NotDiniError
from .laws import _ou_histories
from .pathspace import ParticleCloud, PathSegment, PathSpaceConfig, flat_extension, weighted_norm
from .wasserstein import cloud_moment, wk_full

__all__ = [
    "CoefficientSet",
    "DiniModulus",
    "ValidationReport",
    "check_builtin_name",
    "get_coefficients",
    "grid_decay_constant",
    "make_dini_log",
    "make_dini_sqrt",
    "make_linear",
    "make_sublinear",
    "make_zero",
    "validate_H",
]


# ---------------------------------------------------------------------------
# Dini moduli


@dataclass(frozen=True)
class DiniModulus:
    """Modulus of continuity phi from a closed-form Dini family.

    family "power": phi(s) = C * s^beta with beta in (0, 1]; Dini integral C/beta
    family "log":   phi(s) = C * (log(e + 1/s))^{-q}, phi(0) = 0, with q > 1;
                    for q <= 1 the Dini integral diverges like that of u^{-q}

    Construction raises NotDiniError outside these ranges or when check_shape
    fails, so every instance is a Dini modulus.
    """

    family: str
    C: float = 1.0
    beta: float = 0.5
    q: float = 2.0

    def __post_init__(self):
        if self.family not in ("power", "log"):
            raise ConfigurationError(f"unknown modulus family {self.family!r}")
        if self.family == "power" and not (0 < self.beta <= 1):
            raise NotDiniError(f"power modulus needs beta in (0,1], got {self.beta}")
        if self.family == "log" and not self.q > 1:
            raise NotDiniError(f"log modulus needs q > 1 for a finite Dini integral, got {self.q}")
        self.check_shape()

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "power":
            return self.C * s**self.beta
        with np.errstate(divide="ignore", over="ignore"):
            out = self.C * np.log(math.e + 1.0 / np.where(s > 0, s, 1.0)) ** (-self.q)
        return np.where(s > 0, out, 0.0)

    def check_shape(self) -> None:
        """Sampled check on 400 points: phi(0)=0, nondecreasing and midpoint-concave."""
        if self(0.0) != 0.0:
            raise NotDiniError("phi(0) != 0")
        s = np.geomspace(1e-9, 1.0, 400)
        v = self(s)
        if np.any(np.diff(v) < -1e-12):
            raise NotDiniError("phi is not nondecreasing on the sampled grid")
        mid = self((s[:-1] + s[1:]) / 2)
        if np.any(mid + 1e-12 < (v[:-1] + v[1:]) / 2):
            raise NotDiniError("phi is not midpoint-concave on the sampled grid")


# ---------------------------------------------------------------------------
# Coefficient sets


def _all_finite(out) -> bool:
    """Whether every entry of ``out`` is finite, in one pass when it is.

    The sum of squares is finite only if every entry is, so one dot product
    settles the common case without a temporary array; a non-finite one is
    rechecked entry by entry, because finite entries above ~1e154 overflow it.
    Unlike np.add.reduce, the dot product raises no floating-point warning on
    +inf + -inf or on an overflow, so a bad value still ends in the typed error.
    """
    return math.isfinite(np.vdot(out, out)) or bool(np.isfinite(out).all())


@dataclass(frozen=True)
class CoefficientSet:
    """Drift/diffusion triple with declared hypothesis constants; sigma None is the identity."""

    name: str
    pathcfg: PathSpaceConfig
    K: float
    K1: float
    alpha: float
    phi: DiniModulus
    b0_bound: float = 0.0
    b0: Optional[Callable] = None
    b1: Optional[Callable] = None
    sigma: Optional[Callable] = None

    @property
    def d(self) -> int:
        return self.pathcfg.d

    def eval_b0(self, x: np.ndarray) -> np.ndarray:
        if self.b0 is None:
            return np.zeros_like(x)
        out = self.b0(x)
        if not _all_finite(out):
            raise InvalidCoefficientError(f"b0 returned non-finite value at x={x!r}")
        return out

    def eval_b1(self, seg, law) -> np.ndarray:
        if self.b1 is None:
            shape = seg.endpoint().shape
            return np.zeros(shape)
        out = self.b1(seg, law)
        if not _all_finite(out):
            raise InvalidCoefficientError("b1 returned a non-finite value")
        return out

    def eval_sigma(self, x: np.ndarray) -> np.ndarray:
        if self.sigma is None:
            eye = np.eye(self.d)
            return np.broadcast_to(eye, x.shape + (self.d,)).copy()
        out = self.sigma(x)
        if not _all_finite(out):
            raise InvalidCoefficientError(f"sigma returned non-finite value at x={x!r}")
        return out


# ---------------------------------------------------------------------------
# Builtin gallery


def grid_decay_constant(pathcfg: PathSpaceConfig, rate: float) -> float:
    """h * sum_i e^{rate * s_i}: the grid bound replacing 1/rate."""
    return float(pathcfg.h * np.exp(rate * pathcfg.s_grid).sum())


def make_linear(pathcfg: PathSpaceConfig) -> CoefficientSet:
    """Linear-Gaussian baseline: b0 = 0, b1 linear in an exponentially
    weighted history integral and in the law's mean endpoint, sigma = I."""
    B, K1 = 0.5, 0.25
    gc1 = grid_decay_constant(pathcfg, pathcfg.tau)
    gc2 = grid_decay_constant(pathcfg, 2 * pathcfg.tau)

    def b1(seg, law):
        drift = B * seg.exp_weighted_integral(2 * pathcfg.tau)
        if law is not None:
            drift += K1 * law.mean_endpoint()
        return drift

    return CoefficientSet(
        name="linear",
        pathcfg=pathcfg,
        K=max(2.0, abs(B) * (gc1 + gc2)),
        K1=K1,
        alpha=1.0,
        phi=DiniModulus("power", C=1.0, beta=1.0),
        b1=b1,
    )


def _soft_sqrt(x: np.ndarray) -> np.ndarray:
    """x / sqrt(1 + |x|): 1-Lipschitz, |g(x)| <= sqrt(|x|)."""
    return x / np.sqrt(1.0 + np.abs(x))


def make_sublinear(pathcfg: PathSpaceConfig) -> CoefficientSet:
    """Half-power growth in the history integral (alpha = 1/2 configuration)."""
    B, K1 = 0.5, 0.0
    gc1 = grid_decay_constant(pathcfg, pathcfg.tau)
    d = pathcfg.d

    def b1(seg, law):
        return B * _soft_sqrt(seg.exp_weighted_integral(2 * pathcfg.tau))  # K1 = 0: no law term

    return CoefficientSet(
        name="sublinear",
        pathcfg=pathcfg,
        K=max(2.0, abs(B) * gc1, 2 * abs(B) * math.sqrt(d * gc1)),
        K1=K1,
        alpha=0.5,
        phi=DiniModulus("power", C=1.0, beta=1.0),
        b1=b1,
    )


def _radial_dini(pathcfg: PathSpaceConfig, name: str, profile, phi: DiniModulus) -> CoefficientSet:
    """Bounded radial drift b0(x) = profile(|x|) e1 with modulus phi."""
    e1 = np.zeros(pathcfg.d)
    e1[0] = 1.0

    def b0(x):
        return profile(np.linalg.norm(x, axis=-1, keepdims=True)) * e1

    return CoefficientSet(
        name=name,
        pathcfg=pathcfg,
        K=2.0,
        K1=0.0,
        alpha=0.0,
        phi=phi,
        b0=b0,
        b0_bound=1.0,
    )


def make_dini_sqrt(pathcfg: PathSpaceConfig) -> CoefficientSet:
    """Dini-but-not-Lipschitz drift b0(x) = min(sqrt(|x|), 1) e1."""
    return _radial_dini(pathcfg, "dini_sqrt", lambda r: np.minimum(np.sqrt(r), 1.0),
                        DiniModulus("power", C=1.0, beta=0.5))


def make_dini_log(pathcfg: PathSpaceConfig) -> CoefficientSet:
    """Log-modulus drift psi(|x|) e1: Dini but not Hoelder of any order."""
    psi = DiniModulus("log", C=1.0, q=2.0)
    return _radial_dini(pathcfg, "dini_log", psi, psi)


def make_zero(pathcfg: PathSpaceConfig) -> CoefficientSet:
    """Zero drift, identity diffusion: the closed-form coupling reference."""
    return CoefficientSet(
        name="zero",
        pathcfg=pathcfg,
        K=2.0,
        K1=0.0,
        alpha=0.0,
        phi=DiniModulus("power", C=1.0, beta=1.0),
    )


_GALLERY = {
    "linear": make_linear,
    "sublinear": make_sublinear,
    "dini_sqrt": make_dini_sqrt,
    "dini_log": make_dini_log,
    "zero": make_zero,
}


def check_builtin_name(name: str) -> None:
    """Raise ConfigurationError unless ``name`` names a builtin coefficient set."""
    if name not in _GALLERY:
        raise ConfigurationError(f"unknown coefficient set {name!r}; have {sorted(_GALLERY)}")


def get_coefficients(name: str, pathcfg: PathSpaceConfig) -> CoefficientSet:
    check_builtin_name(name)
    return _GALLERY[name](pathcfg)


# ---------------------------------------------------------------------------
# Hypothesis validation


@dataclass
class ValidationReport:
    """Sampled certificate for the standing hypotheses.

    ratios maps a check name to the worst observed/allowed ratio; anything
    above 1 (beyond rounding slack) is a violation.
    """

    ratios: dict
    tol = 1e-9  # rounding slack on every ratio; a class constant, not a field

    @property
    def passed(self) -> bool:
        return all(r <= 1.0 + self.tol for r in self.ratios.values())

    def failures(self) -> dict:
        return {k: v for k, v in self.ratios.items() if v > 1.0 + self.tol}


def _opnorm(mats: np.ndarray) -> np.ndarray:
    return np.linalg.norm(mats, ord=2, axis=(-2, -1))


def validate_H(coeffs: CoefficientSet, sample_budget: int, rng_seed: int) -> ValidationReport:
    """Draw random points/segments/clouds and check every hypothesis inequality.

    The check is statistical, not symbolic: the worst observed/allowed ratio
    per hypothesis is reported, with pass meaning ratio <= 1 + 1e-9.
    """
    if sample_budget < 1:
        raise ConfigurationError("sample_budget must be >= 1")
    rng = np.random.default_rng(rng_seed)
    cfg = coeffs.pathcfg
    d = cfg.d
    ratios: dict = {}

    # (H1): ellipticity and boundedness of a = sigma sigma^T.
    x = rng.normal(scale=2.0, size=(sample_budget, d))
    sig = coeffs.eval_sigma(x)
    a = sig @ np.swapaxes(sig, -1, -2)
    dets = np.linalg.det(a)
    if np.any(np.abs(dets) < 1e-14):
        ratios["H1_ellipticity"] = math.inf  # a not invertible at a sampled point
    else:
        ratios["H1_ellipticity"] = float(np.max(_opnorm(a) + _opnorm(np.linalg.inv(a))) / coeffs.K)

    # (H3): bounded Dini b0 and Lipschitz sigma.
    y = rng.normal(scale=2.0, size=(sample_budget, d))
    if coeffs.b0 is not None:
        bx, by = coeffs.eval_b0(x), coeffs.eval_b0(y)
        ratios["H3_b0_bound"] = float(np.linalg.norm(bx, axis=-1).max() / coeffs.b0_bound)
        dist = np.linalg.norm(x - y, axis=-1)
        keep = dist > 1e-12
        allowed = coeffs.phi(dist[keep])
        ratios["H3_b0_dini"] = float(
            np.max(np.linalg.norm(bx[keep] - by[keep], axis=-1) / np.maximum(allowed, 1e-300))
        )
    if coeffs.sigma is not None:
        ds = np.linalg.norm(coeffs.eval_sigma(x) - coeffs.eval_sigma(y), axis=(-2, -1))
        dist = np.linalg.norm(x - y, axis=-1)
        keep = dist > 1e-12
        ratios["H3_sigma_lip"] = float(np.max(ds[keep] / (coeffs.K * dist[keep])))
    else:
        ratios["H3_sigma_lip"] = 0.0

    # (H2): path/law Lipschitz and growth of b1.
    if coeffs.b1 is not None:
        n_pairs = min(sample_budget, 48)
        cloud_n = 16
        worst_lip = 0.0
        worst_flat = 0.0
        normals = rng.standard_normal((n_pairs * (2 + 2 * cloud_n), cfg.n_points, d))
        paths = _ou_histories(cfg, normals, 0.0, math.sqrt(2.0), 1.0)  # stationary std 1
        for p in paths.reshape(n_pairs, 2 + 2 * cloud_n, cfg.n_points, d):  # xi, eta, mu, nu
            xi, eta = PathSegment(cfg, p[0]), PathSegment(cfg, p[1])
            mu, nu = ParticleCloud(cfg, p[2 : 2 + cloud_n]), ParticleCloud(cfg, p[2 + cloud_n :])
            w2 = wk_full(mu, nu, k=2) if coeffs.K1 > 0 else 0.0
            diff = np.linalg.norm(coeffs.eval_b1(xi, mu) - coeffs.eval_b1(eta, nu))
            allowed = coeffs.K * weighted_norm(xi - eta) + coeffs.K1 * w2
            worst_lip = max(worst_lip, diff / max(allowed, 1e-300))

            flat = flat_extension(xi)
            diff0 = np.linalg.norm(coeffs.eval_b1(xi, mu) - coeffs.eval_b1(flat, mu))
            allowed0 = coeffs.K * (1 + weighted_norm(xi) ** coeffs.alpha) + coeffs.K1 * (
                cloud_moment(mu, 2) if coeffs.K1 > 0 else 0.0
            )
            worst_flat = max(worst_flat, diff0 / max(allowed0, 1e-300))
        ratios["H2_lipschitz"] = float(worst_lip)
        ratios["H2_flat_growth"] = float(worst_flat)

    return ValidationReport(ratios=ratios)
