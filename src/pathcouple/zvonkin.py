"""Resolvent-equation transform removing a bounded Dini drift, at d = 1.

Solves b0 u' + 0.5 a u'' - lambda u = -b0 on an interval with the drift
extended constantly outside, builds Theta(x) = x + u(x) together with its
inverse, and produces the transformed drift/diffusion pair.  The interval
must contain the region the simulation visits; `decay` reports the share of
its saved endpoints whose preimage lies outside it.

SciPy is imported inside the resolvent solver, so importing this module loads
numpy only: `_solve_1d` imports `scipy.linalg.solve_banded`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .coefficients import CoefficientSet
from .errors import (
    ConfigurationError,
    LambdaExhaustedError,
    OutOfDomainError,
    SolverFailureError,
)
from .laws import _ou_histories
from .pathspace import PathSegment, SegmentBatch, weighted_norm

__all__ = [
    "EllipticGrid",
    "ZvonkinMap",
    "default_lambda_grid",
    "path_lipschitz_certificate",
    "select_lambda",
    "solve_resolvent",
    "theta",
    "theta_inv",
    "transformed_coeffs",
]

RESIDUAL_TOL = 1e-8  # relative to 1 + ||b0||_inf
BUCKETS_PER_NODE = 2  # y-buckets of the 1-D inverse table per grid node


@dataclass(frozen=True)
class EllipticGrid:
    """Uniform grid on [-L, L] with mesh step dx."""

    L: float
    dx: float

    def __post_init__(self):
        if not (0 < self.L < math.inf and 0 < self.dx < math.inf):
            raise ConfigurationError(
                f"grid needs a finite positive L and dx, got L={self.L}, dx={self.dx}")
        m = self.L / self.dx
        if not np.isclose(m, round(m), atol=1e-9) or round(m) < 2:
            raise ConfigurationError(f"L={self.L} must be an integer multiple of dx={self.dx}")

    @cached_property
    def axis(self) -> np.ndarray:
        """Node coordinates, built once and shared read-only."""
        n = int(round(2 * self.L / self.dx))
        axis = -self.L + self.dx * np.arange(n + 1)
        axis.flags.writeable = False
        return axis

    @property
    def n_axis(self) -> int:
        return len(self.axis)


@dataclass(frozen=True)
class ZvonkinMap:
    """Grid solution of the resolvent equation and the induced transform."""

    grid: EllipticGrid
    lam: float
    u: np.ndarray  # (n_axis,) u at the grid nodes, read-only
    grad_u: np.ndarray  # (n_axis,) u' at the grid nodes, read-only
    u_inf: float
    grad_inf: float
    hess_inf: float
    residual: float
    sweep: list = field(default_factory=list)  # (lambda, ||u|| + ||grad u||) pairs tried

    @property
    def smallness(self) -> float:
        return self.u_inf + self.grad_inf

    def _check_points(self, x: np.ndarray, extend: bool) -> None:
        """Reject non-finite points, and points outside [-L, L] unless ``extend``."""
        if not np.isfinite(x).all():
            raise OutOfDomainError("non-finite point: Theta is defined on finite points only")
        L = self.grid.L
        if not extend and np.any(np.abs(x) > L + 1e-12):
            worst = float(np.max(np.abs(x)))
            raise OutOfDomainError(f"point with |coordinate| = {worst} outside box L = {L}")

    def _interp_values(self, table: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Linear interpolation of a per-node table (n_axis,) at points x, in x's shape.

        Clamping the fractional node index to [0, n - 1] gives the flat far field.
        """
        g = self.grid
        s = np.clip((x + g.L) / g.dx, 0, g.n_axis - 1)
        j = np.minimum(s.astype(np.intp), g.n_axis - 2)
        lo, hi = table[j], table[j + 1]
        return lo + (s - j) * (hi - lo)

    @cached_property
    def _cell_table(self):
        """Rows and uniform y-buckets over Theta's 1-D nodes for ``_cell_lookup``.

        Theta is affine on each grid cell, so rows 1..n-1 hold cell r - 1 as
        (Theta, 1 / its step, u, u step, grad u, grad u step) at the cell's left
        node; rows 0 and n are the flat far field below Theta_0 and from
        Theta_{n-1} on, with zero slopes.  Row r starts at y = Theta_{r-1}.
        A point's bucket b gives first[b], the lowest row any point of the
        bucket lies in, and at most ``hops`` row starts fall in one bucket; the
        bucket count is a fixed multiple of the node count, so the table's size
        does not depend on the smallest node step.
        """
        nodes = self.grid.axis + self.u
        steps = np.diff(nodes)
        if not np.all(steps > 0):
            raise SolverFailureError(
                f"Theta is not strictly increasing on the grid (smallest node step "
                f"{steps.min():.3e}); it has no inverse"
            )
        u, g = self.u, self.grad_u
        flat = np.zeros(1)
        rows = np.column_stack([
            np.concatenate([nodes[:1], nodes]),
            np.concatenate([flat, 1.0 / steps, flat]),
            np.concatenate([u[:1], u]),
            np.concatenate([flat, np.diff(u), flat]),
            np.concatenate([g[:1], g]),
            np.concatenate([flat, np.diff(g), flat]),
        ])
        n_buckets = BUCKETS_PER_NODE * len(nodes)
        width = (nodes[-1] - nodes[0]) / n_buckets
        origin, scale, top = nodes[0] - width, 1.0 / width, float(n_buckets + 1)
        # The lookup's own bucket formula, applied to the row starts.
        bucket = np.clip((nodes - origin) * scale, 0.0, top).astype(np.intp)
        # bucket is sorted, so first[b], the count of row starts below bucket b, is
        # a running sum of the row starts per bucket.
        per_bucket = np.bincount(bucket, minlength=n_buckets + 2)
        first = np.concatenate([[0], np.cumsum(per_bucket[:-1])])
        hops = int(per_bucket.max())
        next_start = np.append(nodes, np.inf)  # next_start[r]: where row r + 1 starts
        return origin, scale, top, first, hops, next_start, rows

    def _cell_lookup(self, y: np.ndarray):
        """Theta^-1(y), u and grad u there for 1-D points y (..., 1), from one cell
        search; beyond Theta(+-L) u is flat, so x = y - u(+-L) there.  Non-finite
        points raise OutOfDomainError."""
        self._check_points(y, extend=True)
        origin, scale, top, first, hops, next_start, rows = self._cell_table
        yv = y.reshape(-1)
        s = (yv - origin) * scale
        np.minimum(np.maximum(s, 0.0, out=s), top, out=s)
        j = first.take(s.astype(np.intp))
        for _ in range(hops):
            j += yv >= next_start.take(j)
        c = rows.take(j, axis=0)
        t = (yv - c[:, 0]) * c[:, 1]
        u = (c[:, 2] + t * c[:, 3]).reshape(y.shape)
        grad = (c[:, 4] + t * c[:, 5]).reshape(y.shape + (1,))
        return y - u, u, grad

    def u_at(self, x: np.ndarray) -> np.ndarray:
        return self._interp_values(self.u, x)

    def grad_u_at(self, x: np.ndarray) -> np.ndarray:
        """u' at points x (..., 1), as the 1 x 1 Jacobian (..., 1, 1)."""
        return self._interp_values(self.grad_u, x)[..., None]


def default_lambda_grid(coeffs: CoefficientSet) -> np.ndarray:
    """Geometric sweep of 20 values from twice to a thousand times the drift bound."""
    base = max(coeffs.b0_bound, 1e-6)
    return np.geomspace(2 * base, 1e3 * base, 20)


def _solve_1d(coeffs: CoefficientSet, grid: EllipticGrid, lam: float):
    """Centred finite-difference solve of b0 u' + 0.5 a u'' - lambda u = -b0 with
    a = sigma^2 and Dirichlet values b0(+-L) / lambda at the interval ends.

    Returns u and u' at the nodes (n_axis,), the residual of the discrete
    operator at interior nodes and max |u''|.
    """
    from scipy.linalg import solve_banded

    x = grid.axis[:, None]
    n = grid.n_axis
    dx = grid.dx
    b0 = coeffs.eval_b0(x)[:, 0]  # advection coefficient and right-hand side
    a = coeffs.eval_sigma(x)[:, 0, 0] ** 2

    lower = a[1:-1] / (2 * dx**2) - b0[1:-1] / (2 * dx)
    diag = -a[1:-1] / dx**2 - lam
    upper = a[1:-1] / (2 * dx**2) + b0[1:-1] / (2 * dx)

    ab = np.zeros((3, n))
    ab[1, 0] = ab[1, -1] = 1.0
    ab[1, 1:-1] = diag
    ab[0, 2:] = upper  # superdiagonal
    ab[2, :-2] = lower  # subdiagonal

    rhs = -b0
    rhs[0] = b0[0] / lam  # Dirichlet far field of the constant-extension problem
    rhs[-1] = b0[-1] / lam

    u = solve_banded((1, 1), ab, rhs)

    d2 = u[2:] - 2 * u[1:-1] + u[:-2]
    op = b0[1:-1] * (u[2:] - u[:-2]) / (2 * dx) + a[1:-1] * d2 / (2 * dx**2) - lam * u[1:-1]
    residual = float(np.max(np.abs(op + b0[1:-1])))
    hess_inf = float(np.max(np.abs(d2))) / dx**2
    return u, np.gradient(u, dx), residual, hess_inf


def solve_resolvent(coeffs: CoefficientSet, grid: EllipticGrid, lam: float) -> ZvonkinMap:
    """Solve the resolvent equation for u at a fixed lambda > 0, at d = 1."""
    if lam <= 0:
        raise ConfigurationError(f"lambda must be positive, got {lam}")
    if coeffs.d != 1:
        raise ConfigurationError(f"Dini drifts run at d = 1 only, got d = {coeffs.d}")
    u, grad, residual, hess_inf = _solve_1d(coeffs, grid, lam)

    tol = RESIDUAL_TOL * (1.0 + coeffs.b0_bound)
    if residual > tol:
        raise SolverFailureError(
            f"resolvent residual {residual:.3e} above tolerance {tol:.3e}", residual=residual
        )
    u.flags.writeable = grad.flags.writeable = False  # one map serves every experiment
    u_inf = float(np.max(np.abs(u)))
    grad_inf = float(np.max(np.abs(grad)))
    return ZvonkinMap(
        grid=grid,
        lam=float(lam),
        u=u,
        grad_u=grad,
        u_inf=u_inf,
        grad_inf=grad_inf,
        hess_inf=hess_inf,
        residual=residual,
    )


def select_lambda(coeffs: CoefficientSet, grid: EllipticGrid, lambda_grid) -> ZvonkinMap:
    """Smallest lambda of an ascending sweep with ||u|| + ||grad u|| <= 1/2; stops there."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0:
        raise ConfigurationError("lambda_grid is empty")
    sweep = []
    for lam in lambda_grid:
        zmap = solve_resolvent(coeffs, grid, lam)
        sweep.append((float(lam), zmap.smallness))
        if zmap.smallness <= 0.5:
            return replace(zmap, sweep=sweep)
    raise LambdaExhaustedError(
        f"no lambda in [{lambda_grid[0]:.3g}, {lambda_grid[-1]:.3g}] reaches "
        f"||u|| + ||grad u|| <= 1/2 (best {min(s for _, s in sweep):.3g})"
    )


def theta(zmap: ZvonkinMap, x) -> np.ndarray:
    """Theta(x) = x + u(x) with linear interpolation of u."""
    x = np.asarray(x, dtype=float)
    zmap._check_points(x, extend=False)
    return x + zmap.u_at(x)


def theta_inv(zmap: ZvonkinMap, y, extend: bool = False) -> np.ndarray:
    """Solution x of x + u(x) = y.

    Theta is affine on each grid cell, so one cell search over its node values
    inverts it exactly; beyond Theta(+-L) u is the flat far field u(+-L).

    A preimage outside [-L, L] raises OutOfDomainError unless ``extend=True``,
    which returns it, computed with the constant extension of u.
    Non-finite points raise OutOfDomainError in either mode.
    """
    y = np.asarray(y, dtype=float)
    x = zmap._cell_lookup(y)[0]
    zmap._check_points(x, extend)
    return x


def _apply_pointwise(seg, fn):
    if isinstance(seg, SegmentBatch):
        return seg.map_values(fn)
    if isinstance(seg, PathSegment):
        return PathSegment(seg.config, fn(seg.values))
    raise ConfigurationError(f"cannot transform object of type {type(seg)!r}")


def transformed_coeffs(zmap: ZvonkinMap, coeffs: CoefficientSet) -> CoefficientSet:
    """Drift/diffusion of the transformed equation solved by Theta(X)."""
    lam = zmap.lam
    L = zmap.grid.L

    # The simulators evaluate drift and diffusion at the same endpoint array
    # within a step; memoize the last lookup on array identity.
    last = [None, None]

    def at_endpoints(y):
        if last[0] is not y:
            last[:] = y, zmap._cell_lookup(y)
        return last[1]

    def b0_hat(y):
        return lam * at_endpoints(y)[1]

    b1_hat = None
    if coeffs.b1 is not None:
        def b1_hat(seg, law):
            seg_inv = _apply_pointwise(
                seg, lambda v: np.clip(theta_inv(zmap, v, extend=True), -L, L))
            x0 = seg_inv.endpoint()
            base = coeffs.eval_b1(seg_inv, law)
            return (1.0 + zmap.grad_u_at(x0)[..., 0]) * base

    def sigma_hat(y):
        x, _, grad = at_endpoints(y)
        if coeffs.sigma is None:
            return 1.0 + grad
        return (1.0 + grad) * coeffs.eval_sigma(np.clip(x, -L, L))

    return CoefficientSet(
        name=coeffs.name + "_hat",
        pathcfg=coeffs.pathcfg,
        K=coeffs.K,
        K1=coeffs.K1,
        alpha=coeffs.alpha,
        phi=coeffs.phi,
        b0=b0_hat,
        b0_bound=lam * zmap.u_inf,
        b1=b1_hat,
        sigma=sigma_hat,
    )


def path_lipschitz_certificate(coeffs: CoefficientSet, n_samples: int = 200,
                               seed: int = 0) -> float:
    """Sampled constant c0 in the transformed-drift regularity shape

        |b(xi) - b(eta)| <= c0 ||xi - eta||_tau + c0 ||eta||_tau^alpha |xi(0) - eta(0)|

    over pairs of stationary OU histories (std 1) clipped to [-2, 2].
    """
    rng = np.random.default_rng(seed)
    cfg = coeffs.pathcfg
    worst = 0.0
    for _ in range(n_samples):
        normals = rng.standard_normal((2, cfg.n_points, cfg.d))
        vals = np.clip(_ou_histories(cfg, normals, 0.0, math.sqrt(2.0), 1.0), -2.0, 2.0)
        xi, eta = PathSegment(cfg, vals[0]), PathSegment(cfg, vals[1])
        bx = coeffs.eval_b0(xi.endpoint()) + coeffs.eval_b1(xi, None)
        by = coeffs.eval_b0(eta.endpoint()) + coeffs.eval_b1(eta, None)
        denom = weighted_norm(xi - eta) + weighted_norm(eta) ** coeffs.alpha * float(
            np.linalg.norm(xi.endpoint() - eta.endpoint())
        )
        if denom > 1e-12:
            worst = max(worst, float(np.linalg.norm(bx - by)) / denom)
    return worst
