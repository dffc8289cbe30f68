"""Resolvent-equation transform removing a bounded Dini drift.

Solves (b0 . grad + 0.5 tr{a grad^2} - lambda) u = -b0 on a box with the
drift extended constantly outside, builds Theta(x) = x + u(x) together with
its inverse, and produces the transformed drift/diffusion pair.  The box must
contain the region the simulation visits; callers report the escaping mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import spsolve

from .coefficients import CoefficientSet
from .errors import (
    ConfigurationError,
    LambdaExhaustedError,
    OutOfDomainError,
    SolverFailureError,
)
from .pathspace import PathSegment, SegmentBatch

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
PICARD_TOL = 1e-12


@dataclass(frozen=True)
class EllipticGrid:
    """Uniform box grid [-L, L]^dimension with mesh step dx."""

    dimension: int
    L: float
    dx: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ConfigurationError("elliptic solves support dimension 1 or 2 only")
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

    def nodes(self) -> np.ndarray:
        if self.dimension == 1:
            return self.axis[:, None]
        X, Y = np.meshgrid(self.axis, self.axis, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=-1)


@dataclass
class ZvonkinMap:
    """Grid solution of the resolvent equation and the induced transform."""

    grid: EllipticGrid
    lam: float
    u: np.ndarray  # (n_nodes..., d)
    grad_u: np.ndarray  # (n_nodes..., d, dimension)
    u_inf: float
    grad_inf: float
    hess_inf: float
    residual: float
    sweep: list = field(default_factory=list)  # (lambda, ||u|| + ||grad u||) pairs tried
    eval_count: int = 0  # extended-evaluation bookkeeping: how much simulated
    escape_count: int = 0  # mass leaves the box (u is constant outside it)

    @property
    def smallness(self) -> float:
        return self.u_inf + self.grad_inf

    @property
    def escape_fraction(self) -> float:
        return self.escape_count / self.eval_count if self.eval_count else 0.0

    def _check_points(self, x: np.ndarray, extend: bool) -> None:
        """Reject non-finite points; outside the box, raise or, with ``extend``, count escapes."""
        if not np.isfinite(x).all():
            raise OutOfDomainError("non-finite point: Theta is defined on finite points only")
        L = self.grid.L
        if extend:
            self.eval_count += max(x.size // max(x.shape[-1], 1), 1)
            self.escape_count += int(np.count_nonzero(np.any(np.abs(x) > L, axis=-1)))
        elif np.any(np.abs(x) > L + 1e-12):
            worst = float(np.max(np.abs(x)))
            raise OutOfDomainError(f"point with |coordinate| = {worst} outside box L = {L}")

    def _interp_values(self, table: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of a per-node table at points x (..., dim).

        Clamping the fractional node index to [0, n - 1] gives the flat far field.
        """
        g = self.grid
        s = np.clip((x + g.L) / g.dx, 0, g.n_axis - 1)
        j = np.minimum(s.astype(np.intp), g.n_axis - 2)
        flat = table.reshape(g.n_axis**g.dimension, -1)
        return self._lerp(flat, j, s - j).reshape(x.shape[:-1] + table.shape[1:])

    def _lerp(self, flat, j, t, axis=0, base=0):
        """Lerp flat node rows at cell indices j, fractions t, axis by axis from ``axis``."""
        n, dim = self.grid.n_axis, self.grid.dimension
        if axis == dim:
            return flat[base]
        stride = n ** (dim - 1 - axis)
        lo = self._lerp(flat, j, t, axis + 1, base + j[..., axis] * stride)
        hi = self._lerp(flat, j, t, axis + 1, base + (j[..., axis] + 1) * stride)
        return lo + t[..., axis, None] * (hi - lo)

    @cached_property
    def _theta_nodes(self) -> np.ndarray:
        """Theta at the 1-D grid nodes, the abscissae of the exact inverse."""
        nodes = self.grid.axis + self.u[:, 0]
        steps = np.diff(nodes)
        if not np.all(steps > 0):
            raise SolverFailureError(
                f"Theta is not strictly increasing on the grid (smallest node step "
                f"{steps.min():.3e}); it has no inverse"
            )
        return nodes

    def u_at(self, x: np.ndarray) -> np.ndarray:
        return self._interp_values(self.u, x)

    def grad_u_at(self, x: np.ndarray) -> np.ndarray:
        return self._interp_values(self.grad_u, x)


def default_lambda_grid(coeffs: CoefficientSet, n: int = 20) -> np.ndarray:
    """Geometric sweep from twice to a thousand times the drift bound."""
    base = max(coeffs.b0_bound, 1e-6)
    return np.geomspace(2 * base, 1e3 * base, n)


def _diffusion_on_axis(coeffs: CoefficientSet, points: np.ndarray) -> np.ndarray:
    sig = coeffs.eval_sigma(points)
    return sig @ np.swapaxes(sig, -1, -2)


def _solve_1d(coeffs: CoefficientSet, grid: EllipticGrid, lam: float):
    x = grid.axis[:, None]
    n = grid.n_axis
    dx = grid.dx
    b0 = coeffs.eval_b0(x)  # (n, d)
    a = _diffusion_on_axis(coeffs, x)[:, 0, 0]  # (n,)
    adv = b0[:, 0]  # advection coefficient; same scalar operator per component

    lower = a[1:-1] / (2 * dx**2) - adv[1:-1] / (2 * dx)
    diag = -a[1:-1] / dx**2 - lam
    upper = a[1:-1] / (2 * dx**2) + adv[1:-1] / (2 * dx)

    ab = np.zeros((3, n))
    ab[1, 0] = ab[1, -1] = 1.0
    ab[1, 1:-1] = diag
    ab[0, 2:] = upper  # superdiagonal
    ab[2, :-2] = lower  # subdiagonal

    rhs = np.empty((n, coeffs.d))
    rhs[1:-1] = -b0[1:-1]
    rhs[0] = b0[0] / lam  # Dirichlet far field of the constant-extension problem
    rhs[-1] = b0[-1] / lam

    u = solve_banded((1, 1), ab, rhs)

    # Residual of the discrete operator at interior nodes.
    op = (
        adv[1:-1, None] * (u[2:] - u[:-2]) / (2 * dx)
        + a[1:-1, None] * (u[2:] - 2 * u[1:-1] + u[:-2]) / (2 * dx**2)
        - lam * u[1:-1]
    )
    residual = float(np.max(np.abs(op + b0[1:-1])))

    grad = np.gradient(u, dx, axis=0)[..., None]  # (n, d, 1)
    hess = np.zeros_like(u)
    hess[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / dx**2
    hess_inf = float(np.max(np.abs(hess)))
    return u, grad, residual, hess_inf


def _solve_2d(coeffs: CoefficientSet, grid: EllipticGrid, lam: float):
    n = grid.n_axis
    dx = grid.dx
    pts = grid.nodes()
    b0 = coeffs.eval_b0(pts)  # (n*n, 2)
    a = _diffusion_on_axis(coeffs, pts)  # (n*n, 2, 2)

    # Row i*n + j is node (i, j): x-derivatives act on the first Kronecker factor.
    eye = identity(n)
    d1 = diags([-1.0, 1.0], [-1, 1], shape=(n, n)) / (2 * dx)
    d2 = diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / dx**2
    op = (
        diags(b0[:, 0]) @ kron(d1, eye)
        + diags(b0[:, 1]) @ kron(eye, d1)
        + diags(a[:, 0, 0] / 2) @ kron(d2, eye)
        + diags(a[:, 1, 1] / 2) @ kron(eye, d2)
        + diags(a[:, 0, 1]) @ kron(d1, d1)
        - lam * identity(n * n)
    )
    mask = np.zeros((n, n), dtype=bool)
    mask[1:-1, 1:-1] = True
    interior = mask.ravel()
    # Dirichlet far field of the constant-extension problem on the boundary rows.
    A = (diags(interior.astype(float)) @ op + diags((~interior).astype(float))).tocsc()
    rhs = np.where(interior[:, None], -b0, b0 / lam)
    u = spsolve(A, rhs)
    residual = float(np.max(np.abs((A @ u - rhs)[interior])))

    u_grid = u.reshape(n, n, coeffs.d)
    gx = np.gradient(u_grid, dx, axis=0)
    gy = np.gradient(u_grid, dx, axis=1)
    grad = np.stack([gx, gy], axis=-1).reshape(n * n, coeffs.d, 2)
    hxx = np.abs(np.diff(u_grid, 2, axis=0)).max() / dx**2
    hyy = np.abs(np.diff(u_grid, 2, axis=1)).max() / dx**2
    return u, grad, residual, float(max(hxx, hyy))


def solve_resolvent(coeffs: CoefficientSet, grid: EllipticGrid, lam: float) -> ZvonkinMap:
    """Solve the resolvent equation for u at a fixed lambda > 0."""
    if lam <= 0:
        raise ConfigurationError(f"lambda must be positive, got {lam}")
    if grid.dimension != coeffs.d:
        raise ConfigurationError(
            f"grid dimension {grid.dimension} != coefficient dimension {coeffs.d}"
        )
    if grid.dimension == 1:
        u, grad, residual, hess_inf = _solve_1d(coeffs, grid, lam)
    else:
        u, grad, residual, hess_inf = _solve_2d(coeffs, grid, lam)

    tol = RESIDUAL_TOL * (1.0 + coeffs.b0_bound)
    if residual > tol:
        raise SolverFailureError(
            f"resolvent residual {residual:.3e} above tolerance {tol:.3e}", residual=residual
        )
    u_inf = float(np.max(np.linalg.norm(u, axis=-1)))
    if grad.shape[-1] == 1:
        # The spectral norm of a single column is its Euclidean norm; the SVD
        # the general case needs costs more than the 1-D solve itself.
        grad_inf = float(np.max(np.linalg.norm(grad[..., 0], axis=-1)))
    else:
        grad_inf = float(np.max(np.linalg.norm(grad, ord=2, axis=(-2, -1))))
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
            zmap.sweep = sweep
            return zmap
    raise LambdaExhaustedError(
        f"no lambda in [{lambda_grid[0]:.3g}, {lambda_grid[-1]:.3g}] reaches "
        f"||u|| + ||grad u|| <= 1/2 (best {min(s for _, s in sweep):.3g})"
    )


def theta(zmap: ZvonkinMap, x) -> np.ndarray:
    """Theta(x) = x + u(x) with multilinear interpolation of u."""
    x = np.asarray(x, dtype=float)
    zmap._check_points(x, extend=False)
    return x + zmap.u_at(x)


def theta_inv(zmap: ZvonkinMap, y, max_iter: int = 200, extend: bool = False) -> np.ndarray:
    """Solution x of x + u(x) = y.

    In 1-D Theta is piecewise linear, so x = y - u(x) is exact once u is
    interpolated against the node values Theta(x_i) instead of x_i; beyond
    Theta(+-L) the interpolation clamps to u(+-L), the flat far field.  In 2-D
    it is the Picard fixed point, a contraction with factor <= 1/2 by
    smallness, and ``max_iter`` sweeps without convergence raise
    SolverFailureError.

    With ``extend=True`` points outside the box use the constant extension of
    u (flat far field) instead of raising, and the escaped mass is counted.
    Non-finite points raise OutOfDomainError in either mode.
    """
    y = np.asarray(y, dtype=float)
    zmap._check_points(y, extend)
    if zmap.grid.dimension == 1:
        return y - np.interp(y, zmap._theta_nodes, zmap.u[:, 0])
    x = y.copy()
    delta = math.inf
    for _ in range(max_iter):
        x_new = y - zmap.u_at(x)  # u_at is flat outside the box
        delta = np.max(np.abs(x_new - x))
        x = x_new
        if delta < PICARD_TOL:
            return x
    raise SolverFailureError(
        f"Picard inverse of Theta did not converge in {max_iter} sweeps "
        f"(last step {delta:.3e}, tolerance {PICARD_TOL:.0e})", residual=float(delta)
    )


def _apply_pointwise(seg, fn):
    if isinstance(seg, SegmentBatch):
        return seg.map_values(fn)
    if isinstance(seg, PathSegment):
        return PathSegment(seg.config, fn(seg.values))
    raise ConfigurationError(f"cannot transform object of type {type(seg)!r}")


def transformed_coeffs(zmap: ZvonkinMap, coeffs: CoefficientSet) -> CoefficientSet:
    """Drift/diffusion of the transformed equation solved by Theta(X)."""
    lam = zmap.lam
    eye = np.eye(coeffs.d)
    L = zmap.grid.L

    # The simulators evaluate drift and diffusion at the same endpoint array
    # within a step; memoize the last inverse on array identity.
    last = [None, None]

    def inv_extended(y):
        if last[0] is not y:
            last[:] = y, np.clip(theta_inv(zmap, y, extend=True), -L, L)
        return last[1]

    def b0_hat(y):
        return lam * zmap.u_at(inv_extended(y))

    def grad_theta_at(xinv):
        return eye + zmap.grad_u_at(xinv)

    b1_hat = None
    if coeffs.b1 is not None:
        def b1_hat(seg, law):
            seg_inv = _apply_pointwise(seg, inv_extended)
            x0 = seg_inv.endpoint()
            base = coeffs.eval_b1(seg_inv, law)
            return np.einsum("...ij,...j->...i", grad_theta_at(x0), base)

    def sigma_hat(y):
        xinv = inv_extended(y)
        return grad_theta_at(xinv) @ coeffs.eval_sigma(xinv)

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
        sigma_identity=False,
    )


def path_lipschitz_certificate(
    coeffs: CoefficientSet, n_samples: int = 200, seed: int = 0, box: float = 2.0
) -> float:
    """Sampled constant c0 in the transformed-drift regularity shape

        |b(xi) - b(eta)| <= c0 ||xi - eta||_tau + c0 ||eta||_tau^alpha |xi(0) - eta(0)|.
    """
    from .coefficients import _random_segment_values
    from .pathspace import weighted_norm

    rng = np.random.default_rng(seed)
    cfg = coeffs.pathcfg
    worst = 0.0
    for _ in range(n_samples):
        vals = np.clip(_random_segment_values(rng, cfg, 2, scale=box / 2), -box, box)
        xi, eta = PathSegment(cfg, vals[0]), PathSegment(cfg, vals[1])
        bx = coeffs.eval_b0(xi.endpoint()) + coeffs.eval_b1(xi, None)
        by = coeffs.eval_b0(eta.endpoint()) + coeffs.eval_b1(eta, None)
        denom = weighted_norm(xi - eta) + weighted_norm(eta) ** coeffs.alpha * float(
            np.linalg.norm(xi.endpoint() - eta.endpoint())
        )
        if denom > 1e-12:
            worst = max(worst, float(np.linalg.norm(bx - by)) / denom)
    return worst
