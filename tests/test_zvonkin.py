import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from pathcouple import experiments, zvonkin
from pathcouple.coefficients import (
    CoefficientSet,
    DiniModulus,
    get_coefficients,
)
from pathcouple.errors import (
    ConfigurationError,
    LambdaExhaustedError,
    OutOfDomainError,
    SolverFailureError,
)
from pathcouple.experiments import (
    parse_config,
    run_decay,
    run_entropy,
    run_gradient_estimate,
)
from pathcouple.pathspace import PathSegment, PathSpaceConfig, SegmentBatch
from pathcouple.simulate import simulate_coupled_Q
from pathcouple.zvonkin import (
    EllipticGrid,
    ZvonkinMap,
    default_lambda_grid,
    path_lipschitz_certificate,
    select_lambda,
    solve_resolvent,
    theta,
    theta_inv,
    transformed_coeffs,
)

CFG = PathSpaceConfig(d=1, tau=1.0, h=0.05, T_mem=2.0)
GRID = EllipticGrid(5.0, 0.01)


def picard_inverse(zmap, y, sweeps=100):
    """Reference fixed-point iteration x = y - u(clip(x)) for the exact inverse."""
    L = zmap.grid.L
    x = y.copy()
    for _ in range(sweeps):
        x = y - zmap.u_at(np.clip(x, -L, L))
    return x


def count_cell_lookups(monkeypatch) -> list:
    """Points of every 1-D cell search from now on, one entry per search."""
    points = []
    original = ZvonkinMap._cell_lookup

    def counting(zmap, y):
        points.append(int(np.prod(np.shape(y)[:-1])))
        return original(zmap, y)

    monkeypatch.setattr(ZvonkinMap, "_cell_lookup", counting)
    return points


def constant_drift_coeffs(c, cfg=CFG):
    d = cfg.d
    vec = np.full(d, float(c))
    return CoefficientSet(
        name="const",
        pathcfg=cfg,
        K=2.0,
        K1=0.0,
        alpha=0.0,
        phi=DiniModulus("power"),
        b0=lambda x: np.broadcast_to(vec, x.shape).copy(),
        b0_bound=abs(c) * math.sqrt(d),
    )


class TestSolve:
    def test_zero_drift_gives_zero(self):
        zmap = solve_resolvent(get_coefficients("zero", CFG), GRID, 4.0)
        assert zmap.u_inf == pytest.approx(0.0, abs=1e-12)

    def test_constant_drift_gives_constant(self):
        # all derivative terms vanish: u = c / lambda
        zmap = solve_resolvent(constant_drift_coeffs(0.8), GRID, 4.0)
        np.testing.assert_allclose(zmap.u, 0.2, atol=1e-10)
        assert zmap.grad_inf == pytest.approx(0.0, abs=1e-8)

    def test_maximum_principle(self):
        coeffs = get_coefficients("dini_sqrt", CFG)
        zmap = solve_resolvent(coeffs, GRID, 10.0)
        assert zmap.u_inf <= coeffs.b0_bound / 10.0 + 10 * GRID.dx**2

    def test_residual_small(self):
        coeffs = get_coefficients("dini_log", CFG)
        zmap = solve_resolvent(coeffs, GRID, 8.0)
        assert zmap.residual <= 1e-8 * (1 + coeffs.b0_bound)

    def test_1d_grad_inf_is_max_abs_grad(self):
        zmap = solve_resolvent(get_coefficients("dini_log", CFG), GRID, 8.0)
        assert zmap.grad_inf == np.abs(np.gradient(zmap.u, GRID.dx)).max() > 0

    def test_axis_cached_read_only(self):
        grid = EllipticGrid(5.0, 0.01)
        axis = grid.axis
        assert grid.axis is axis
        assert not axis.flags.writeable

    def test_bad_lambda(self):
        with pytest.raises(ConfigurationError):
            solve_resolvent(get_coefficients("zero", CFG), GRID, -1.0)

    def test_d3_rejected(self):
        coeffs = get_coefficients("dini_sqrt", dataclasses.replace(CFG, d=3))
        with pytest.raises(ConfigurationError, match="d = 1 only, got d = 3"):
            solve_resolvent(coeffs, GRID, 4.0)

    def test_d2_rejected(self):
        coeffs = get_coefficients("dini_sqrt", dataclasses.replace(CFG, d=2))
        with pytest.raises(ConfigurationError, match="d = 1 only, got d = 2"):
            solve_resolvent(coeffs, GRID, 4.0)

    @pytest.mark.parametrize("L, dx", [
        (5.0, 0.0), (5.0, -0.01), (-5.0, -0.01), (0.0, 0.01), (math.inf, 0.01),
        (math.nan, 0.01), (5.0, math.inf), (5.0, math.nan),
    ])
    def test_grid_needs_finite_positive_L_and_dx(self, L, dx):
        with pytest.raises(ConfigurationError, match="finite positive L and dx"):
            EllipticGrid(L, dx)

    def test_nan_solve_fails(self, monkeypatch):
        # A NaN residual compares False with any tolerance; it must still fail.
        monkeypatch.setattr(zvonkin, "_tridiagonal_solve",
                            lambda lower, diag, upper, rhs: np.full_like(rhs, np.nan))
        with pytest.raises(SolverFailureError, match="residual nan"):
            solve_resolvent(get_coefficients("dini_sqrt", CFG), GRID, 4.0)

    def test_zero_pivot_fails_without_warning(self, monkeypatch):
        solve = zvonkin._tridiagonal_solve
        monkeypatch.setattr(zvonkin, "_tridiagonal_solve",
                            lambda lower, diag, upper, rhs: solve(lower, 0 * diag, upper, rhs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailureError):
                solve_resolvent(get_coefficients("dini_sqrt", CFG), GRID, 4.0)


def banded_solve(lower, diag, upper, rhs):
    """Reference: LAPACK's pivoted banded solve of the same tridiagonal system."""
    from scipy.linalg import solve_banded

    ab = np.zeros((3, len(diag)))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return solve_banded((1, 1), ab, rhs)


class TestTridiagonalSolve:
    @pytest.mark.parametrize("n", [*range(3, 71), *(2**k + s for k in range(2, 16) for s in (-1, 1)),
                                   28001, 32001])
    def test_matches_banded_on_dominant_systems(self, n):
        rng = np.random.default_rng(n)
        lower, upper = rng.uniform(-1, 1, (2, n - 1))
        off = np.abs(np.append(lower, 0.0)) + np.abs(np.insert(upper, 0, 0.0))
        diag = rng.choice([-1.0, 1.0], n) * (off + rng.uniform(0.01, 1.0, n))
        rhs = rng.standard_normal(n)
        u = zvonkin._tridiagonal_solve(lower, diag, upper, rhs)
        reference = banded_solve(lower, diag, upper, rhs)
        np.testing.assert_allclose(u, reference, rtol=0, atol=1e-12 * np.abs(reference).max())

    @pytest.mark.parametrize("name", ["dini_sqrt", "dini_log"])
    def test_shipped_maps_match_banded(self, monkeypatch, name):
        # The shipped grid and lambda sweep of a T = 4 run.
        coeffs = get_coefficients(name, CFG)
        grid = EllipticGrid(16.0, 1e-3)
        zmap = select_lambda(coeffs, grid, default_lambda_grid(coeffs))
        monkeypatch.setattr(zvonkin, "_tridiagonal_solve", banded_solve)
        reference = solve_resolvent(coeffs, grid, zmap.lam)
        tol = zvonkin.RESIDUAL_TOL * (1 + coeffs.b0_bound)
        assert max(zmap.residual, reference.residual) <= tol
        np.testing.assert_allclose(zmap.u, reference.u, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(zmap.grad_u, np.gradient(zmap.u, grid.dx))


class TestSelectLambda:
    def test_constant_closed_form(self):
        # smallness reduces to c/lambda <= 1/2: smallest grid value >= 2c
        coeffs = constant_drift_coeffs(1.0)
        lams = np.array([0.5, 1.0, 1.9, 2.5, 4.0])
        zmap = select_lambda(coeffs, GRID, lams)
        assert zmap.lam == pytest.approx(2.5)
        # the sweep stops at its answer: 4.0 is never solved
        assert [lam for lam, _ in zmap.sweep] == [0.5, 1.0, 1.9, 2.5]

    def test_sweep_stops_at_answer(self, monkeypatch):
        coeffs = get_coefficients("dini_sqrt", CFG)
        lams = default_lambda_grid(coeffs)
        calls = []
        original = zvonkin.solve_resolvent

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(zvonkin, "solve_resolvent", counting)
        zmap = select_lambda(coeffs, GRID, lams)
        k = int(np.flatnonzero(lams == zmap.lam)[0])
        assert 0 < k < len(lams) - 1
        assert len(calls) == k + 1
        assert [lam for lam, _ in zmap.sweep] == lams[: k + 1].tolist()
        np.testing.assert_array_equal(zmap.u, original(coeffs, GRID, lams[k]).u)

    def test_zero_drift_takes_smallest(self):
        zmap = select_lambda(get_coefficients("zero", CFG), GRID, [0.5, 1.0])
        assert zmap.lam == pytest.approx(0.5)

    def test_exhausted(self):
        with pytest.raises(LambdaExhaustedError):
            select_lambda(constant_drift_coeffs(100.0), GRID, [1.0, 2.0])

    def test_sweep_norm_monotone(self):
        coeffs = get_coefficients("dini_sqrt", CFG)
        sweeps = [solve_resolvent(coeffs, GRID, lam).u_inf for lam in (2.0, 4.0, 8.0, 16.0)]
        assert all(a >= b - 1e-12 for a, b in zip(sweeps, sweeps[1:]))

    def test_mesh_refinement_stable(self):
        coeffs = get_coefficients("dini_sqrt", CFG)
        lams = default_lambda_grid(coeffs)
        coarse = select_lambda(coeffs, EllipticGrid(5.0, 0.02), lams)
        fine = select_lambda(coeffs, EllipticGrid(5.0, 0.01), lams)
        assert coarse.lam == fine.lam
        assert coarse.u_inf == pytest.approx(fine.u_inf, rel=0.02)
        assert coarse.grad_inf == pytest.approx(fine.grad_inf, rel=0.02)


class TestInterpolation:
    @staticmethod
    def _points(L, rng):
        """Nodes, the interval ends, just inside them, random interior and far-field points."""
        axis = EllipticGrid(L, 0.25).axis
        edge = np.array([-L, L, -L + 1e-12, L - 1e-12, -L - 1e-3, L + 1e-3, -3 * L, 3 * L])
        coords = np.concatenate([axis, edge, rng.uniform(-L, L, 200),
                                 rng.uniform(-2 * L, 2 * L, 50)])
        return rng.permutation(coords)[:, None]

    def test_1d_matches_np_interp_per_column(self):
        # Each node table, u and grad u, against np.interp over the grid nodes.
        grid = EllipticGrid(2.0, 0.25)
        rng = np.random.default_rng(3)
        u, grad = rng.normal(size=(2, grid.n_axis))
        zmap = ZvonkinMap(grid=grid, lam=1.0, u=u, grad_u=grad, u_inf=0.0,
                          grad_inf=0.0, hess_inf=0.0, residual=0.0)
        x = self._points(grid.L, rng)
        got_u, got_grad = zmap.u_at(x), zmap.grad_u_at(x)
        assert got_u.shape == (len(x), 1) and got_grad.shape == (len(x), 1, 1)
        for got, table in ((got_u[:, 0], u), (got_grad[:, 0, 0], grad)):
            np.testing.assert_allclose(got, np.interp(x[:, 0], grid.axis, table),
                                       rtol=0, atol=1e-14)


class TestTheta:
    def test_identity_when_u_zero(self):
        zmap = solve_resolvent(get_coefficients("zero", CFG), GRID, 4.0)
        x = np.linspace(-4, 4, 11)[:, None]
        np.testing.assert_allclose(theta(zmap, x), x, atol=1e-12)

    def test_constant_shift(self):
        zmap = solve_resolvent(constant_drift_coeffs(1.2), GRID, 4.0)
        y = np.array([[0.7]])
        np.testing.assert_allclose(theta_inv(zmap, y), y - 0.3, atol=1e-9)

    def test_round_trip(self):
        coeffs = get_coefficients("dini_sqrt", CFG)
        zmap = select_lambda(coeffs, GRID, default_lambda_grid(coeffs))
        x = np.random.default_rng(1).uniform(-4, 4, (1000, 1))
        err = np.abs(theta(zmap, theta_inv(zmap, theta(zmap, x))) - theta(zmap, x))
        assert err.max() <= 1e-10

    @pytest.mark.parametrize("name", ["dini_sqrt", "dini_log"])
    def test_exact_inverse_matches_picard(self, name):
        coeffs = get_coefficients(name, CFG)
        zmap = select_lambda(coeffs, GRID, default_lambda_grid(coeffs))
        y = np.random.default_rng(2).uniform(-5, 5, (2000, 1))
        np.testing.assert_allclose(theta_inv(zmap, y, extend=True), picard_inverse(zmap, y),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["dini_sqrt", "dini_log"])
    def test_mirrored_drift_mirrors_theta(self, name):
        # b0-(x) = -b0(-x) solves the mirrored equation, so at the same lambda
        # Theta-(x) = -Theta(-x); the centred stencil keeps that symmetry and a
        # one-sided advection difference breaks it.
        coeffs = get_coefficients(name, CFG)
        zmap = select_lambda(coeffs, GRID, default_lambda_grid(coeffs))
        mirrored = dataclasses.replace(coeffs, b0=lambda x: -coeffs.b0(-x))
        zmap_m = solve_resolvent(mirrored, GRID, zmap.lam)
        rng = np.random.default_rng(7)
        x = rng.uniform(-GRID.L, GRID.L, (2000, 1))
        np.testing.assert_allclose(theta(zmap_m, x), -theta(zmap, -x), rtol=0, atol=1e-10)
        y = rng.uniform(-2 * GRID.L, 2 * GRID.L, (2000, 1))
        np.testing.assert_allclose(theta_inv(zmap_m, y, extend=True),
                                   -theta_inv(zmap, -y, extend=True), rtol=0, atol=1e-10)

    def test_extended_far_field(self):
        coeffs = get_coefficients("dini_sqrt", CFG)
        zmap = select_lambda(coeffs, GRID, default_lambda_grid(coeffs))
        u_lo, u_hi = zmap.u[0], zmap.u[-1]
        assert theta(zmap, [[-5.0]])[0, 0] > -5.6 and theta(zmap, [[5.0]])[0, 0] < 5.6
        y = np.array([[-7.0], [-5.6], [0.3], [4.9], [5.6], [8.0]])
        x = theta_inv(zmap, y, extend=True)
        np.testing.assert_array_equal(x[:2], y[:2] - u_lo)
        np.testing.assert_array_equal(x[-2:], y[-2:] - u_hi)

    def test_non_monotone_theta_rejected(self):
        # u = -2x gives Theta = -x: no increasing inverse exists.
        grid = EllipticGrid(1.0, 0.1)
        n = grid.n_axis
        zmap = ZvonkinMap(
            grid=grid, lam=1.0, u=-2.0 * grid.axis, grad_u=np.full(n, -2.0),
            u_inf=2.0, grad_inf=2.0, hess_inf=0.0, residual=0.0,
        )
        with pytest.raises(SolverFailureError, match="not strictly increasing"):
            theta_inv(zmap, np.array([[0.5]]))

    def test_out_of_domain(self):
        zmap = solve_resolvent(get_coefficients("zero", CFG), GRID, 4.0)
        with pytest.raises(OutOfDomainError):
            theta(zmap, np.array([[6.0]]))
        with pytest.raises(OutOfDomainError):
            theta_inv(zmap, np.array([[-5.5]]))

    def test_domain_is_the_preimage(self):
        # u(+-L) = 0.26 on this map, so Theta sends the box [-5, 5] onto
        # [-4.74, 5.26]: y = -5 comes from outside the box, y = 5.13 from inside.
        coeffs = get_coefficients("dini_sqrt", CFG)
        zmap = select_lambda(coeffs, GRID, default_lambda_grid(coeffs))
        assert zmap.u[0] == pytest.approx(0.26, abs=5e-3) == zmap.u[-1]
        with pytest.raises(OutOfDomainError, match="outside box"):
            theta_inv(zmap, [[-5.0]])
        x = theta_inv(zmap, [[5.13]])
        assert abs(x[0, 0]) < GRID.L
        np.testing.assert_allclose(theta(zmap, x), [[5.13]], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(theta_inv(zmap, [[-5.0]], extend=True), [[-5.0 - zmap.u[0]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        zmap = solve_resolvent(get_coefficients("dini_sqrt", CFG), GRID, 4.0)
        y = np.array([[0.5], [bad]])
        with pytest.raises(OutOfDomainError, match="non-finite"):
            theta(zmap, y)
        for extend in (False, True):
            with pytest.raises(OutOfDomainError, match="non-finite"):
                theta_inv(zmap, y, extend=extend)


class TestCellLookup:
    """The one-search 1-D lookup against np.interp inversion and the grid-index lerps."""

    @staticmethod
    def _reference(zmap, y):
        """x by np.interp over Theta's nodes; u and grad u at x by u_at / grad_u_at."""
        nodes = zmap.grid.axis + zmap.u
        x = y - np.interp(y, nodes, zmap.u)
        return x, zmap.u_at(x), zmap.grad_u_at(x)

    def _assert_matches(self, zmap, y):
        got = zmap._cell_lookup(y)
        for have, want in zip(got, self._reference(zmap, y)):
            assert have.shape == want.shape
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-12)
        return got

    @pytest.mark.parametrize("name", ["dini_sqrt", "dini_log"])
    def test_matches_reference(self, name):
        coeffs = get_coefficients(name, CFG)
        zmap = select_lambda(coeffs, GRID, default_lambda_grid(coeffs))
        L, nodes = GRID.L, GRID.axis + zmap.u
        rng = np.random.default_rng(5)
        interior = rng.uniform(nodes[0], nodes[-1], (3000, 1))
        self._assert_matches(zmap, interior)
        # Exact nodes, both box edges among them, invert to the grid nodes.
        x, u, grad = self._assert_matches(zmap, nodes[:, None])
        np.testing.assert_allclose(x[:, 0], GRID.axis, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(u[:, 0], zmap.u)
        np.testing.assert_array_equal(grad[:, 0, 0], zmap.grad_u)
        # Far field: u and grad u are flat at their values on the box edges.
        far = np.array([[-3 * L], [nodes[0] - 1e-9], [nodes[-1] + 1e-9], [3 * L]])
        x, u, grad = self._assert_matches(zmap, far)
        np.testing.assert_array_equal(u[:, 0], zmap.u[[0, 0, -1, -1]])
        np.testing.assert_array_equal(grad[:, 0, 0], zmap.grad_u[[0, 0, -1, -1]])
        np.testing.assert_array_equal(x, far - u)
        # Any leading shape.
        batch = rng.uniform(-2 * L, 2 * L, (4, 7, 1))
        self._assert_matches(zmap, batch)

    def test_tiny_node_step_keeps_the_table_small(self):
        # Theta = x except one node step of 1e-9: a bucket width set by the
        # smallest step would need ~1e9 buckets.
        grid = EllipticGrid(1.0, 0.1)
        n = grid.n_axis
        nodes = grid.axis.copy()
        nodes[11] = nodes[10] + 1e-9
        u = nodes - grid.axis
        grad = np.gradient(u, grid.dx)
        zmap = ZvonkinMap(grid=grid, lam=1.0, u=u, grad_u=grad, u_inf=0.1, grad_inf=1.0,
                          hess_inf=0.0, residual=0.0)
        y = np.concatenate([nodes, nodes[10] + np.linspace(0, 1e-9, 7),
                            np.random.default_rng(6).uniform(-1.5, 1.5, 500)])[:, None]
        self._assert_matches(zmap, y)
        _, _, _, first, hops, _, _ = zmap._cell_table
        assert len(first) <= zvonkin.BUCKETS_PER_NODE * n + 2
        assert hops >= 2  # the close pair shares a bucket: the search steps twice
        self._assert_first_is_searchsorted(zmap)

    def test_first_on_the_shipped_dini_map(self):
        shipped = Path(__file__).resolve().parents[1] / "configs" / "builtin_dini.cfg"
        _, zmap = parse_config(shipped.read_text()).effective_coefficients()
        self._assert_first_is_searchsorted(zmap)

    @staticmethod
    def _assert_first_is_searchsorted(zmap):
        # first[b]: the lowest row of bucket b, by its definition as a search over
        # the sorted buckets of the row starts; hops: the most starts in one bucket.
        origin, scale, top, first, hops, _, _ = zmap._cell_table
        nodes = zmap.grid.axis + zmap.u
        bucket = np.clip((nodes - origin) * scale, 0.0, top).astype(np.intp)
        want = np.searchsorted(bucket, np.arange(int(top) + 1))
        assert first.dtype == want.dtype
        np.testing.assert_array_equal(first, want)
        assert hops == max(np.count_nonzero(bucket == b) for b in np.unique(bucket))


class TestTransformedCoeffs:
    def test_identity_transform(self):
        coeffs = get_coefficients("linear", CFG)
        zmap = solve_resolvent(get_coefficients("zero", CFG), GRID, 4.0)
        hat = transformed_coeffs(zmap, coeffs)
        seg = PathSegment.constant(CFG, [0.5])
        batch = SegmentBatch.from_segment(seg, 3)
        np.testing.assert_allclose(hat.eval_b1(batch, None), coeffs.eval_b1(batch, None), atol=1e-10)
        np.testing.assert_allclose(hat.eval_b0(batch.endpoint()), 0.0, atol=1e-12)

    def test_constant_drift_reproduced(self):
        # u = c/lambda constant: transformed drift equals the original b0
        coeffs = constant_drift_coeffs(0.9)
        zmap = solve_resolvent(coeffs, GRID, 3.0)
        hat = transformed_coeffs(zmap, coeffs)
        y = np.array([[0.3], [-1.2]])
        np.testing.assert_allclose(hat.eval_b0(y), 0.9, atol=1e-8)
        np.testing.assert_allclose(
            hat.eval_sigma(y), np.broadcast_to(np.eye(1), (2, 1, 1)), atol=1e-7
        )

    def test_path_lipschitz_certificate(self):
        coeffs = get_coefficients("dini_sqrt", CFG)
        zmap = select_lambda(coeffs, GRID, default_lambda_grid(coeffs))
        hat = transformed_coeffs(zmap, coeffs)
        c0 = path_lipschitz_certificate(hat, n_samples=150, seed=0)
        # the transform removes the Dini singularity: finite constant, and
        # small enough that kappa = 4 leaves room below tau0 = 0.5
        assert 0.0 < c0 < 3.5

    @staticmethod
    def _dini_plus_path_term(cfg):
        """dini_sqrt's b0 with linear's path and law term b1: the paper's combined drift."""
        linear = get_coefficients("linear", cfg)
        return dataclasses.replace(get_coefficients("dini_sqrt", cfg), name="dini_plus_linear",
                                   b1=linear.b1, K=linear.K, K1=linear.K1, alpha=linear.alpha)

    def test_b1_hat_is_gradient_theta_times_b1_of_inverse(self):
        coeffs = self._dini_plus_path_term(CFG)
        zmap = select_lambda(coeffs, GRID, default_lambda_grid(coeffs))
        hat = transformed_coeffs(zmap, coeffs)
        rng = np.random.default_rng(0)
        batch = SegmentBatch(CFG, rng.uniform(-2.0, 2.0, size=(5, CFG.n_points, 1)))
        hist = SegmentBatch(CFG, theta_inv(zmap, batch.ordered_values()))
        x0 = theta_inv(zmap, batch.endpoint())
        want = (1.0 + zmap.grad_u_at(x0)[..., 0]) * coeffs.eval_b1(hist, None)
        assert np.max(np.abs(hat.eval_b1(batch, None) - want)) <= 1e-14 * np.max(np.abs(want))
        # b1's shape on one segment and on a batch: (1,) and (5, 1).
        seg = PathSegment(CFG, batch.ordered_values()[0])
        for path in (seg, batch):
            assert hat.eval_b1(path, None).shape == coeffs.eval_b1(path, None).shape
        assert hat.eval_b1(seg, None).shape == (1,)

    def test_b1_hat_inverts_each_point_once_per_step(self, monkeypatch):
        # Per step: one inverse of the 2R endpoints (drift, diffusion, gamma)
        # and one of the 2R histories, whose endpoints serve x0.
        cfg = PathSpaceConfig(d=1, tau=1.0, h=0.05, T_mem=1.0)
        coeffs = self._dini_plus_path_term(cfg)
        zmap = select_lambda(coeffs, GRID, default_lambda_grid(coeffs))
        hat = transformed_coeffs(zmap, coeffs)
        points = count_cell_lookups(monkeypatch)
        xi, eta = PathSegment.constant(cfg, [0.5]), PathSegment.constant(cfg, [-0.5])
        R, n_steps = 64, 40
        simulate_coupled_Q(hat, xi, eta, kappa=4.0, T=2.0, seed=0, n_replicas=R)
        assert sum(points) == 2 * R * n_steps + 2 * R * cfg.n_points * n_steps == 112_640


DINI_FAST = """
path.tau = 1.0
path.T_mem = 1.0
coefficients.name = dini_sqrt
sim.h = 0.05
sim.T = 2.0
sim.N_replicas = 64
sim.kappa = 4.0
sim.tau0 = 0.5
"""


class TestPerConfigMap:
    def test_one_lambda_sweep_per_config(self, monkeypatch):
        calls = []
        original = zvonkin.select_lambda

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(zvonkin, "select_lambda", counting)
        run_gradient_estimate(parse_config(DINI_FAST))
        assert len(calls) == 1

    def test_map_is_immutable(self):
        # On both Dini builtins the node tables are read-only (n_axis,) arrays,
        # and the transformed set keeps the shapes the simulators read:
        # b0 (..., 1) and sigma (..., 1, 1) for any leading shape.
        for name in ("dini_sqrt", "dini_log"):
            hat, zmap = parse_config(
                DINI_FAST.replace("dini_sqrt", name)).effective_coefficients()
            with pytest.raises(dataclasses.FrozenInstanceError):
                zmap.lam = 1.0
            for table in (zmap.u, zmap.grad_u):
                assert table.shape == (zmap.grid.n_axis,)
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 0.0
            for lead in [(), (5,), (4, 7)]:
                y = np.linspace(-1.0, 1.0, math.prod(lead)).reshape(lead + (1,))
                assert hat.eval_b0(y).shape == lead + (1,)
                assert hat.eval_sigma(y).shape == lead + (1, 1)

    def test_one_pair_per_config(self):
        config = parse_config(DINI_FAST)
        coeffs, zmap = config.effective_coefficients()
        again = config.effective_coefficients()
        assert again[0] is coeffs and again[1] is zmap

    def test_escape_fraction_is_share_of_saved_endpoints(self):
        # Pairs start 15 units out, beyond the L = 14 box; decay's record is
        # the share of its saved endpoints whose preimage lies outside the
        # box, that is, outside [Theta(-L), Theta(L)].
        config = parse_config(DINI_FAST + "experiment.separation = 30.0\n")
        coeffs, zmap = config.effective_coefficients()
        xi = PathSegment.constant(config.pathcfg, [15.0])
        run = simulate_coupled_Q(coeffs, xi, -1.0 * xi, config.kappa, config.T,
                                 seed=config.seed, stream=1, n_replicas=config.N_replicas,
                                 save_times=experiments._save_grid(config, 32))
        ends = np.concatenate([run.x_end, run.y_end], axis=1)[..., 0]
        L = zmap.grid.L
        lo, hi = theta(zmap, [[-L], [L]])[:, 0]
        assert lo > -L and hi > L  # u(+-L) > 0: the two readings differ
        share = np.count_nonzero((ends < lo) | (ends > hi)) / ends.size
        assert 0 < share < 1
        assert run_decay(config).records["box_escape_fraction"] == share

    def test_escape_fraction_per_experiment(self):
        # Pairs start 15 units out, beyond the L = 14 box, so mass escapes.
        text = DINI_FAST + "experiment.separation = 30.0\n"
        alone = run_decay(parse_config(text)).records["box_escape_fraction"]
        config = parse_config(text)
        run_entropy(config)
        after_entropy = run_decay(config).records["box_escape_fraction"]
        assert alone > 0
        assert after_entropy == alone

    def test_one_inverse_per_step(self, monkeypatch):
        # Drift, diffusion and gamma share one cell search of the stacked
        # endpoints per step, 2R rows for each of the shared coupled run's seven
        # pairs; saving needs none.  After the run, the escape record inverts
        # decay's 33 saved endpoint pairs once.
        config = parse_config(DINI_FAST + "experiment.separation = 30.0\n")
        config.effective_coefficients()  # the lambda sweep, outside the count
        points = count_cell_lookups(monkeypatch)
        run_decay(config)
        R, n_pairs, n_steps = 64, 7, 40
        assert points == [2 * n_pairs * R] * n_steps + [33 * 2 * R]
        assert sum(points[:n_steps]) == 2 * n_pairs * R * n_steps == 35840
