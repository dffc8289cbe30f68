import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from pathcouple.errors import ConfigurationError, InvalidCloudError
from pathcouple.pathspace import ParticleCloud, PathSegment, PathSpaceConfig, weighted_norm
from pathcouple.wasserstein import (
    cloud_moment,
    ot_plan,
    pairwise_truncated_norm,
    wk_full,
    wk_truncated,
)

CFG = PathSpaceConfig(d=1, tau=1.0, h=0.1, T_mem=1.0)


def random_cloud(rng, n, cfg=CFG, scale=1.0):
    vals = np.cumsum(rng.standard_normal((n, cfg.n_points, cfg.d)), axis=1)
    return ParticleCloud(cfg, scale * vals / math.sqrt(cfg.n_points))


def brute_force_wk(a, b, k, N):
    """Permutation minimum for uniform clouds of equal size (oracle)."""
    cost = pairwise_truncated_norm(a, b, N) ** max(k, 1.0)
    n = len(a)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, p] for i, p in enumerate(perm)) / n)
    return best ** (1.0 / max(k, 1.0))


def marginal_error(plan):
    """Largest deviation of the plan's row and column sums from 1/n and 1/m."""
    n, m = plan.plan.shape
    return max(np.abs(plan.plan.sum(axis=1) - 1 / n).max(),
               np.abs(plan.plan.sum(axis=0) - 1 / m).max())


class TestOracle:
    def test_permutation_minimum(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            a, b = random_cloud(rng, n), random_cloud(rng, n)
            k = float(rng.choice([1.0, 2.0, 3.0]))
            got = wk_truncated(a, b, k, CFG.T_mem)
            want = brute_force_wk(a, b, k, CFG.T_mem)
            assert got == pytest.approx(want, abs=1e-10), trial

    def test_full_scan_equals_top_level(self):
        # cost monotone in the truncation level => sup over levels at T_mem
        rng = np.random.default_rng(1)
        levels = CFG.h * np.arange(1, CFG.n_steps + 1)
        for _ in range(10):
            a, b = random_cloud(rng, 6), random_cloud(rng, 6)
            assert wk_full(a, b, k=2) == pytest.approx(
                max(wk_truncated(a, b, 2, N) for N in levels), abs=1e-10
            )


class TestMetricAxioms:
    def test_identity(self):
        rng = np.random.default_rng(2)
        a = random_cloud(rng, 5)
        assert wk_full(a, a, k=2) == pytest.approx(0.0, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = random_cloud(rng, 5), random_cloud(rng, 5)
        assert wk_full(a, b, k=2) == pytest.approx(wk_full(b, a, k=2), abs=1e-10)

    def test_triangle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b, c = (random_cloud(rng, 4) for _ in range(3))
            ab, bc, ac = (wk_full(x, y, k=2) for x, y in ((a, b), (b, c), (a, c)))
            assert ac <= ab + bc + 1e-9

    def test_holder_ordering(self):
        # W_k nondecreasing in k on uniform clouds (power-mean inequality)
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = random_cloud(rng, 5), random_cloud(rng, 5)
            vals = [wk_full(a, b, k=k) for k in (1.0, 2.0, 3.0)]
            assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9


class TestPlans:
    def test_plan_marginals(self):
        rng = np.random.default_rng(6)
        a, b = random_cloud(rng, 6), random_cloud(rng, 9)
        plan = ot_plan(a, b, k=2, N=CFG.T_mem)
        assert marginal_error(plan) < 1e-8

    def test_k_below_one_rejected(self):
        rng = np.random.default_rng(7)
        a, b = random_cloud(rng, 3), random_cloud(rng, 3)
        with pytest.raises(ConfigurationError):
            ot_plan(a, b, k=0.5, N=CFG.T_mem)

    def test_point_mass_distance(self):
        # distance between point masses is the truncated seminorm itself
        rng = np.random.default_rng(8)
        x = PathSegment(CFG, rng.standard_normal((CFG.n_points, 1)))
        y = PathSegment(CFG, rng.standard_normal((CFG.n_points, 1)))
        a = ParticleCloud.point_mass(x, 3)
        b = ParticleCloud.point_mass(y, 3)
        assert wk_full(a, b, k=2) == pytest.approx(weighted_norm(x - y), abs=1e-10)

    def test_config_mismatch(self):
        rng = np.random.default_rng(9)
        other = PathSpaceConfig(d=1, tau=1.0, h=0.1, T_mem=2.0)
        a = random_cloud(rng, 3)
        b = random_cloud(rng, 3, cfg=other)
        with pytest.raises(InvalidCloudError):
            wk_full(a, b, k=2)


class TestExactAtScale:
    """Problems above N*M = 4096 are solved exactly too."""

    def test_identity_80_particles(self):
        a = random_cloud(np.random.default_rng(13), 80)
        assert ot_plan(a, a, k=2, N=CFG.T_mem).solver == "assignment"
        assert wk_full(a, a, k=2) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_distance_80_particles(self):
        rng = np.random.default_rng(14)
        x = PathSegment(CFG, rng.standard_normal((CFG.n_points, 1)))
        y = PathSegment(CFG, rng.standard_normal((CFG.n_points, 1)))
        a = ParticleCloud.point_mass(x, 80)
        b = ParticleCloud.point_mass(y, 80)
        assert wk_full(a, b, k=2) == pytest.approx(weighted_norm(x - y), abs=1e-12)

    def test_unequal_sizes_match_blown_up_assignment(self):
        # 60 vs 90 uniform particles: the LP must equal the assignment between
        # the clouds blown up to 180 particles (each a_i 3 times, each b_j twice).
        rng = np.random.default_rng(15)
        a, b = random_cloud(rng, 60), random_cloud(rng, 90)
        plan = ot_plan(a, b, k=2, N=CFG.T_mem)
        assert plan.solver == "linprog"
        cost = np.repeat(np.repeat(plan.cost_matrix, 3, axis=0), 2, axis=1)
        rows, cols = linear_sum_assignment(cost)
        want = math.sqrt(cost[rows, cols].sum() / 180)
        assert wk_truncated(a, b, 2, CFG.T_mem) == pytest.approx(want, abs=1e-10)


class TestCostMatrix:
    """`pairwise_truncated_norm` against one-shot broadcasts, bit for bit.

    At d = 1 the kernel is the Chebyshev distance between the weighted rows
    w*a and w*b, so its reference weights before subtracting.
    """

    @pytest.mark.parametrize("n", [16, 128])
    def test_d1_equals_abs_broadcast(self, n):
        cfg = PathSpaceConfig(d=1, tau=1.0, h=0.02, T_mem=2.0)
        rng = np.random.default_rng(17)
        a, b = random_cloud(rng, n, cfg), random_cloud(rng, n, cfg)
        wa, wb = cfg.weights * a.values[..., 0], cfg.weights * b.values[..., 0]
        want = np.abs(wa[:, None] - wb[None]).max(axis=-1)
        assert np.array_equal(pairwise_truncated_norm(a, b, cfg.T_mem), want)

    def test_d1_within_round_off_of_weight_last_form(self):
        cfg = PathSpaceConfig(d=1, tau=1.0, h=0.02, T_mem=2.0)
        rng = np.random.default_rng(19)
        a, b = random_cloud(rng, 40, cfg, scale=3.0), random_cloud(rng, 30, cfg, scale=3.0)
        old = (np.abs(a.values[:, None, :, 0] - b.values[None, :, :, 0])
               * cfg.weights).max(axis=-1)
        wa, wb = cfg.weights * a.values[..., 0], cfg.weights * b.values[..., 0]
        scale = np.maximum(np.abs(wa).max(axis=1)[:, None], np.abs(wb).max(axis=1)[None])
        got = pairwise_truncated_norm(a, b, cfg.T_mem)
        assert np.all(np.abs(got - old) <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("d", [1, 2])
    def test_diagonal_against_itself_is_zero(self, d):
        cfg = PathSpaceConfig(d=d, tau=1.0, h=0.05, T_mem=1.0)
        a = random_cloud(np.random.default_rng(20), 32, cfg)
        cost = pairwise_truncated_norm(a, a, cfg.T_mem)
        assert np.all(np.diag(cost) == 0.0)
        assert np.all(cost[~np.eye(32, dtype=bool)] > 0)

    def test_d1_allocates_no_pair_by_grid_temporary(self):
        cfg = PathSpaceConfig(d=1, tau=1.0, h=0.02, T_mem=2.0)
        rng = np.random.default_rng(21)
        a, b = random_cloud(rng, 128, cfg), random_cloud(rng, 128, cfg)
        tracemalloc.start()
        try:
            pairwise_truncated_norm(a, b, cfg.T_mem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The 128 x 128 result is 128 kB; a (128, 128, 101) temporary is 13 MB.
        assert peak < 1_000_000

    @staticmethod
    def _norm_broadcast(a, b, cfg):
        diff = a.values[:, None] - b.values[None, :]
        return (np.linalg.norm(diff, axis=-1) * cfg.weights).max(axis=-1)

    def test_d2_equals_norm_broadcast(self):
        cfg = PathSpaceConfig(d=2, tau=1.0, h=0.1, T_mem=1.0)
        rng = np.random.default_rng(18)
        a, b = random_cloud(rng, 12, cfg), random_cloud(rng, 9, cfg)
        assert np.array_equal(pairwise_truncated_norm(a, b, cfg.T_mem),
                              self._norm_broadcast(a, b, cfg))

    def test_d2_grid_chunks_equal_norm_broadcast(self):
        # 160 x 140 pairs at d = 2 take 23 grid points a chunk, so 41 take two.
        cfg = PathSpaceConfig(d=2, tau=1.0, h=0.025, T_mem=1.0)
        rng = np.random.default_rng(22)
        a, b = random_cloud(rng, 160, cfg), random_cloud(rng, 140, cfg)
        assert np.array_equal(pairwise_truncated_norm(a, b, cfg.T_mem),
                              self._norm_broadcast(a, b, cfg))


def test_cloud_moment():
    rng = np.random.default_rng(12)
    a = random_cloud(rng, 16)
    norms = a.norms()
    assert cloud_moment(a, 2) == pytest.approx(math.sqrt((norms**2).mean()))
