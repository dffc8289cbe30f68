import dataclasses
import math

import numpy as np
import pytest

from pathcouple.coefficients import (
    CoefficientSet,
    DiniModulus,
    get_coefficients,
)
from pathcouple.errors import (
    BlowUpError,
    ConfigurationError,
    DegenerateWeightWarning,
    InvalidCoefficientError,
    SingularDiffusionError,
)
from pathcouple import simulate
from pathcouple.experiments import parse_config
from pathcouple.pathspace import (
    ParticleCloud,
    PathSegment,
    PathSpaceConfig,
    SegmentBatch,
)
from pathcouple.simulate import (
    BLOWUP_LIMIT,
    girsanov_weight_P,
    philox_rng,
    simulate_coupled_Q,
    simulate_mckean,
    simulate_paths,
)

CFG = PathSpaceConfig(d=1, tau=1.0, h=0.01, T_mem=1.0)
ZERO = get_coefficients("zero", CFG)
ZERO_SEG = PathSegment.zero(CFG)
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


def ou_coeffs(cfg=CFG):
    return CoefficientSet(
        name="ou",
        pathcfg=cfg,
        K=2.0,
        K1=0.0,
        alpha=0.0,
        phi=DiniModulus("power"),
        b0=lambda x: -x,
        b0_bound=math.inf,
    )


class TestPathSimulation:
    def test_ou_moments(self):
        R, T = 4000, 2.0
        batch = SegmentBatch.from_segment(PathSegment.constant(CFG, [1.0]), R)
        res = simulate_paths(ou_coeffs(), batch, T, seed=1)
        ends = res.endpoints[-1][:, 0]
        mean_t, var_t = math.exp(-T), (1 - math.exp(-2 * T)) / 2
        assert abs(ends.mean() - mean_t) <= 3 * ends.std(ddof=1) / math.sqrt(R) + 2 * CFG.h
        var_se = ends.var(ddof=1) * math.sqrt(2 / (R - 1))
        assert abs(ends.var(ddof=1) - var_t) <= 3 * var_se + 5 * CFG.h

    def test_brownian_covariance(self):
        R = 3000
        init = ParticleCloud.point_mass(PathSegment.zero(CFG), R)
        res = simulate_mckean(ZERO, init, 1.0, seed=2)
        ends = res.endpoints[-1][:, 0]
        se = ends.var(ddof=1) * math.sqrt(2 / (R - 1))
        assert abs(ends.var(ddof=1) - 1.0) <= 3 * se

    def test_sigma_given_is_simulated(self):
        # A set given sigma uses it: sigma = 2I doubles every increment of the
        # zero-drift run exactly (scaling by 2 commutes with rounding).
        import dataclasses

        doubled = dataclasses.replace(
            ZERO, sigma=lambda x: 2.0 * np.broadcast_to(np.eye(CFG.d), x.shape + (CFG.d,)))
        base, scaled = (simulate_paths(coeffs, SegmentBatch.from_segment(PathSegment.zero(CFG), 16),
                                       1.0, seed=6) for coeffs in (ZERO, doubled))
        np.testing.assert_array_equal(scaled.endpoints, 2.0 * base.endpoints)

    def test_determinism(self):
        batch1 = SegmentBatch.from_segment(PathSegment.constant(CFG, [0.3]), 8)
        batch2 = SegmentBatch.from_segment(PathSegment.constant(CFG, [0.3]), 8)
        a = simulate_paths(ou_coeffs(), batch1, 0.5, seed=7, stream=3)
        b = simulate_paths(ou_coeffs(), batch2, 0.5, seed=7, stream=3)
        np.testing.assert_array_equal(a.endpoints, b.endpoints)
        c = simulate_paths(ou_coeffs(),
                           SegmentBatch.from_segment(PathSegment.constant(CFG, [0.3]), 8),
                           0.5, seed=7, stream=4)
        assert not np.array_equal(a.endpoints[-1], c.endpoints[-1])

    def test_mckean_n1_equals_plain_when_no_law_dependence(self):
        coeffs = get_coefficients("sublinear", CFG)  # K1 = 0
        assert coeffs.K1 == 0.0
        seg = PathSegment.constant(CFG, [0.4])
        res_m = simulate_mckean(coeffs, ParticleCloud.point_mass(seg, 1), 1.0, seed=3)
        res_p = simulate_paths(coeffs, SegmentBatch.from_segment(seg, 1), 1.0, seed=3)
        np.testing.assert_array_equal(res_m.endpoints, res_p.endpoints)

    def test_mckean_linear_mean_oracle(self):
        # For the linear builtin E[X] solves a deterministic delay recursion:
        # the same Euler scheme applied to the noiseless system.
        coeffs = get_coefficients("linear", CFG)
        seg = PathSegment.constant(CFG, [1.0])
        T, R = 1.0, 2000
        # noiseless: rerun with sigma = 0
        import dataclasses

        noiseless = dataclasses.replace(
            coeffs, sigma=lambda x: np.zeros(x.shape + (1,))
        )
        det = simulate_mckean(noiseless, ParticleCloud.point_mass(seg, 2), T, seed=0)
        mean_oracle = det.endpoints[-1][0, 0]
        res = simulate_mckean(coeffs, ParticleCloud.point_mass(seg, R), T, seed=4)
        ends = res.endpoints[-1][:, 0]
        se = ends.std(ddof=1) / math.sqrt(R)
        assert abs(ends.mean() - mean_oracle) <= 3 * se + 2 * CFG.h

    def test_step_halving(self):
        coeffs = get_coefficients("linear", CFG)
        fine_cfg = PathSpaceConfig(d=1, tau=1.0, h=0.005, T_mem=1.0)
        fine = get_coefficients("linear", fine_cfg)
        R = 2000
        res_c = simulate_mckean(
            coeffs, ParticleCloud.point_mass(PathSegment.constant(CFG, [1.0]), R),
            1.0, seed=5)
        res_f = simulate_mckean(
            fine, ParticleCloud.point_mass(PathSegment.constant(fine_cfg, [1.0]), R),
            1.0, seed=5)
        mc, mf = res_c.endpoints[-1][:, 0], res_f.endpoints[-1][:, 0]
        se = math.hypot(mc.std(ddof=1), mf.std(ddof=1)) / math.sqrt(R)
        assert abs(mc.mean() - mf.mean()) <= 3 * se + 2 * CFG.h

    def test_blow_up_carries_indices(self):
        bad = CoefficientSet(
            name="explode", pathcfg=CFG, K=2.0, K1=0.0, alpha=0.0,
            phi=DiniModulus("power"),
            b0=lambda x: x * 1e6, b0_bound=math.inf,
        )
        batch = SegmentBatch.from_segment(PathSegment.constant(CFG, [1.0]), 4)
        with pytest.raises(BlowUpError) as err:
            simulate_paths(bad, batch, 1.0, seed=6)
        assert err.value.step is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2 * BLOWUP_LIMIT],
                             ids=["nan", "+inf", "-inf", "twice_limit"])
    def test_blow_up_reports_row_past_the_first(self, bad):
        # Particle 2 starts at a non-finite or too-large endpoint, so the first
        # Euler step leaves it there while the other rows stay bounded.
        values = np.zeros((4, CFG.n_points, 1))
        values[2, -1] = bad
        with pytest.raises(BlowUpError) as err:
            simulate_paths(ZERO, SegmentBatch(CFG, values), 1.0, seed=6, save_times=[1.0])
        assert (err.value.step, err.value.particle) == (1, 2)

    def test_mismatched_config(self):
        other = PathSpaceConfig(d=1, tau=0.5, h=0.01, T_mem=1.0)
        batch = SegmentBatch.from_segment(PathSegment.zero(other), 2)
        with pytest.raises(ConfigurationError):
            simulate_paths(ou_coeffs(), batch, 1.0)

    def test_save_times_off_grid_rejected(self):
        batch = SegmentBatch.from_segment(PathSegment.zero(CFG), 2)
        with pytest.raises(ConfigurationError):
            simulate_paths(ZERO, batch, 1.0, save_times=[0.5, 0.7071])

    def test_empty_save_times_rejected(self):
        with pytest.raises(ConfigurationError, match="save_times"):
            simulate_paths(ZERO, SegmentBatch.from_segment(ZERO_SEG, 2), 1.0, save_times=[])
        with pytest.raises(ConfigurationError, match="save_times"):
            simulate_coupled_Q(ZERO, ZERO_SEG, ZERO_SEG, 4.0, 1.0, save_times=[])

    def test_cloud_at_off_save_time_rejected(self):
        batch = SegmentBatch.from_segment(PathSegment.zero(CFG), 2)
        res = simulate_paths(ZERO, batch, 1.0, save_times=[0.5, 1.0])
        with pytest.raises(ConfigurationError, match="not a save time"):
            res.cloud_at(0.75)

    def test_save_hook_runs_at_exactly_the_save_steps(self, monkeypatch):
        from pathcouple import simulate

        steps = []
        original = simulate._euler_step

        def counting(*args, **kwargs):
            steps.append(args[6])
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "_euler_step", counting)
        batch = SegmentBatch.from_segment(PathSegment.zero(CFG), 2)
        res = simulate_paths(ZERO, batch, 1.0, save_times=[0.0, 0.25, 1.0],
                             save=lambda b: len(steps))
        assert res.clouds == [0, 25, 100]
        assert steps == list(range(1, 101))

    def test_endpoints_need_the_default_save(self):
        batch = SegmentBatch.from_segment(PathSegment.zero(CFG), 2)
        res = simulate_paths(ZERO, batch, 0.5, save=lambda b: b.endpoint().copy())
        with pytest.raises(ConfigurationError, match="default save"):
            res.endpoints

    def test_default_save_keeps_a_snapshot_cloud_per_save(self):
        rng = np.random.default_rng(9)
        cloud = ParticleCloud(CFG, rng.standard_normal((4, CFG.n_points, 1)))
        times = [0.0, 0.25, 1.0]
        res = simulate_paths(ou_coeffs(), SegmentBatch.from_cloud(cloud), 1.0, seed=2,
                             save_times=times)
        windows = simulate_paths(ou_coeffs(), SegmentBatch.from_cloud(cloud), 1.0, seed=2,
                                 save_times=times, save=SegmentBatch.ordered_values).clouds
        assert len(res.clouds) == len(windows) == 3
        for saved, window in zip(res.clouds, windows):
            assert isinstance(saved, ParticleCloud)
            np.testing.assert_array_equal(saved.values, window)
        # Snapshots, not views of the running batch: the t = 0 cloud is the start.
        np.testing.assert_array_equal(res.clouds[0].values, cloud.values)
        assert not np.array_equal(res.clouds[1].values, res.clouds[2].values)

    def test_mckean_leaves_its_start_cloud_untouched(self):
        rng = np.random.default_rng(4)
        cloud = ParticleCloud(CFG, rng.standard_normal((8, CFG.n_points, 1)))
        start = cloud.values.copy()
        res = simulate_mckean(get_coefficients("linear", CFG), cloud, 0.5, seed=1)
        np.testing.assert_array_equal(cloud.values, start)
        np.testing.assert_array_equal(res.clouds[0].values, start)


class TestCoupling:
    XI = PathSegment.constant(CFG, [0.5])
    ETA = PathSegment.constant(CFG, [-0.5])

    def test_identical_start_stays_zero(self):
        run = simulate_coupled_Q(ZERO, self.XI, self.XI, 4.0, 1.0, seed=0, n_replicas=8)
        assert np.max(run.z_norms) == 0.0
        assert np.max(run.half_int_gamma_sq) == 0.0

    def test_closed_form_decay(self):
        # bhat = 0, sigma = I: Z follows the deterministic Euler recursion
        kappa, T = 4.0, 1.0
        run = simulate_coupled_Q(ZERO, self.XI, self.ETA, kappa, T, seed=1, n_replicas=4)
        n = int(T / CFG.h)
        z_exact = 1.0 * (1 - kappa * CFG.h) ** n
        z_got = run.x_end[-1][0, 0] - run.y_end[-1][0, 0]
        assert z_got == pytest.approx(z_exact, rel=1e-12)
        h_exact = (kappa / 4) * (1 - math.exp(-2 * kappa * T)) * 1.0**2
        assert run.half_int_gamma_sq[-1][0] == pytest.approx(h_exact, rel=5 * kappa * CFG.h)

    def test_accumulators_nondecreasing(self):
        coeffs = get_coefficients("sublinear", CFG)
        run = simulate_coupled_Q(coeffs, self.XI, self.ETA, 4.0, 1.0, seed=2, n_replicas=8)
        assert np.all(np.diff(run.half_int_gamma_sq, axis=0) >= -1e-15)

    def test_rate_increases_with_kappa(self):
        rates = []
        for kappa in (1.5, 6.0):
            run = simulate_coupled_Q(ZERO, self.XI, self.ETA, kappa, 2.0,
                                     seed=3, n_replicas=4)
            z = np.abs(run.x_end[:, 0, 0] - run.y_end[:, 0, 0])
            rates.append(np.polyfit(run.times, np.log(z), 1)[0])
        assert rates[1] < rates[0]

    def test_kappa_below_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_coupled_Q(ZERO, self.XI, self.ETA, 0.5, 1.0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_kappa_rejected(self, kappa):
        # NaN and +inf pass a plain kappa <= tau test, then blow up at step 1 (exit 2).
        with pytest.raises(ConfigurationError, match="finite") as err:
            simulate_coupled_Q(ZERO, self.XI, self.ETA, kappa, 1.0, n_replicas=4)
        assert err.value.exit_code == 1
        # kappa = 0 stays allowed: X - Y keeps its start value under the shared noise.
        run = simulate_coupled_Q(ZERO, self.XI, self.ETA, 0.0, 1.0, n_replicas=4)
        np.testing.assert_allclose(run.x_end[-1] - run.y_end[-1], 1.0, rtol=1e-12)

    def test_one_d_sigma_keeps_the_matrix_bits(self):
        from pathcouple import simulate

        rng = np.random.default_rng(8)
        sig = rng.uniform(0.2, 3.0, (1024, 1, 1)) * rng.choice([-1.0, 1.0], (1024, 1, 1))
        v = rng.standard_normal((1024, 1)) * 10.0 ** rng.uniform(-5, 5, (1024, 1))
        assert np.array_equal(simulate._solve_sigma(sig, v),
                              np.linalg.solve(sig, v[..., None])[..., 0])
        assert np.array_equal(simulate._apply_sigma(sig, v),
                              np.einsum("...ij,...j->...i", sig, v))
        sig[5] = 0.0  # one exactly singular row among regular ones
        with pytest.raises(SingularDiffusionError):
            simulate._solve_sigma(sig, v)

    def test_singular_diffusion_rejected(self):
        flat = dataclasses.replace(ZERO, sigma=lambda x: np.zeros(x.shape + (1,)))
        with pytest.raises(SingularDiffusionError):
            simulate_coupled_Q(flat, self.XI, self.ETA, 4.0, 1.0, n_replicas=4)

    def test_same_noise_contract(self):
        # with kappa = 0 and identical dynamics, X - Y stays constant in law:
        # both consume the same increments, so Z is deterministic
        run = simulate_coupled_Q(ZERO, self.XI, self.ETA, 0.0, 1.0, seed=4,
                                 n_replicas=16, measure="P")
        z = run.x_end - run.y_end
        assert np.ptp(z[-1]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: get_coefficients("linear", CFG),
        lambda: parse_config(DINI_FAST).effective_coefficients()[0],
    ], ids=["linear", "dini_sqrt_hat"])
    def test_kappa_zero_rows_match_simulate_paths(self, make):
        # Uncoupled, each half of the stacked pair is the plain path simulator
        # driven by the same increments.
        coeffs = make()
        cfg = coeffs.pathcfg
        xi, eta = PathSegment.constant(cfg, [0.5]), PathSegment.constant(cfg, [-0.5])
        R, T = 8, 1.0
        run = simulate_coupled_Q(coeffs, xi, eta, 0.0, T, seed=3, stream=2, n_replicas=R)
        for seg, ends in ((xi, run.x_end), (eta, run.y_end)):
            res = simulate_paths(coeffs, SegmentBatch.from_segment(seg, R), T,
                                 seed=3, stream=2)
            np.testing.assert_array_equal(run.times, res.times)
            np.testing.assert_array_equal(ends, res.endpoints)


def _explode_beyond_two(cfg=CFG):
    """Zero drift inside |x| <= 2 and 1e4 x^3 outside: a row started at 5
    leaves the blow-up limit at step 2 while rows started at 0 stay small."""
    return CoefficientSet(
        name="explode_beyond_two", pathcfg=cfg, K=2.0, K1=0.0, alpha=0.0,
        phi=DiniModulus("power"),
        b0=lambda x: np.where(np.abs(x) > 2.0, 1e4 * x**3, 0.0), b0_bound=math.inf,
    )


STACK_MAKERS = [
    lambda: get_coefficients("linear", CFG),
    lambda: ZERO,
    lambda: parse_config(DINI_FAST).effective_coefficients()[0],
]
STACK_IDS = ["linear", "zero", "dini_sqrt_hat"]


class TestStackedBlocks:
    STARTS = (0.5, -0.25, 1.0)
    STREAMS = (5, 7, 9)

    @pytest.mark.parametrize("make", STACK_MAKERS, ids=STACK_IDS)
    def test_paths_blocks_match_separate_runs(self, make):
        coeffs = make()
        cfg = coeffs.pathcfg
        segs = [PathSegment.constant(cfg, [a]) for a in self.STARTS]
        R, T = 8, 1.0
        stacked = simulate_paths(coeffs, SegmentBatch.from_segments(segs, R), T,
                                 seed=3, stream=self.STREAMS)
        for b, (seg, stream) in enumerate(zip(segs, self.STREAMS)):
            alone = simulate_paths(coeffs, SegmentBatch.from_segment(seg, R), T,
                                   seed=3, stream=stream)
            rows = slice(b * R, (b + 1) * R)
            np.testing.assert_array_equal(stacked.times, alone.times)
            np.testing.assert_array_equal(stacked.endpoints[:, rows], alone.endpoints)
            for cloud, ref in zip(stacked.clouds, alone.clouds):
                np.testing.assert_array_equal(cloud.values[rows], ref.values)

    @pytest.mark.parametrize("measure", ["Q", "P"])
    @pytest.mark.parametrize("make", STACK_MAKERS, ids=STACK_IDS)
    def test_coupled_pairs_match_separate_runs(self, make, measure):
        coeffs = make()
        cfg = coeffs.pathcfg
        xis = [PathSegment.constant(cfg, [a]) for a in self.STARTS]
        etas = [PathSegment.constant(cfg, [a - 0.5]) for a in self.STARTS]
        R, T = 8, 1.0
        stacked = simulate_coupled_Q(coeffs, xis, etas, 4.0, T, seed=3, stream=self.STREAMS,
                                     n_replicas=3 * R, measure=measure)
        assert stacked.n_replicas == 3 * R
        for p, (xi, eta, stream) in enumerate(zip(xis, etas, self.STREAMS)):
            alone = simulate_coupled_Q(coeffs, xi, eta, 4.0, T, seed=3, stream=stream,
                                       n_replicas=R, measure=measure)
            rows = slice(p * R, (p + 1) * R)
            np.testing.assert_array_equal(stacked.times, alone.times)
            for name in ("x_end", "y_end", "z_norms", "half_int_gamma_sq", "log_R"):
                np.testing.assert_array_equal(getattr(stacked, name)[:, rows],
                                              getattr(alone, name), err_msg=name)

    @staticmethod
    def _mckean_starts(cfg, shift=0.0):
        """Three 8-particle clouds with distinct means; block 1 moved by shift."""
        rng = np.random.default_rng(30)
        return [ParticleCloud(cfg, mean + (shift if b == 1 else 0.0)
                              + 0.3 * rng.standard_normal((8, cfg.n_points, cfg.d)))
                for b, mean in enumerate((0.5, -1.0, 2.0))]

    @staticmethod
    def _stack(clouds):
        return ParticleCloud(clouds[0].config, np.concatenate([c.values for c in clouds]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_mckean_blocks_match_separate_runs(self, d):
        cfg = PathSpaceConfig(d=d, tau=1.0, h=0.02, T_mem=1.0)
        coeffs = get_coefficients("linear", cfg)
        assert coeffs.K1 > 0  # the drift reads each block's law
        clouds = self._mckean_starts(cfg)
        stacked = simulate_mckean(coeffs, self._stack(clouds), 1.0, seed=3, stream=self.STREAMS)
        for b, (cloud, stream) in enumerate(zip(clouds, self.STREAMS)):
            alone = simulate_mckean(coeffs, cloud, 1.0, seed=3, stream=stream)
            rows = slice(8 * b, 8 * (b + 1))
            np.testing.assert_array_equal(stacked.endpoints[:, rows], alone.endpoints)
            for cloud_t, ref in zip(stacked.clouds, alone.clouds):
                np.testing.assert_array_equal(cloud_t.values[rows], ref.values)

    def test_mckean_block_sees_only_its_own_law(self):
        coeffs = get_coefficients("linear", CFG)
        base, moved = (simulate_mckean(coeffs, self._stack(self._mckean_starts(CFG, shift)), 1.0,
                                       seed=3, stream=self.STREAMS).endpoints
                       for shift in (0.0, 1.5))
        for rows in (slice(0, 8), slice(16, 24)):
            np.testing.assert_array_equal(base[:, rows], moved[:, rows])
        assert np.all(base[-1, 8:16] != moved[-1, 8:16])

    def test_repeated_stream_gives_identical_blocks(self):
        coeffs = get_coefficients("linear", CFG)
        seg = PathSegment.constant(CFG, [0.5])
        R = 8
        res = simulate_paths(coeffs, SegmentBatch.from_segments([seg, seg], R), 1.0,
                             seed=4, stream=(6, 6))
        np.testing.assert_array_equal(res.endpoints[:, :R], res.endpoints[:, R:])
        assert np.ptp(res.endpoints[-1, :R]) > 0  # rows within a block still differ
        run = simulate_coupled_Q(coeffs, [seg, seg], [ZERO_SEG, ZERO_SEG], 4.0, 1.0,
                                 seed=4, stream=(6, 6), n_replicas=2 * R)
        np.testing.assert_array_equal(run.x_end[:, :R], run.x_end[:, R:])
        np.testing.assert_array_equal(run.y_end[:, :R], run.y_end[:, R:])

    def test_uneven_rows_rejected(self):
        batch = SegmentBatch.from_segment(PathSegment.zero(CFG), 5)
        with pytest.raises(ConfigurationError, match="split evenly"):
            simulate_paths(ZERO, batch, 1.0, stream=(1, 2))
        with pytest.raises(ConfigurationError, match="split evenly"):
            simulate_coupled_Q(ZERO, [ZERO_SEG] * 2, [ZERO_SEG] * 2, 4.0, 1.0,
                               stream=(1, 2), n_replicas=5)

    def test_mckean_uneven_rows_rejected(self):
        coeffs = get_coefficients("linear", CFG)
        cloud = ParticleCloud.point_mass(PathSegment.zero(CFG), 5)
        with pytest.raises(ConfigurationError, match="split evenly"):
            simulate_mckean(coeffs, cloud, 1.0, stream=(1, 2))
        with pytest.raises(ConfigurationError, match="2 particles per block"):
            simulate_mckean(coeffs, ParticleCloud.point_mass(PathSegment.zero(CFG), 2), 1.0,
                            stream=(1, 2))

    def test_one_stream_per_pair(self):
        with pytest.raises(ConfigurationError, match="one stream per pair"):
            simulate_coupled_Q(ZERO, [ZERO_SEG] * 2, [ZERO_SEG] * 2, 4.0, 1.0,
                               stream=3, n_replicas=4)

    def test_blow_up_names_stacked_row(self):
        # Row 2 of block 1 starts at 5; only it leaves the limit, at step 2.
        R = 4
        values = np.zeros((3 * R, CFG.n_points, 1))
        values[R + 2, -1] = 5.0
        with pytest.raises(BlowUpError) as err:
            simulate_paths(_explode_beyond_two(), SegmentBatch(CFG, values), 1.0,
                           seed=6, stream=(1, 2, 3))
        assert (err.value.step, err.value.particle) == (2, 1 * R + 2)

    @pytest.mark.parametrize("measure", ["Q", "P"])
    def test_coupled_blow_up_counts_x_rows_first(self, measure):
        # Pair 1's Y starts at 5: its first replica is row n_replicas + 1 * R.
        R = 4
        etas = [ZERO_SEG, PathSegment.constant(CFG, [5.0]), ZERO_SEG]
        with pytest.raises(BlowUpError) as err:
            simulate_coupled_Q(_explode_beyond_two(), [ZERO_SEG] * 3, etas, 4.0, 1.0,
                               seed=6, stream=(1, 2, 3), n_replicas=3 * R, measure=measure)
        assert (err.value.step, err.value.particle) == (2, 3 * R + 1 * R)


class TestGirsanov:
    XI = PathSegment.constant(CFG, [0.25])
    ETA = PathSegment.constant(CFG, [-0.25])

    def test_kappa_zero_weight_is_one(self):
        run = simulate_coupled_Q(ZERO, self.XI, self.ETA, 0.0, 1.0, seed=0,
                                 n_replicas=16, measure="P")
        log_r, mean, _ = girsanov_weight_P(run)
        assert np.max(np.abs(log_r)) == 0.0
        assert mean == 1.0

    def test_martingale_mean(self):
        run = simulate_coupled_Q(ZERO, self.XI, self.ETA, 4.0, 1.0, seed=1,
                                 n_replicas=10_000, measure="P")
        _, mean, se = girsanov_weight_P(run)
        assert abs(mean - 1.0) <= 3 * se

    def test_entropy_identity(self):
        # E_P[R log R] = E_Q[1/2 int |gamma|^2], both estimated independently
        coeffs = get_coefficients("sublinear", CFG)
        n = 4000
        run_p = simulate_coupled_Q(coeffs, self.XI, self.ETA, 4.0, 1.0, seed=2,
                                   n_replicas=n, measure="P")
        log_r = run_p.log_R[-1]
        rlogr = np.exp(log_r) * log_r
        run_q = simulate_coupled_Q(coeffs, self.XI, self.ETA, 4.0, 1.0, seed=3,
                                   n_replicas=n, measure="Q")
        ent = run_q.half_int_gamma_sq[-1]
        se = math.hypot(rlogr.std(ddof=1), ent.std(ddof=1)) / math.sqrt(n)
        assert abs(rlogr.mean() - ent.mean()) <= 3 * se + 5 * CFG.h

    def test_degenerate_weights_warn(self):
        # kappa = 50 on a separation of 10 drives |log R| to about 1,800.
        cfg = PathSpaceConfig(d=1, tau=1.0, h=0.01, T_mem=0.5)
        xi, eta = PathSegment.constant(cfg, [5.0]), PathSegment.constant(cfg, [-5.0])
        with pytest.warns(DegenerateWeightWarning, match="8 of 8 Girsanov log-weights"):
            run = simulate_coupled_Q(get_coefficients("zero", cfg), xi, eta, 50.0, 0.5,
                                     n_replicas=8, measure="P")
        assert np.abs(run.log_R[-1]).max() > 700

    def test_weights_require_p_measure(self):
        run = simulate_coupled_Q(ZERO, self.XI, self.ETA, 4.0, 1.0, seed=4, n_replicas=4)
        with pytest.raises(ConfigurationError):
            girsanov_weight_P(run)


def test_philox_streams_independent():
    a = philox_rng(1, 0).standard_normal(8)
    b = philox_rng(1, 0).standard_normal(8)
    c = philox_rng(1, 1).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# The chunked Euler loop against the step-by-step formula


class _StepwiseBatch:
    """Reference batch: the window oldest first, shifted by a copy each step, with the
    history integrals kept by one expression.  It shares no layout with SegmentBatch."""

    def __init__(self, segs, rows):
        self.config = segs[0].config
        self.window = np.repeat(np.stack([seg.values for seg in segs]), rows, axis=0)
        self._integrals = {}

    def endpoint(self):
        return self.window[:, -1]

    def exp_weighted_integral(self, rate):
        if rate not in self._integrals:
            cfg = self.config
            w = np.exp(rate * cfg.s_grid)
            self._integrals[rate] = [cfg.h * np.einsum("j,rjd->rd", w, self.window),
                                     np.exp(-rate * cfg.h), cfg.h * np.exp(-rate * cfg.T_mem)]
        return self._integrals[rate][0].copy()

    def advance(self, new_values):
        for S, decay, tail in self._integrals.values():
            S[:] = decay * (S - tail * self.window[:, 0]) + self.config.h * new_values
        self.window = np.concatenate([self.window[:, 1:], new_values[:, None]], axis=1)


def _stepwise_normals(seed, streams, rows, d):
    """One (rows, d) draw per stream per call, stacked in stream order."""
    rngs = {s: philox_rng(seed, s) for s in streams}

    def draw():
        fresh = {s: rng.standard_normal((rows, d)) for s, rng in rngs.items()}
        return np.concatenate([fresh[s] for s in streams])

    return draw


def _stepwise_step(coeffs, batch, x, law, sig, dW, extra=0.0):
    drift = coeffs.eval_b0(x) + coeffs.eval_b1(batch, law) + extra
    new = x + drift * batch.config.h + simulate._apply_sigma(sig, dW)
    batch.advance(new)
    return new


def _stepwise_paths(coeffs, segs, rows, T, seed, streams, mckean=False):
    """Endpoints (n_steps + 1, len(segs) * rows, d) of the plain Euler loop."""
    batch = _StepwiseBatch(segs, rows)
    cfg = batch.config
    normals = _stepwise_normals(seed, streams, rows, cfg.d)
    law = simulate._BlockLaws(batch, len(streams)) if mckean else None
    ends = [batch.endpoint().copy()]
    for _ in range(int(round(T / cfg.h))):
        x = batch.endpoint()
        dW = math.sqrt(cfg.h) * normals()
        ends.append(_stepwise_step(coeffs, batch, x, law, simulate._eval_sigma(coeffs, x), dW))
    return np.array(ends)


def _stepwise_coupled(coeffs, xis, etas, kappa, T, seed, streams, R, measure):
    """Every step's (x_end, y_end, z_norms, half_int_gamma_sq, log_R) of the plain loop."""
    batch = _StepwiseBatch(xis + etas, R // len(streams))
    cfg = batch.config
    normals = _stepwise_normals(seed, streams + streams, R // len(streams), cfg.d)
    zn = ParticleCloud(cfg, batch.window[:R] - batch.window[R:]).norms()
    half_g2, log_r = np.zeros(R), np.zeros(R)
    out = [[batch.endpoint()[:R].copy(), batch.endpoint()[R:].copy(), zn.copy(),
            half_g2.copy(), log_r.copy()]]
    for _ in range(int(round(T / cfg.h))):
        xy = batch.endpoint()
        x, y = xy[:R], xy[R:]
        sig = simulate._eval_sigma(coeffs, xy)
        gamma = kappa * simulate._solve_sigma(None if sig is None else sig[:R], x - y)
        extra = np.zeros_like(xy)
        if measure == "Q":
            extra[:R] = -kappa * (x - y)
        else:
            extra[R:] = simulate._apply_sigma(None if sig is None else sig[R:], gamma)
        dW = math.sqrt(cfg.h) * normals()
        new = _stepwise_step(coeffs, batch, xy, None, sig, dW, extra)
        g2 = np.einsum("rj,rj->r", gamma, gamma)
        half_g2 += 0.5 * g2 * cfg.h
        if measure == "P":
            log_r += -np.einsum("rj,rj->r", gamma, dW[:R]) - 0.5 * g2 * cfg.h
        zn = np.maximum(zn * math.exp(-cfg.tau * cfg.h), np.linalg.norm(new[:R] - new[R:], axis=-1))
        out.append([new[:R].copy(), new[R:].copy(), zn.copy(), half_g2.copy(), log_r.copy()])
    return [np.array(col) for col in zip(*out)]


CFG2 = dataclasses.replace(CFG, d=2)
LOOP_MAKERS = [
    lambda: ZERO,
    lambda: get_coefficients("linear", CFG),
    lambda: get_coefficients("sublinear", CFG),
    lambda: parse_config(DINI_FAST).effective_coefficients()[0],
    lambda: get_coefficients("linear", CFG2),
    lambda: get_coefficients("sublinear", CFG2),
]
LOOP_IDS = ["zero", "linear", "sublinear", "dini_sqrt_hat", "linear-d2", "sublinear-d2"]


def _start(cfg, x):
    """Constant segment at x in 1-D, at (x, -x / 2) in 2-D."""
    return PathSegment.constant(cfg, [x, -0.5 * x][:cfg.d])


@pytest.fixture(params=[1000, None], ids=["small-chunks", "default-chunks"])
def chunk_bytes(request, monkeypatch):
    """Chunks of 7 steps for 2 blocks of 8 rows at d = 1 (3 steps for the 4 blocks of a
    coupled run), or the module's own size."""
    if request.param is not None:
        monkeypatch.setattr(simulate, "_CHUNK_BYTES", request.param)


class TestChunkedLoop:
    @pytest.mark.parametrize("streams, rows, d, n_steps, chunk_bytes", [
        ((3,), 5, 1, 10, 120),  # 3 steps per chunk, 10 not a multiple
        ((4, 9, 4), 3, 2, 11, 300),  # repeated stream, d = 2, 2 steps per chunk
        ((6, 6), 40, 1, 5, 256),  # one step outgrows the chunk
        ((1, 2), 20_000, 2, 3, None),  # the same at the module's own size
    ])
    def test_increments_match_stepwise_draws(self, monkeypatch, streams, rows, d, n_steps,
                                             chunk_bytes):
        if chunk_bytes is not None:
            monkeypatch.setattr(simulate, "_CHUNK_BYTES", chunk_bytes)
        h = 0.01
        draw = _stepwise_normals(11, list(streams), rows, d)
        steps = 0
        for dW in simulate._block_increments(11, list(streams), rows, d, n_steps, h):
            assert np.array_equal(dW, math.sqrt(h) * draw())
            steps += 1
        assert steps == n_steps

    @pytest.mark.parametrize("make", LOOP_MAKERS, ids=LOOP_IDS)
    def test_paths_match_stepwise_loop(self, chunk_bytes, make):
        coeffs = make()
        cfg = coeffs.pathcfg
        segs = [_start(cfg, 0.5), _start(cfg, -0.25)]
        T, streams = 0.5, [5, 7]  # at most 50 steps: the default saves every step
        res = simulate_paths(coeffs, SegmentBatch.from_segments(segs, 8), T, seed=3,
                             stream=streams)
        assert np.array_equal(res.endpoints, _stepwise_paths(coeffs, segs, 8, T, 3, streams))

    def test_mckean_matches_stepwise_loop(self, chunk_bytes):
        coeffs = get_coefficients("linear", CFG)
        assert coeffs.K1 > 0
        segs = [PathSegment.constant(CFG, [0.5]), PathSegment.constant(CFG, [-0.25])]
        cloud = ParticleCloud(CFG, np.repeat(np.stack([s.values for s in segs]), 8, axis=0))
        res = simulate_mckean(coeffs, cloud, 0.5, seed=3, stream=[5, 7])
        ref = _stepwise_paths(coeffs, segs, 8, 0.5, 3, [5, 7], mckean=True)
        assert np.array_equal(res.endpoints, ref)

    @pytest.mark.parametrize("measure", ["Q", "P"])
    @pytest.mark.parametrize("make", LOOP_MAKERS, ids=LOOP_IDS)
    def test_coupled_matches_stepwise_loop(self, chunk_bytes, make, measure):
        coeffs = make()
        cfg = coeffs.pathcfg
        xis = [_start(cfg, 0.5), _start(cfg, 0.25)]
        etas = [_start(cfg, -0.5), _start(cfg, 1.0)]
        T, streams = 0.5, [5, 7]  # at most 50 steps: the default saves every step
        # Under kappa = 4 the decayed start norm bounds every later |X - Y|; kappa = 0
        # leaves X - Y uncorrected, so each step's |X - Y| sets the running norm.
        for kappa in (4.0, 0.0):
            run = simulate_coupled_Q(coeffs, xis, etas, kappa, T, seed=3, stream=streams,
                                     n_replicas=16, measure=measure)
            ref = _stepwise_coupled(coeffs, xis, etas, kappa, T, 3, streams, 16, measure)
            for name, want in zip(("x_end", "y_end", "z_norms", "half_int_gamma_sq", "log_R"),
                                  ref):
                assert np.array_equal(getattr(run, name), want), (kappa, name)

    def test_blow_up_past_the_first_chunk(self, monkeypatch):
        # 4 rows in each of 3 blocks at d = 1: a chunk holds 4 steps (2 for the
        # 6 blocks of a coupled run).  A row that leaves |x| <= 0.5 explodes a
        # few steps later; the step and row below are those of step-by-step draws.
        monkeypatch.setattr(simulate, "_CHUNK_BYTES", 4 * 3 * 4 * 8)
        coeffs = dataclasses.replace(
            _explode_beyond_two(), b0=lambda x: np.where(np.abs(x) > 0.5, 1e4 * x**3, 0.0))
        with pytest.raises(BlowUpError) as err:
            simulate_paths(coeffs, SegmentBatch.from_segment(ZERO_SEG, 12), 1.0, seed=6,
                           stream=(1, 2, 3))
        assert (err.value.step, err.value.particle) == (11, 4)
        for measure in ("Q", "P"):
            with pytest.raises(BlowUpError) as err:
                simulate_coupled_Q(coeffs, [ZERO_SEG] * 3, [PathSegment.constant(CFG, [0.25])] * 3,
                                   4.0, 1.0, seed=6, stream=(1, 2, 3), n_replicas=12,
                                   measure=measure)
            assert (err.value.step, err.value.particle) == (5, 21)

    @pytest.mark.parametrize("run", ["paths", "Q", "P"])
    @pytest.mark.parametrize("term", ["b0", "b1"])
    def test_non_finite_coefficient_past_the_first_step(self, term, run):
        # A drift term that turns NaN at step 3 is a bad coefficient (exit 1); the
        # step rejects it before its endpoint could read as a blow-up (exit 2).
        calls = []

        def coefficient(arg, law=None):
            calls.append(None)
            value = np.zeros_like(arg if term == "b0" else arg.endpoint())
            return value if len(calls) < 3 else value + np.nan

        coeffs = dataclasses.replace(ZERO, **{term: coefficient})
        with pytest.raises(InvalidCoefficientError) as err:
            if run == "paths":
                simulate_paths(coeffs, SegmentBatch.from_segment(ZERO_SEG, 4), 1.0, seed=6)
            else:
                simulate_coupled_Q(coeffs, ZERO_SEG, PathSegment.constant(CFG, [0.25]), 4.0,
                                   1.0, seed=6, n_replicas=4, measure=run)
        assert len(calls) == 3 and err.value.exit_code == 1

    def test_run_consumes_its_start_batch(self):
        batch = SegmentBatch.from_segment(PathSegment.constant(CFG, [0.5]), 4)
        res = simulate_paths(get_coefficients("linear", CFG), batch, 0.5, seed=2)
        np.testing.assert_array_equal(batch.ordered_values(), res.clouds[-1].values)


def _reflect_run(name, d, sign, mckean=False, measure=None):
    """Every step's saves of `_euler_loop` on builtin ``name`` from sign times the
    starts, driven by sign times the Philox increments; under ``measure`` a
    coupled run at kappa = 4, as the columns (x_end, y_end, z_norms,
    half_int_gamma_sq, log_R)."""
    cfg = dataclasses.replace(CFG, d=d)
    coeffs = get_coefficients(name, cfg)
    starts = [[0.5, -0.25], [-0.25, 1.0]] + ([[1.0, 0.5], [0.0, -0.75]] if measure else [])
    rows, streams, n_steps = 8, [5, 7], 40
    batch = SegmentBatch.from_segments(
        [PathSegment.constant(cfg, sign * np.array(v[:d])) for v in starts], rows)
    blocks = streams + streams if measure else streams
    increments = (sign * dW for dW in simulate._block_increments(3, blocks, rows, d, n_steps,
                                                                 cfg.h))
    save_idx = np.arange(n_steps + 1)
    if measure is None:
        law = simulate._BlockLaws(batch, len(streams)) if mckean else None
        return np.array(simulate._euler_loop(coeffs, batch, increments, save_idx,
                                             SegmentBatch.ordered_values, law))
    coupling = simulate._Coupling(batch, 4.0, measure)
    saved = simulate._euler_loop(coeffs, batch, increments, save_idx, coupling.snapshot,
                                 coupling=coupling)
    return [np.array(col) for col in zip(*saved)]


@pytest.mark.parametrize("d", [1, 2])
def test_coupling_start_norm_from_the_starts(d):
    # X of 3 pairs, then Y, from distinct random windows: the running norm starts at
    # the weighted norm of each row's X - Y window, taken per pair and repeated.
    cfg = dataclasses.replace(CFG, d=d)
    rng = np.random.default_rng(40 + d)
    segs = [PathSegment(cfg, np.cumsum(rng.standard_normal((cfg.n_points, d)), axis=0) / 10)
            for _ in range(6)]
    batch = SegmentBatch.from_segments(segs, 4)
    x, y = np.split(batch.ordered_values(), 2)
    zn = simulate._Coupling(batch, 4.0, "Q").zn
    assert np.array_equal(zn, ParticleCloud(cfg, x - y).norms())
    assert len(np.unique(zn)) == 3


class TestReflection:
    """Negated noise from a negated start negates every run of an odd drift, bit
    for bit: IEEE negation is exact, and linear (its K1 law term included),
    sublinear and zero have odd drifts.  dini_sqrt's b0 = min(sqrt|x|, 1) e1 is
    even, so its reflected runs differ.  The noise is the loop's input, so no
    generator is patched."""

    ODD = pytest.mark.parametrize("name, d", [(n, d) for d in (1, 2)
                                              for n in ("linear", "sublinear", "zero")])

    @ODD
    @pytest.mark.parametrize("mckean", [False, True], ids=["plain", "mckean"])
    def test_paths_negate(self, name, d, mckean):
        up = _reflect_run(name, d, 1.0, mckean=mckean)
        assert np.abs(up).min() > 0.0
        assert np.array_equal(_reflect_run(name, d, -1.0, mckean=mckean), -up)

    @ODD
    @pytest.mark.parametrize("measure", ["Q", "P"])
    def test_coupled_records_reflect(self, name, d, measure):
        x, y, zn, half_g2, log_r = _reflect_run(name, d, 1.0, measure=measure)
        assert half_g2[-1].min() > 0.0 and (measure == "Q" or np.abs(log_r[-1]).min() > 0.0)
        rx, ry, rzn, rhalf_g2, rlog_r = _reflect_run(name, d, -1.0, measure=measure)
        assert np.array_equal(rx, -x) and np.array_equal(ry, -y)
        assert np.array_equal(rzn, zn)
        assert np.array_equal(rhalf_g2, half_g2)
        assert np.array_equal(rlog_r, log_r)

    @pytest.mark.parametrize("d", [1, 2])
    def test_dini_sqrt_does_not_reflect(self, d):
        for mckean in (False, True):
            up = _reflect_run("dini_sqrt", d, 1.0, mckean=mckean)
            assert not np.array_equal(_reflect_run("dini_sqrt", d, -1.0, mckean=mckean), -up)
        for measure in ("Q", "P"):
            x = _reflect_run("dini_sqrt", d, 1.0, measure=measure)[0]
            assert not np.array_equal(_reflect_run("dini_sqrt", d, -1.0, measure=measure)[0], -x)
