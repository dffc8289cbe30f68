import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pathcouple
from pathcouple import experiments
from pathcouple.cli import cli_main
from pathcouple import errors, laws, simulate
from pathcouple.errors import BlowUpError, ConfigurationError, InvalidCloudError
from pathcouple.experiments import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    ExperimentConfig,
    Report,
    TestFunction as WeightedTestFunction,
    fit_line,
    parse_config,
    run_alh,
    run_decay,
    run_entropy,
    run_gradient_estimate,
    run_w2_growth,
    run_zvonkin,
    smallest_envelope_c0,
)
from pathcouple.pathspace import PathSegment, SegmentBatch, weighted_norm
from pathcouple.simulate import simulate_paths

FAST = """
path.tau = 1.0
path.T_mem = 1.0
coefficients.name = linear
sim.h = 0.05
sim.T = 2.0
sim.N_particles = 32
sim.N_replicas = 64
sim.kappa = 4.0
sim.tau0 = 0.5
"""


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("sim.T = 1.0")
        assert cfg.T == 1.0
        assert cfg.pathcfg.d == 1
        assert cfg.pathcfg.tau == 1.0
        assert cfg.coefficients_name == "linear"
        assert cfg.kappa == 4.0

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nsim.kappa = 2.5  # trailing\n")
        assert cfg.kappa == 2.5

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            parse_config("sim.bogus = 1")

    def test_unknown_coefficient_name(self):
        # Rejected while parsing, not at the first experiment that builds the set.
        with pytest.raises(ConfigurationError, match="unknown coefficient set 'bogus'") as err:
            parse_config("coefficients.name = bogus\nsim.T = 1.0")
        assert err.value.exit_code == 1

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError, match="not key=value"):
            parse_config("sim.T = 1.0\njust words")

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            parse_config("/nonexistent/path.cfg")

    def test_tau0_out_of_range(self):
        with pytest.raises(ConfigurationError, match="tau0"):
            parse_config("sim.tau0 = 1.5")

    def test_dini_drift_needs_d_1(self):
        # The Zvonkin transform is solved at d = 1; a drift without a Dini part runs at any d.
        with pytest.raises(ConfigurationError, match="Dini drifts run at d = 1 only"):
            parse_config(FAST + "coefficients.name = dini_log\npath.d = 2\n")
        assert parse_config(FAST + "path.d = 3\n").pathcfg.d == 3

    @pytest.mark.parametrize("seed, ok", [
        (-1, False), (0, True), (2**63 - 1, True), (2**63, False), (2**64, False),
        (10**400, False),
    ], ids=["-1", "0", "2**63-1", "2**63", "2**64", "10**400"])
    def test_seed_range(self, seed, ok):
        # Philox's key goes through int64: 2**63 would alias -2**63, and
        # 2**64 would overflow it.
        text = FAST + f"sim.seed = {seed}\n"
        if ok:
            assert parse_config(text).seed == seed
        else:
            with pytest.raises(ConfigurationError, match=r"sim.seed=.* must lie in \[0, 2\*\*63\)"):
                parse_config(text)

    @pytest.mark.parametrize("kappa, ok", [(20.0, False), (40.0, False), (3.2, True)],
                             ids=["kappa h = 1", "kappa h = 2", "kappa h = 0.16"])
    def test_coupling_step_must_contract(self, kappa, ok):
        # The coupled Euler step multiplies X - Y by 1 - kappa h (FAST steps h = 0.05).
        text = FAST + f"sim.kappa = {kappa}\n"
        if ok:
            assert parse_config(text).kappa == kappa
        else:
            with pytest.raises(ConfigurationError, match="kappa \\* h = .* must be below 1"):
                parse_config(text)

    def test_step_grid_rule_comes_first(self):
        # h = 0.4 puts check time 1.0 off the grid, and kappa h = 1.6.
        with pytest.raises(ConfigurationError, match="check time 1.0 is not a multiple"):
            parse_config(FAST + "sim.h = 0.4\npath.T_mem = 0.8\n")

    @pytest.mark.parametrize("amplitude, ok", [
        (1.0, True), (-1.0, True), (800.0, False), (-800.0, False),
        ((laws._OVERFLOW_LOG - math.log(64)) / 2, True),
        ((laws._OVERFLOW_LOG - math.log(64)) / 2 + 1e-9, False),
    ], ids=["1", "-1", "800", "-800", "largest", "above largest"])
    def test_testfn_amplitude_overflow(self, amplitude, ok):
        # alh and gradient sum f^2 <= e^{2|A|} over N_replicas = 64 rows.
        text = FAST + f"testfn.amplitude = {amplitude!r}\n"
        if ok:
            assert parse_config(text).testfn_amplitude == amplitude
        else:
            with pytest.raises(ConfigurationError, match="testfn.amplitude=.* would overflow"):
                parse_config(text)

    def test_one_particle_needs_a_law_free_drift(self):
        # Mean-field runs need 2 particles only when the drift reads the law (K1 > 0).
        with pytest.raises(ConfigurationError, match="at least 2 particles"):
            parse_config(FAST + "sim.N_particles = 1\n")
        assert parse_config(FAST + "sim.N_particles = 1\ncoefficients.name = zero\n")

    def test_delta_out_of_range(self):
        with pytest.raises(ConfigurationError, match="delta"):
            parse_config("experiment.delta = 1.0")

    def test_file_source(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(FAST)
        cfg = parse_config(p)
        assert cfg.pathcfg.h == 0.05
        assert cfg.N_replicas == 64

    def test_file_path_with_equals_sign(self, tmp_path):
        # A string naming an existing file is read, not parsed as config text.
        p = tmp_path / "odd=dir" / "lin.cfg"
        p.parent.mkdir()
        p.write_text(FAST)
        assert parse_config(str(p)).N_replicas == 64

    def test_directory_is_a_configuration_error(self, tmp_path):
        message = f"cannot read config file {re.escape(str(tmp_path))}: "
        with pytest.raises(ConfigurationError, match=message):
            parse_config(str(tmp_path))

    def test_non_utf8_file_is_a_configuration_error(self, tmp_path):
        p = tmp_path / "latin1.cfg"
        p.write_bytes(FAST.encode() + "# caf\xe9\n".encode("latin-1"))
        message = f"cannot read config file {re.escape(str(p))}: .*utf-8"
        with pytest.raises(ConfigurationError, match=message):
            parse_config(str(p))

    def test_long_one_line_text(self):
        # Longer than a file name may be: probing it as a path must not raise.
        text = "sim.kappa = 2.5  # " + "x" * 300
        assert len(text.encode()) > 255
        assert parse_config(text).kappa == 2.5

    @pytest.mark.parametrize("text, builds", [
        ("sim.N_particles = 1\npath.d = 3\ncoefficients.name = zero\n", 1),
        ("sim.T = 1.0\n", 0),
    ], ids=["both-checks", "neither-check"])
    def test_coefficients_built_at_most_once(self, monkeypatch, text, builds):
        calls = []
        real = experiments.get_coefficients
        monkeypatch.setattr(experiments, "get_coefficients",
                            lambda *args: calls.append(args) or real(*args))
        parse_config(text)
        assert len(calls) == builds


class TestWeightedTestFunction:
    CFG = parse_config(FAST).pathcfg

    def test_certified_lipschitz(self):
        # Sampled difference quotients of log f on random-walk pairs stay below lip.
        f = WeightedTestFunction.default(self.CFG, amplitude=1.5)
        rng = np.random.default_rng(1)
        steps = rng.standard_normal((2, 300, self.CFG.n_points, 1)) * math.sqrt(self.CFG.h)
        a, b = np.cumsum(steps, axis=2)
        dist = np.max(self.CFG.weights * np.abs(a - b)[..., 0], axis=-1)
        log_fa, log_fb = (f.log_f(SegmentBatch(self.CFG, x)) for x in (a, b))
        quot = np.abs(log_fa - log_fb) / dist
        assert np.all(quot <= f.lip * (1 + 1e-12))
        assert quot.max() > 0.5 * f.lip  # and lip is not loose by orders of magnitude
        assert f.lip > 0
        assert f.f_sup == pytest.approx(math.exp(1.5))
        assert f.grad_f_sup == pytest.approx(f.f_sup * f.lip)

    @pytest.mark.parametrize("amplitude, rate", [
        (1.0, math.nan), (1.0, -math.inf), (1.0, -800.0), (math.inf, 2.0),
    ], ids=["nan rate", "infinite rate", "rate whose weights overflow", "infinite amplitude"])
    def test_construction_rejects_bad_input(self, amplitude, rate):
        assert self.CFG.T_mem == 1.0  # e^{800} overflows at s = -T_mem
        with pytest.raises(ConfigurationError, match="test function"):
            WeightedTestFunction(self.CFG, amplitude, rate)

    def test_bounds(self):
        f = WeightedTestFunction.default(self.CFG)
        rng = np.random.default_rng(0)
        vals = f.f(SegmentBatch(self.CFG, rng.standard_normal((50, self.CFG.n_points, 1)) * 5))
        assert np.all(vals > 0)
        assert np.all(vals <= f.f_sup)

    def test_zero_amplitude_is_constant(self):
        f = WeightedTestFunction.default(self.CFG, amplitude=0.0)
        seg = PathSegment.constant(self.CFG, [3.0])
        vals = f.f(seg)
        np.testing.assert_allclose(vals, 1.0)
        assert f.lip == 0.0

    @pytest.mark.parametrize("name, rate", [("linear", 2.0), ("linear", 1.0), ("zero", 2.0)],
                             ids=["drift keeps the sum", "second rate", "drift keeps none"])
    def test_f_of_batch_matches_direct_window_sum(self, name, rate):
        # f reads the batch's running integral; over 800 steps it stays within
        # round-off of f of the direct weighted sum over the window.
        config = parse_config(FAST + f"coefficients.name = {name}\nsim.h = 0.01\n")
        cfg = config.pathcfg
        f = WeightedTestFunction.default(cfg, amplitude=1.5, rate=rate)
        w = cfg.h * np.exp(rate * cfg.s_grid)
        rng = np.random.default_rng(3)
        start = SegmentBatch(cfg, rng.standard_normal((64, cfg.n_points, 1)))
        res = simulate_paths(config.coefficients(), start, 8.0, seed=1,
                             save_times=np.arange(1, 9.0),
                             save=lambda batch: (f.f(batch), batch.ordered_values()[..., 0] @ w))
        assert len(res.clouds) == 8 and round(8.0 / cfg.h) == 800
        for got, direct in res.clouds:
            np.testing.assert_allclose(got, np.exp(1.5 * np.tanh(direct)), rtol=0, atol=1e-12)


class TestFits:
    def test_fit_line_exact(self):
        x = np.linspace(0, 4, 9)
        slope, intercept, se = fit_line(x, -0.7 * x + 2.0)
        assert slope == pytest.approx(-0.7)
        assert intercept == pytest.approx(2.0)
        assert se == pytest.approx(0.0, abs=1e-8)

    def test_fit_line_needs_points(self):
        with pytest.raises(ConfigurationError):
            fit_line([0, 1], [0, 1])

    def test_envelope_pure_exponential(self):
        t = np.linspace(0, 3, 20)
        c0 = smallest_envelope_c0(t, 1.0 * np.exp(1.0 * t), 1.0)
        assert c0 == pytest.approx(1.0, rel=1e-6)

    def test_envelope_prefactor_binding(self):
        # w2 = 0.5 w0 e^{0.25 t}: c0 = 0.5 satisfies 0.5 e^{0.5 t} >= 0.5 e^{0.25 t}
        # and the t = 0 point pins the prefactor
        t = np.linspace(0, 3, 20)
        c0 = smallest_envelope_c0(t, 2.0 * 0.5 * np.exp(0.25 * t), 2.0)
        assert c0 == pytest.approx(0.5, rel=1e-6)

    def test_envelope_zero_start(self):
        assert smallest_envelope_c0([0.0, 1.0], [0.0, 0.0], 0.0) == 0.0
        with pytest.raises(ConfigurationError):
            smallest_envelope_c0([0.0, 1.0], [0.0, 0.5], 0.0)

    @staticmethod
    def _bisected_c0(t, w2, w0):
        """Brute-force reference: doubling search, then geometric bisection."""
        logs = np.log(np.maximum(w2, 1e-300)) - math.log(w0)

        def ok(c):
            return bool(np.all(logs <= math.log(c) + c * t + 1e-12))

        lo, hi = 1e-9, 1.0
        while not ok(hi):
            lo, hi = hi, 2.0 * hi
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if ok(mid) else (mid, hi)
        return hi

    def test_envelope_matches_brute_force_on_random_curves(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            t = np.sort(rng.uniform(0.0, 8.0, n))
            if rng.random() < 0.5:
                t[0] = 0.0  # the t = 0 point: c0 >= w2(0) / w0
            w0 = float(rng.uniform(0.1, 2.0))
            w2 = w0 * np.exp(rng.normal(0.0, 1.5, n) + rng.uniform(-0.5, 1.0) * t)
            c0 = smallest_envelope_c0(t, w2, w0)
            assert c0 == pytest.approx(self._bisected_c0(t, w2, w0), rel=1e-12)
            logs = np.log(w2 / w0)
            assert np.all(logs <= math.log(c0) + c0 * t + 2e-12)
            below = c0 * (1 - 1e-9)
            assert np.any(logs > math.log(below) + below * t + 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308])
    def test_envelope_not_finite_raises(self, bad):
        with pytest.raises(ConfigurationError, match="no finite exponential envelope"):
            smallest_envelope_c0([0.0, 1.0, 2.0], [1.0, bad, 1.0], 1e-300)


class TestRunDecay:
    def test_linear_fast_config_passes(self):
        report = run_decay(parse_config(FAST))
        assert report.verdict == PASS
        assert "decay" in report.tables
        assert report.records["kappa"] == 4.0
        # synchronous coupling of the linear builtin contracts at least at
        # rate kappa - K, far below the -p tau0 target
        for label, verdict, _ in report.checks:
            assert verdict == PASS, label

    def test_records_prefactor_of_p1_means(self):
        config = parse_config(FAST)
        report = run_decay(config)
        rows = np.array([row for row in report.tables["decay"][1] if row[1] == 1])
        want = np.max(rows[:, 2] * np.exp(config.tau0 * rows[:, 0])) / config.separation
        assert report.records["decay_prefactor"] == want

    def test_coupled_reports_record_their_replicas(self):
        # decay and entropy rest on R_c = max(N_replicas // 8, 64) replicas per pair.
        config = parse_config(FAST + "sim.N_replicas = 1024\n")
        assert run_decay(config).records["N_replicas"] == 128
        assert run_entropy(config).records["N_replicas"] == 128

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_endpoint_rate_on_zero(self, p):
        # Zero drift, shared noise: under Q, Z_{k+1} = (1 - kappa h) Z_k exactly.
        config = parse_config(FAST + "coefficients.name = zero\n")
        h = config.pathcfg.h
        want = p * math.log(1 - config.kappa * h) / h
        rate = run_decay(config).records[f"endpoint_rate_p{p}"]
        assert rate == pytest.approx(want, rel=1e-9)

    def test_underflowed_moments_left_out_of_the_fits(self):
        # Zero drift, shared noise: z^4 underflows to 0 after t ~ 186 and the
        # endpoint |Z| reaches 0 exactly, so the fits read only normal-float moments.
        report = run_decay(parse_config(FAST + "coefficients.name = zero\nsim.T = 200.0\n"))
        assert report.verdict == PASS
        assert report.records["rate_p4"] == pytest.approx(-4.0, abs=1e-6)
        for p in (1, 2, 4):
            assert math.isnan(report.records[f"endpoint_rate_p{p}"])
        # Past t ~ 186 every fit time of p = 4 has a zero moment: nothing to fit.
        report = run_decay(parse_config(FAST + "coefficients.name = zero\nsim.T = 800.0\n"))
        label, verdict, detail = report.checks[-1]
        assert (label, verdict) == ("decay rate p=4", INCONCLUSIVE)
        assert detail == ("the moment underflows below the smallest normal float at "
                          "25 of 25 fit times")
        assert math.isnan(report.records["rate_p4"])
        # The norm decays at exactly -1; its p = 1 moment turns subnormal past t ~ 708,
        # where it has lost digits that would pull the fitted rate to -0.965.
        assert report.records["rate_p1"] == pytest.approx(-1.0, abs=1e-3)

    def test_kappa_below_tau_rejected(self):
        with pytest.raises(ConfigurationError, match="kappa"):
            run_decay(parse_config(FAST + "sim.kappa = 0.8\n"))


def _gradient(config):
    return run_gradient_estimate(config, entropy_constant=1.0, decay_prefactor=1.0)


class TestStackedRuns:
    # FAST steps h = 0.05 to the last check time: sim.T = 2.0 in 40 steps, 8.0 in 160.
    @pytest.mark.parametrize("run, extra, loops, rows, steps", [
        # decay's pair and entropy's six, 64 replicas each, in one shared coupled batch.
        (run_decay, "", 1, 2 * 7 * 64, 40),
        (run_entropy, "", 1, 2 * 7 * 64, 40),
        # X and Y of all twelve pairs stacked: 24 blocks of 64 rows, within 2048.
        (run_alh, "", 1, 24 * 64, 40),
        (run_alh, "sim.T = 8.0\n", 1, 24 * 64, 160),
        # The 2048-row cap at 20 steps: one pair per loop at R = 2048, two at 512, six at 128.
        (run_alh, "sim.T = 1.0\nsim.N_replicas = 2048\n", 12, 2 * 2048, 20),
        (run_alh, "sim.T = 1.0\nsim.N_replicas = 512\n", 6, 4 * 512, 20),
        (run_alh, "sim.T = 1.0\nsim.N_replicas = 128\n", 2, 12 * 128, 20),
        (_gradient, "", 1, 2 * 64, 40),
        # gradient's one pair shares alh's runner, and runs alone above the row cap.
        (_gradient, "sim.T = 1.0\nsim.N_replicas = 2048\n", 1, 2 * 2048, 20),
        (run_w2_growth, "", 2, 4 * 32, 40),  # curves 200 and 300: 4 flows of N; 400: 2 of 2N
    ], ids=["decay", "entropy", "alh", "alh-T8", "alh-R2048", "alh-R512", "alh-R128", "gradient",
            "gradient-R2048", "growth"])
    def test_one_euler_loop_per_stack(self, monkeypatch, run, extra, loops, rows, steps):
        calls = []
        original = simulate._euler_step

        def counting(*args, **kwargs):
            calls.append(args[1].n)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "_euler_step", counting)
        run(parse_config(FAST + extra))
        assert len(calls) == loops * steps
        assert set(calls) == {rows}

    def test_alh_groups_are_the_fewest_within_the_row_cap(self):
        for R in range(1, 3000):
            groups = experiments._crn_groups(12, R)
            assert [i for g in groups for i in g] == list(range(12))
            cap = max(2048, 2 * R)
            assert max(len(g) for g in groups) - min(len(g) for g in groups) <= 1
            assert all(2 * R * len(g) <= cap for g in groups)
            if len(groups) > 1:  # one run fewer puts too many rows in some batch
                assert 2 * R * -(-12 // (len(groups) - 1)) > cap


class TestSavedFValues:
    """alh and gradient keep f-values at each save; their tables equal a reference
    run pair by pair, whose hooks read f from their own batch."""

    T8 = FAST + "sim.T = 8.0\n"

    @staticmethod
    def _stderr(x):
        return np.std(x, ddof=1) / math.sqrt(len(x))

    @staticmethod
    def _alh_pair_runs(config, times):
        """(i, xi, eta, log f at each of times) of every alh pair, each run alone
        with X and Y on the one stream 100 + 2i."""
        coeffs, _ = config.effective_coefficients()
        f = WeightedTestFunction.default(config.pathcfg, config.testfn_amplitude)
        for i, (a, b) in enumerate(experiments._alh_pairs(config)):
            xi, eta = experiments._pair_segments(config, a, b)
            res = simulate_paths(coeffs, SegmentBatch.from_segments([xi, eta], config.N_replicas),
                                 times[-1], seed=config.seed, stream=(100 + 2 * i, 100 + 2 * i),
                                 save_times=times, save=f.log_f)
            yield i, xi, eta, res.clouds

    @pytest.mark.parametrize("name", ["linear", "dini_sqrt"])
    def test_alh_table_equals_per_pair_reference(self, name):
        config = parse_config(self.T8 + f"coefficients.name = {name}\n")
        R, times = config.N_replicas, [1.0, 2.0, 4.0, 8.0]
        rows = []
        for i, xi, eta, clouds in self._alh_pair_runs(config, times):
            for t, log_f in zip(times, clouds):
                fx, ly = np.exp(log_f[:R]), log_f[R:]
                lhs, rhs = ly.mean(), math.log(fx.mean())
                se = self._stderr(ly - fx / fx.mean())
                rows.append([t, i, lhs, rhs, lhs - rhs, se, weighted_norm(xi - eta)])
        assert run_alh(config).tables["alh"][1] == rows

    @pytest.mark.parametrize("name", ["linear", "dini_sqrt"])
    def test_alh_joint_stderr_below_independent_sides(self, name):
        # X and Y share their noise, so log f(Y) and f(X) / P_t f(X) move together
        # and the stderr of their difference is below the two sides' combined.
        config = parse_config(FAST + f"coefficients.name = {name}\n")
        R = config.N_replicas
        sides = []
        for _, _, _, clouds in self._alh_pair_runs(config, [1.0, 2.0]):
            for log_f in clouds:
                fx, ly = np.exp(log_f[:R]), log_f[R:]
                sides.append(math.hypot(self._stderr(ly), self._stderr(fx) / fx.mean()))
        joint = [row[5] for row in run_alh(config).tables["alh"][1]]
        assert len(joint) == len(sides) == 24
        assert all(j < s for j, s in zip(joint, sides))

    @pytest.mark.parametrize("run, extra, streams", [
        (run_alh, "", [100 + 2 * i for i in range(12)]),
        (run_alh, "sim.T = 1.0\nsim.N_replicas = 512\n", [100 + 2 * i for i in range(12)]),
        (_gradient, "", [500]),
    ], ids=["one-batch", "six-batches", "gradient"])
    def test_alh_draws_one_stream_per_pair(self, monkeypatch, run, extra, streams):
        keys = []
        original = simulate.philox_rng

        def recording(seed, stream):
            keys.append((seed, stream))
            return original(seed, stream)

        monkeypatch.setattr(simulate, "philox_rng", recording)
        config = parse_config(FAST + extra)
        run(config)
        assert sorted(keys) == [(config.seed, s) for s in streams]

    @pytest.mark.parametrize("name", ["linear", "dini_sqrt"])
    def test_gradient_table_equals_full_cloud_reference(self, name):
        config = parse_config(self.T8 + f"coefficients.name = {name}\n")
        coeffs, _ = config.effective_coefficients()
        f = WeightedTestFunction.default(config.pathcfg, config.testfn_amplitude)
        R, times = config.N_replicas, [1.0, 2.0, 4.0]
        xi, eta = experiments._pair_segments(config, 0.25, 0.375)
        dist = weighted_norm(xi - eta)
        res = simulate_paths(coeffs, SegmentBatch.from_segments([xi, eta], R), 4.0,
                             seed=config.seed, stream=(500, 500), save_times=times, save=f.f)
        lam = math.exp(config.delta * weighted_norm(xi) ** (2 * coeffs.alpha))
        rows = []
        for t, f_xy in zip(times, res.clouds):
            fx, fy = f_xy[:R], f_xy[R:]
            quot = abs((fx - fy).mean()) / dist
            rhs = (math.sqrt(2 * lam) * math.sqrt(max(float(fx.var(ddof=1)), 0.0))
                   + f.grad_f_sup * math.exp(-config.tau0 * t))
            rows.append([t, quot, self._stderr(fx - fy) / dist, rhs, rhs - quot])
        assert _gradient(config).tables["gradient"][1] == rows

    @staticmethod
    def _window_copies(monkeypatch, config, runs):
        """Rows of every ordered copy of a batch window that ``runs`` make."""
        calls = []
        original = SegmentBatch.ordered_values

        def counting(batch):
            calls.append(batch.n)
            return original(batch)

        config.effective_coefficients()
        monkeypatch.setattr(SegmentBatch, "ordered_values", counting)
        for run in runs:
            run(config)
        return calls

    @pytest.mark.parametrize("name", ["linear", "dini_sqrt"])
    def test_one_window_copy_per_euler_loop(self, monkeypatch, name):
        # f reads the running integral.  linear's b1 starts that sum at step 1 from
        # the batch's start segments, with no copy; dini_sqrt has no b1, so f asks
        # first at a save, after the batch has advanced, and the one ordered copy
        # of a window per loop starts it: one alh loop of all twelve pairs, one
        # gradient loop.
        config = parse_config(self.T8 + f"coefficients.name = {name}\n")
        copies = self._window_copies(monkeypatch, config, [run_alh, _gradient])
        assert copies == ([] if name == "linear" else [24 * 64, 2 * 64])

    @pytest.mark.parametrize("name", ["linear", "dini_sqrt"])
    def test_coupled_runs_copy_no_window(self, monkeypatch, name):
        # simulate_coupled_Q takes its running norm of X - Y from the start segments.
        config = parse_config(FAST + f"coefficients.name = {name}\n")
        assert self._window_copies(monkeypatch, config, [run_decay, run_entropy]) == []

    def test_alh_and_gradient_never_build_clouds(self, monkeypatch):
        def refuse(batch):
            raise AssertionError("to_cloud called")

        monkeypatch.setattr(SegmentBatch, "to_cloud", refuse)
        config = parse_config(self.T8)
        assert run_alh(config).tables["alh"][1]
        assert _gradient(config).tables["gradient"][1]


def _reflected_side(name, d, side, sign):
    """Every step's saves of alh's stacked run of all twelve pairs (``side="alh"``,
    log f) or of gradient's run (``side="gradient"``, f), on the raw builtin
    ``name``, from sign times the starts, driven by sign times the noise, with f
    at amplitude sign * A."""
    config = parse_config(FAST + f"coefficients.name = {name}\npath.d = {d}\n"
                          "sim.N_replicas = 8\n")
    cfg, R = config.pathcfg, config.N_replicas
    if side == "alh":
        pairs = [experiments._pair_segments(config, a, b) for a, b in experiments._alh_pairs(config)]
        streams = [100 + 2 * i for i in range(len(pairs)) for _ in ("X", "Y")]
    else:
        pairs, streams = [experiments._pair_segments(config, 0.25, 0.375)], [500, 500]
    batch = SegmentBatch.from_segments([sign * seg for pair in pairs for seg in pair], R)
    f = WeightedTestFunction.default(cfg, sign * config.testfn_amplitude)
    n_steps = int(round(config.T / cfg.h))
    increments = (sign * dW for dW in simulate._block_increments(config.seed, streams, R, d,
                                                                 n_steps, cfg.h))
    save = f.log_f if side == "alh" else f.f
    return np.array(simulate._euler_loop(config.coefficients(), batch, increments,
                                         np.arange(n_steps + 1), save))


class TestSideReflection:
    """alh's and gradient's sides under f -> f(-.): on an odd drift, negated noise
    from negated starts negates the history integral bit for bit, tanh is odd, so
    log f and f at amplitude -A equal those at +A.  dini_sqrt's b0 is even."""

    @pytest.mark.parametrize("side", ["alh", "gradient"])
    @pytest.mark.parametrize("name, d", [(n, d) for d in (1, 2)
                                         for n in ("linear", "sublinear", "zero")])
    def test_sides_reflect(self, name, d, side):
        up = _reflected_side(name, d, side, 1.0)
        assert np.abs(np.log(up[1:]) if side == "gradient" else up[1:]).min() > 0.0
        assert np.array_equal(_reflected_side(name, d, side, -1.0), up)

    @pytest.mark.parametrize("side", ["alh", "gradient"])
    def test_dini_sqrt_sides_do_not_reflect(self, side):  # a Dini config has d = 1
        up = _reflected_side("dini_sqrt", 1, side, 1.0)
        assert not np.array_equal(_reflected_side("dini_sqrt", 1, side, -1.0), up)


class TestNegativeControls:
    """Each verdict kind fails when its inequality is broken on purpose."""

    @staticmethod
    def _verdicts(report, prefix):
        return {verdict for label, verdict, _ in report.checks if label.startswith(prefix)}

    @pytest.mark.parametrize("name", ["linear", "zero"])
    def test_decay_without_coupling_fails(self, monkeypatch, name):
        # At kappa = 0, ||X - Y|| grows (linear) or stays (zero): no rate near -p tau0.
        text = FAST + f"coefficients.name = {name}\n"
        assert self._verdicts(run_decay(parse_config(text)), "decay rate") == {PASS}
        original = experiments.simulate_coupled_Q

        def uncoupled(coeffs, xi, eta, kappa, *args, **kwargs):
            return original(coeffs, xi, eta, 0.0, *args, **kwargs)

        # A config caches its coupled run, so the patched run needs a fresh config.
        monkeypatch.setattr(experiments, "simulate_coupled_Q", uncoupled)
        assert self._verdicts(run_decay(parse_config(text)), "decay rate") == {FAIL}

    def test_entropy_growing_linearly_fails(self, monkeypatch):
        # Patched before the config is parsed, so its shared coupled run is the patched one.
        original = experiments.simulate_coupled_Q

        def growing(*args, **kwargs):
            run = original(*args, **kwargs)
            return dataclasses.replace(
                run, half_int_gamma_sq=run.half_int_gamma_sq + run.times[:, None])

        monkeypatch.setattr(experiments, "simulate_coupled_Q", growing)
        report = run_entropy(parse_config(FAST))
        assert len(report.checks) == 6
        assert self._verdicts(report, "H(t) plateau") == {FAIL}

    def test_alh_held_out_defect_beyond_bound_fails(self, monkeypatch):
        original = experiments._alh_sides
        n_train = len(experiments._alh_pairs(parse_config(FAST))) // 2

        def shifted(config, coeffs, f, segs):
            lhs, rhs, se = original(config, coeffs, f, segs)
            lhs[n_train:] += 5.0
            return lhs, rhs, se

        monkeypatch.setattr(experiments, "_alh_sides", shifted)
        assert self._verdicts(run_alh(parse_config(FAST)), "held-out") == {FAIL}

    def test_growth_c0_unstable_under_doubling_fails(self, monkeypatch):
        original = experiments._growth_w2_curves

        def steeper_when_doubled(config, coeffs, n, seed_streams, save_times):
            starts, w2 = original(config, coeffs, n, seed_streams, save_times)
            return starts, w2 * np.exp(3 * save_times) if seed_streams == (400,) else w2

        monkeypatch.setattr(experiments, "_growth_w2_curves", steeper_when_doubled)
        assert self._verdicts(run_w2_growth(parse_config(FAST)), "c0 stability") == {FAIL}

    def test_gradient_with_zero_constants_fails(self):
        report = run_gradient_estimate(parse_config(FAST), entropy_constant=0.0,
                                       decay_prefactor=0.0)
        assert self._verdicts(report, "gradient bound") == {FAIL}

    def test_zvonkin_map_above_maximum_principle_fails(self, monkeypatch):
        original = ExperimentConfig.effective_coefficients

        def inflated(config):
            coeffs, zmap = original(config)
            return coeffs, dataclasses.replace(zmap, u_inf=10 * zmap.u_inf)

        config = parse_config(FAST + "coefficients.name = dini_sqrt\n")
        assert run_zvonkin(config).verdict == PASS
        monkeypatch.setattr(ExperimentConfig, "effective_coefficients", inflated)
        assert self._verdicts(run_zvonkin(config), "resolvent maximum principle") == {FAIL}


class TestNoisyBreaches:
    """A bound check that fails within its estimate's noise is INCONCLUSIVE."""

    _verdicts = staticmethod(TestNegativeControls._verdicts)

    def test_alh_held_out_defect_within_noise_is_inconclusive(self, monkeypatch):
        original = experiments._alh_sides
        n_train = len(experiments._alh_pairs(parse_config(FAST))) // 2

        def shifted_and_noisy(config, coeffs, f, segs):
            lhs, rhs, se = original(config, coeffs, f, segs)
            lhs[n_train:] += 5.0
            se[n_train:] = 1.0  # above a tenth of the defect, yet 3 se stay below it
            return lhs, rhs, se

        monkeypatch.setattr(experiments, "_alh_sides", shifted_and_noisy)
        assert self._verdicts(run_alh(parse_config(FAST)), "held-out") == {INCONCLUSIVE}

    def test_gradient_quotient_within_noise_is_inconclusive(self, monkeypatch):
        # Y's replicas are X's shifted by one and lifted by 1e-6: the difference
        # quotient is tiny beside its stderr, and zero constants put the bound at 0.
        original = experiments._crn_log_f

        def unpaired(*args):
            log_f = original(*args)
            log_f[:, :, 1] = np.roll(log_f[:, :, 0], 1, axis=-1) + 1e-6
            return log_f

        monkeypatch.setattr(experiments, "_crn_log_f", unpaired)
        report = run_gradient_estimate(parse_config(FAST), entropy_constant=0.0,
                                       decay_prefactor=0.0)
        assert self._verdicts(report, "gradient bound") == {INCONCLUSIVE}


def _verdict_surface(zvonkin_check: str) -> list:
    """(report, check label, count) of an `all` run, pair indices and times masked."""
    return [
        ("hypothesis-validation", "declared hypothesis constants", 1),
        ("zvonkin-transform", zvonkin_check, 1),
        ("coupling-decay", "decay rate p=1", 1),
        ("coupling-decay", "decay rate p=2", 1),
        ("coupling-decay", "decay rate p=4", 1),
        ("relative-entropy", "H(t) plateau pair #", 6),
        ("asymptotic-log-harnack", "held-out pair # t=#", 18),
        ("asymptotic-log-harnack", "excess decay rate", 1),
        ("wasserstein-growth", "c0 stability under N doubling", 1),
        ("gradient-estimate", "gradient bound t=#", 3),
    ]


# SHA-256 of every file `all` writes for the shrunk shipped configs of
# `test_all_runs_the_pinned_checks`.  A change that moves a reported number
# updates these and says why.
ALL_OUTPUT_DIGESTS = {
    "builtin_linear.cfg": {
        "asymptotic-log-harnack_alh.csv":
            "4dcc1b35462000568f4e4ae2e77f2686151fef45f697fd8a25225be8a75d9ade",
        "coupling-decay_decay.csv":
            "484fd91e90527d44b2055cac9dd16ca1867944f51a98443df8b50b65954c154e",
        "gradient-estimate_gradient.csv":
            "bbc176c3f9eafa73b073b65f96ebb11ea539a2aa28a5f9df8b3b01850dbba100",
        "relative-entropy_entropy.csv":
            "ad0f600baead3b7be94762bd2b78ab958d60bf9a255dfea50800f1bf1c107771",
        "summary.txt": "5edc2bd252de4fc0c32c0f52ecdd79101a779d02ad8fb28794268fa231a04203",
        "wasserstein-growth_growth.csv":
            "ec4bb9727070f631c18df167ecf8cac5d4e1024d1fca8a0a435d8e1c68a8a9bc",
    },
    "builtin_dini.cfg": {
        "asymptotic-log-harnack_alh.csv":
            "9e0a55f56955c686dcdada016e091cacdf33fc71d49218ecc1dfed25314f6421",
        "coupling-decay_decay.csv":
            "1dac21e9aade1053a734d67bd867b8e9345b97be67b260a1d64431425fa81436",
        "gradient-estimate_gradient.csv":
            "acccaab6c804aa54d4e3bf8e9b2e6710a35c130ed2ac56236661bf054e9c8f67",
        "relative-entropy_entropy.csv":
            "ffc30758cbe6bc7f322fd54a7492cc032034c6eabae0cd36e8a50745bb4b9c5b",
        "summary.txt": "1139055bbfdbd8fff148e27ebde4f33f26a811f2050a2ac3291a0004565f166b",
        "wasserstein-growth_growth.csv":
            "18b7ab088be6e6ef97f6a915b3780cedbe5ebaa25a7f554fabbcfbdbf4343df8",
    },
}


class TestCli:
    def _cfg_file(self, tmp_path, extra=""):
        p = tmp_path / "run.cfg"
        p.write_text(FAST + f"output.dir = {tmp_path / 'out'}\n" + extra)
        return p

    def test_bare_invocation_usage(self, capsys):
        assert cli_main([]) == 1

    @staticmethod
    def _run_python(*args):
        src = str(Path(pathcouple.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, env=env, timeout=60)

    def test_python_m_entry_point(self):
        proc = self._run_python("-m", "pathcouple")
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: pathcouple")

    @pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate"])
    def test_import_leaves_module_unloaded(self, module):
        # Set-up time: each of these modules adds to every run and none is needed.
        proc = self._run_python(
            "-c", f"import sys, pathcouple.cli; print({module!r} in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_unknown_subcommand(self):
        assert cli_main(["frobnicate", "--config", "x"]) == 1

    def test_missing_config_file(self, tmp_path):
        assert cli_main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_validate_passes(self, tmp_path, capsys):
        rc = cli_main(["validate", "--config", str(self._cfg_file(tmp_path))])
        assert rc == 0
        assert f"[{PASS}]" in capsys.readouterr().out
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_validate_failure_is_reported(self, tmp_path, capsys, monkeypatch):
        from pathcouple import coefficients, experiments

        failing = coefficients.ValidationReport(ratios={"H2_lipschitz": 1.5})
        monkeypatch.setattr(experiments, "validate_H", lambda *args, **kwargs: failing)
        assert cli_main(["validate", "--config", str(self._cfg_file(tmp_path))]) == 3
        assert "  FAIL: hypothesis ratio H2_lipschitz (ratio 1.5 > 1)" in capsys.readouterr().out

    def test_config_error_exit_1(self, tmp_path):
        p = self._cfg_file(tmp_path, extra="sim.kappa = 0.8\n")
        assert cli_main(["decay", "--config", str(p)]) == 1

    @pytest.mark.parametrize("separation", ["0", "-1"])
    def test_nonpositive_separation_exit_1(self, tmp_path, capsys, separation):
        p = self._cfg_file(tmp_path, extra=f"experiment.separation = {separation}\n")
        assert cli_main(["gradient", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: separation=")
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", [
        "sim.N_replicas = abc", "sim.N_replicas = 1.5", "sim.T = nan", "sim.kappa = nan",
        "sim.kappa = inf", "experiment.separation = inf",
    ])
    def test_bad_value_exit_1(self, tmp_path, capsys, line):
        p = self._cfg_file(tmp_path, extra=line + "\n")
        assert cli_main(["decay", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        key, value = line.split(" = ")
        lineno = len(p.read_text().splitlines())
        kind = "int" if key == "sim.N_replicas" else "float"
        assert err == (f"configuration error: {key} = {value!r} is not a finite {kind} "
                       f"(line {lineno})\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["alh", "gradient"])
    def test_horizon_before_first_check_exit_1(self, tmp_path, capsys, command):
        p = self._cfg_file(tmp_path, extra="sim.T = 0.5\n")
        assert cli_main([command, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sim.T=0.5 is below the first check time 1.0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["alh", "gradient", "all"])
    def test_testfn_amplitude_overflow_exit_1(self, tmp_path, capsys, command):
        p = self._cfg_file(tmp_path, extra="testfn.amplitude = 800\n")
        assert cli_main([command, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: testfn.amplitude=800.0")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        "sim.T = 0.5", "sim.kappa = 0.8",
        pytest.param("sim.kappa = 20", id="kappa h = 1"),
        pytest.param("sim.kappa = 40", id="kappa h = 2"),
        pytest.param("coefficients.name = dini_sqrt\npath.d = 2", id="dini at d = 2"),
        pytest.param("coefficients.name = dini_sqrt\npath.d = 3", id="dini at d = 3"),
        pytest.param("sim.N_particles = 1", id="one particle per mean-field block"),
        pytest.param("sim.T = 2.01", id="horizon off the step grid"),
        pytest.param("sim.h = 0.4\npath.T_mem = 0.8", id="check time 1.0 off the step grid"),
    ])
    def test_all_rejects_config_before_running(self, tmp_path, capsys, monkeypatch, line):
        # One config serves every experiment: `all` refuses it before the first runs.
        from pathcouple import cli

        def fail(*args, **kwargs):
            raise AssertionError("a runner was called")

        monkeypatch.setattr(cli, "run_validate", fail)
        p = self._cfg_file(tmp_path, extra=line + "\n")
        assert cli_main(["all", "--config", str(p)]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (tmp_path / "out").exists()

    def test_tiny_separation_collapsing_a_pair_exit_1(self, tmp_path, capsys):
        # 0.25 + s / 4 == 0.25 at s = 1e-20: an alh pair at distance 0 gives a 0 / 0 bound.
        p = self._cfg_file(tmp_path, extra="experiment.separation = 1e-20\n")
        assert cli_main(["all", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: separation=1e-20 collapses the start pair")
        assert "Traceback" not in err
        p = self._cfg_file(tmp_path, extra="experiment.separation = 1e-10\n")
        assert cli_main(["all", "--config", str(p)]) == 0

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below a file"])
    def test_unusable_output_exit_1(self, tmp_path, capsys, monkeypatch, below):
        from pathcouple import cli

        def fail(*args, **kwargs):
            raise AssertionError("a runner was called")

        monkeypatch.setattr(cli, "run_validate", fail)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "out" if below else blocker
        argv = ["validate", "--config", str(self._cfg_file(tmp_path)), "--output", str(out)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: output {out}")
        assert err.endswith("is not a directory\n") and "Traceback" not in err

    @pytest.mark.parametrize("name, zvonkin_check", [
        ("builtin_linear.cfg", "transform"), ("builtin_dini.cfg", "resolvent maximum principle"),
    ])
    def test_all_runs_the_pinned_checks(self, tmp_path, monkeypatch, name, zvonkin_check):
        # Adding or dropping a check of a shipped config shows up as an edit here.
        shipped = Path(__file__).resolve().parents[1] / "configs" / name
        p = tmp_path / name
        p.write_text(shipped.read_text() + "sim.N_replicas = 64\nsim.N_particles = 16\n")
        calls = []
        original = experiments.simulate_coupled_Q
        monkeypatch.setattr(experiments, "simulate_coupled_Q",
                            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        cli_main(["all", "--config", str(p), "--output", str(tmp_path / "out")])
        assert len(calls) == 1  # decay, entropy and gradient read one coupled run
        checks = []
        for line in (tmp_path / "out" / "summary.txt").read_text().splitlines():
            if line.startswith("["):
                report = line.partition("] ")[2]
            elif m := re.fullmatch(r"  (?:PASS|FAIL|INCONCLUSIVE): (.*?)(?: \(.*\))?", line):
                label = re.sub(r"t=[0-9.]+", "t=#", re.sub(r"pair \d+", "pair #", m[1]))
                checks.append((report, label))
        assert [(*key, len(list(group))) for key, group in itertools.groupby(checks)] \
            == _verdict_surface(zvonkin_check)
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in (tmp_path / "out").iterdir()}
        assert digests == ALL_OUTPUT_DIGESTS[name]

    def test_error_classes_declare_exit_codes(self):
        # The CLI prints "<label>: <message>" and exits with the class's code;
        # a new error class must be added here with the pair it inherits.
        declared = {name: (cls.label, cls.exit_code) for name, cls in vars(errors).items()
                    if isinstance(cls, type) and issubclass(cls, errors.PathcoupleError)}
        config, numerical = ("configuration error", 1), ("numerical failure", 2)
        assert declared == {
            "PathcoupleError": ("error", 2), "InvalidSegmentError": ("error", 2),
            "InvalidCloudError": ("error", 2), "ConfigurationError": config,
            "InvalidCoefficientError": config, "NotDiniError": config,
            "NumericalError": numerical, "SolverFailureError": numerical,
            "LambdaExhaustedError": numerical, "OutOfDomainError": numerical,
            "BlowUpError": numerical, "SingularDiffusionError": numerical,
        }

    @pytest.mark.parametrize("error, prefix", [
        (BlowUpError("trajectory blew up at step 3", step=3, particle=0), "numerical failure: "),
        (InvalidCloudError("cloud values are not finite"), "error: "),
    ])
    def test_package_error_exit_2(self, tmp_path, capsys, monkeypatch, error, prefix):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(experiments, "simulate_coupled_Q", failing)
        assert cli_main(["decay", "--config", str(self._cfg_file(tmp_path))]) == 2
        assert capsys.readouterr().err == f"{prefix}{error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["decay", "gradient"])
    def test_single_replica_exit_1(self, tmp_path, capsys, command):
        # Standard errors use ddof = 1: one replica would report NaN.
        p = self._cfg_file(tmp_path, extra="sim.N_replicas = 1\n")
        assert cli_main([command, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "N_replicas >= 2" in err
        assert "Traceback" not in err

    @staticmethod
    def _summary_block(out: Path, name: str) -> list:
        """Lines of one report in summary.txt, from its header to the next."""
        lines = (out / "summary.txt").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.endswith(f"] {name}"))
        end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
                   len(lines))
        return lines[start:end]

    def test_all_and_gradient_make_one_coupled_run(self, tmp_path, monkeypatch):
        # decay, entropy and gradient read one coupled run cached on the config:
        # `all` and a standalone `gradient` each simulate it once, and report
        # the same gradient numbers.
        calls = []
        original = experiments.simulate_coupled_Q

        def counted(*args, **kwargs):
            calls.append(kwargs["stream"])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "simulate_coupled_Q", counted)
        p = self._cfg_file(tmp_path)
        out_all, out_grad = tmp_path / "all", tmp_path / "gradient"
        assert cli_main(["all", "--config", str(p), "--output", str(out_all)]) == 0
        assert calls == [[1, 10, 11, 12, 13, 14, 15]]
        assert cli_main(["gradient", "--config", str(p), "--output", str(out_grad)]) == 0
        assert len(calls) == 2
        block = self._summary_block(out_all, "gradient-estimate")
        assert block[0] == f"[{PASS}] gradient-estimate"
        for owner, key in (("coupling-decay", "decay_prefactor"),
                           ("relative-entropy", "entropy_constant")):
            record = f"  record {key} = "
            assert ([line for line in block if line.startswith(record)]
                    == [line for line in self._summary_block(out_all, owner)
                        if line.startswith(record)])
        assert block == self._summary_block(out_grad, "gradient-estimate")
        csv_name = "gradient-estimate_gradient.csv"
        assert (out_all / csv_name).read_bytes() == (out_grad / csv_name).read_bytes()

    def test_decay_and_report(self, tmp_path, capsys):
        p = self._cfg_file(tmp_path)
        assert cli_main(["decay", "--config", str(p)]) == 0
        capsys.readouterr()
        assert cli_main(["report", "--output", str(tmp_path / "out")]) == 0
        assert f"[{PASS}] coupling-decay" in capsys.readouterr().out
        with open(tmp_path / "out" / "coupling-decay_decay.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["t", "p", "mean_znorm_p", "stderr"]
        assert rows
        for row in rows:
            for cell in row:
                float(cell)  # raises on a cell such as "np.float64(0.5)"

    def test_report_missing_summary(self, tmp_path, capsys):
        assert cli_main(["report", "--output", str(tmp_path)]) == 1
        # A summary with no "[VERDICT] name" header, or an unknown verdict, is no summary.
        for text in ("", "[PASSED] coupling-decay\n  PASS: fine\n"):
            (tmp_path / "summary.txt").write_text(text)
            assert cli_main(["report", "--output", str(tmp_path)]) == 1
            assert "no [VERDICT] name header" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"[PASS] caf\xe9\n"),
    ], ids=["directory", "not-utf8"])
    def test_report_unreadable_summary_exit_1(self, tmp_path, capsys, make):
        summary = tmp_path / "summary.txt"
        make(summary)
        assert cli_main(["report", "--output", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot read {summary}: ")
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize("verdict, code", [(PASS, 0), (FAIL, 3), (INCONCLUSIVE, 4)])
    def test_report_exit_code_follows_worst_check(self, tmp_path, capsys, verdict, code):
        passing, mixed = Report("first"), Report("second", records={"x": 1.0})
        passing.add_check("fine", PASS)
        mixed.add_check("fine", PASS)
        mixed.add_check("the one that decides", verdict, "detail")
        lines = passing.lines() + mixed.lines()
        (tmp_path / "summary.txt").write_text("\n".join(lines) + "\n")
        assert cli_main(["report", "--output", str(tmp_path)]) == code
        assert capsys.readouterr().out.splitlines() == lines

    def test_outputs_reproducible(self, tmp_path):
        p = self._cfg_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["decay", "--config", str(p), "--output", str(out_a)]) == 0
        assert cli_main(["decay", "--config", str(p), "--output", str(out_b)]) == 0
        for name in ("summary.txt", "coupling-decay_decay.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_alh_repeats_byte_for_byte_in_one_interpreter(self, tmp_path):
        # Running history integrals live in each simulation's own batch, so a
        # second run in the same process must not see the first one's state.
        shipped = Path(__file__).resolve().parents[1] / "configs" / "builtin_linear.cfg"
        p = tmp_path / "small.cfg"
        p.write_text(shipped.read_text() + "sim.N_replicas = 64\nsim.T = 2.0\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli_main(["alh", "--config", str(p), "--output", str(out)]) == 0
        names = sorted(f.name for f in out_a.iterdir())
        assert "summary.txt" in names and any(n.endswith(".csv") for n in names)
        assert names == sorted(f.name for f in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestStartUp:
    """Importing the CLI and parsing a config load numpy and no SciPy module;
    an experiment imports the SciPy modules it calls when it first calls them.
    Each SciPy import adds to the set-up time of every run that loads it."""

    CONFIGS = Path(__file__).resolve().parents[1] / "configs"

    @staticmethod
    def _scipy_after(code: str) -> list:
        """The scipy modules loaded after ``code`` runs in a fresh interpreter."""
        proc = TestCli._run_python("-c", code + "\nimport json, sys\n"
                                   "print(json.dumps(sorted(m for m in sys.modules"
                                   " if m.split('.')[0] == 'scipy')))")
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_parse_config_loads_no_scipy(self):
        paths = [str(self.CONFIGS / f"builtin_{name}.cfg") for name in ("linear", "dini")]
        loaded = self._scipy_after(
            "import pathcouple.cli\nfrom pathcouple.experiments import parse_config\n"
            f"for path in {paths!r}:\n    parse_config(path)")
        assert not loaded, loaded

    @pytest.mark.parametrize("name, command, wanted, forbidden", [
        ("linear", "decay", [], ["scipy"]),
        ("dini", "decay", [], ["scipy"]),
        ("linear", "growth", ["scipy.optimize"], []),
    ], ids=["linear-decay", "dini-decay", "linear-growth"])
    def test_experiment_loads_only_what_it_calls(self, tmp_path, name, command, wanted,
                                                 forbidden):
        p = tmp_path / f"{name}.cfg"
        p.write_text((self.CONFIGS / f"builtin_{name}.cfg").read_text()
                     + "sim.T = 1.0\nsim.N_replicas = 64\nsim.N_particles = 16\n")
        argv = [command, "--config", str(p), "--output", str(tmp_path / "out")]
        loaded = self._scipy_after(
            f"from pathcouple.cli import cli_main\nassert cli_main({argv!r}) in (0, 3, 4)")
        assert set(wanted) <= set(loaded)
        bad = [m for m in loaded if any(m == f or m.startswith(f + ".") for f in forbidden)]
        assert not bad, bad
