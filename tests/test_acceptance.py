"""Acceptance suite: one criterion per test, one printed verdict line each.

Every test prints "[criterion N] <label>: PASS/FAIL (...)" on the live
terminal (bypassing capture) and then asserts, so a plain pytest run yields
a human-readable scoreboard alongside the usual pass/fail collection.
"""

import itertools
import math
import time

import numpy as np
import pytest

from pathcouple.coefficients import get_coefficients
from pathcouple.experiments import (
    PASS,
    TestFunction as WeightedTestFunction,
    parse_config,
    run_alh,
    run_decay,
    run_gradient_estimate,
    run_w2_growth,
)
from pathcouple.laws import gaussian_history_cloud
from pathcouple.pathspace import (
    ParticleCloud,
    PathSegment,
    PathSpaceConfig,
    SegmentBatch,
    check_history_inequality,
    truncated_norm,
    weighted_norm,
)
from pathcouple.simulate import (
    girsanov_weight_P,
    simulate_coupled_Q,
    simulate_mckean,
    simulate_paths,
)
from pathcouple.wasserstein import pairwise_truncated_norm, wk_full
from pathcouple.zvonkin import (
    EllipticGrid,
    default_lambda_grid,
    select_lambda,
    theta,
    theta_inv,
    transformed_coeffs,
)

BUILTINS = ("linear", "sublinear", "dini_sqrt", "dini_log", "zero")
DINI_BUILTINS = ("dini_sqrt", "dini_log")


def announce(capsys, num, label, ok, detail, elapsed, budget):
    verdict = PASS if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num}] {label}: {verdict} "
              f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def base_config(**overrides):
    lines = {
        "path.d": 1, "path.tau": 1.0, "path.T_mem": 2.0,
        "coefficients.name": "linear", "sim.h": 0.01, "sim.T": 4.0,
        "sim.N_particles": 256, "sim.N_replicas": 256, "sim.kappa": 4.0,
        "sim.seed": 0, "sim.tau0": 0.5,
    }
    lines.update(overrides)
    return parse_config("\n".join(f"{k} = {v}" for k, v in lines.items()))


def test_criterion_1_path_space_suite(capsys):
    t0 = time.perf_counter()
    cfg = PathSpaceConfig(d=1, tau=1.0, h=0.05, T_mem=2.0)
    rng = np.random.default_rng(1)
    n = 1000
    failures = 0
    for p in (0.5, 1.0, 2.0, 4.0):
        for _ in range(n):
            vals = np.cumsum(rng.standard_normal((cfg.n_points, cfg.d)), axis=0) * 0.3
            seg = PathSegment(cfg, vals)
            c = rng.uniform(0.1, 3.0)
            # homogeneity and triangle inequality of the weighted sup norm
            if not math.isclose(weighted_norm(c * seg), c * weighted_norm(seg),
                                rel_tol=1e-12):
                failures += 1
            other = PathSegment(cfg, rng.standard_normal((cfg.n_points, cfg.d)))
            if weighted_norm(seg + other) > weighted_norm(seg) + weighted_norm(other) + 1e-12:
                failures += 1
            # truncation monotonicity in the window length
            norms = [truncated_norm(seg, N) for N in (0.5, 1.0, 1.5, 2.0)]
            if np.any(np.diff(norms) < -1e-15):
                failures += 1
            # sup-splitting of the weighted norm along a continuation
            future = np.cumsum(rng.standard_normal((20, cfg.d)), axis=0) * 0.3
            if not check_history_inequality(seg, future, p):
                failures += 1
    elapsed = time.perf_counter() - t0
    announce(capsys, 1, "path-space norm suite", failures == 0,
             f"{failures} failures over 4x{n} random paths", elapsed, 10.0)


def test_criterion_2_zvonkin_suite(capsys):
    t0 = time.perf_counter()
    cfg = PathSpaceConfig(d=1, tau=1.0, h=0.01, T_mem=2.0)
    grid = EllipticGrid(L=10.0, dx=1e-3)
    details = []
    ok = True
    for name in DINI_BUILTINS:
        coeffs = get_coefficients(name, cfg)
        zmap = select_lambda(coeffs, grid, default_lambda_grid(coeffs))
        res_ok = zmap.residual <= 1e-8 * (1 + coeffs.b0_bound)
        max_ok = zmap.u_inf <= coeffs.b0_bound / zmap.lam + 10 * grid.dx**2
        small_ok = zmap.smallness <= 0.5
        xs = np.linspace(-9.5, 9.5, 401).reshape(-1, 1)
        rt = float(np.max(np.abs(theta_inv(zmap, theta(zmap, xs)) - xs)))
        rt_ok = rt <= 1e-10
        ok = ok and res_ok and max_ok and small_ok and rt_ok
        details.append(f"{name}: residual {zmap.residual:.2e}, "
                       f"smallness {zmap.smallness:.3f}, roundtrip {rt:.1e}")
    elapsed = time.perf_counter() - t0
    announce(capsys, 2, "drift-transform solver suite", ok,
             "; ".join(details), elapsed, 60.0)


def test_criterion_3_transform_consistency(capsys):
    t0 = time.perf_counter()
    cfg = PathSpaceConfig(d=1, tau=1.0, h=1e-3, T_mem=1.0)
    coeffs = get_coefficients("dini_sqrt", cfg)
    R, T = 10_000, 1.0
    xi = PathSegment.constant(cfg, [0.25])

    direct = simulate_paths(coeffs, SegmentBatch.from_segment(xi, R), T,
                            seed=0, stream=0, save_times=[T])
    a = np.sort(direct.endpoints[-1][:, 0])

    zmap = select_lambda(coeffs, EllipticGrid(L=12.0, dx=1e-3),
                         default_lambda_grid(coeffs))
    coeffs_hat = transformed_coeffs(zmap, coeffs)
    eta = PathSegment(cfg, theta(zmap, xi.values))
    mapped = simulate_paths(coeffs_hat, SegmentBatch.from_segment(eta, R), T,
                            seed=0, stream=7, save_times=[T])
    b = np.sort(theta_inv(zmap, mapped.endpoints[-1], extend=True)[:, 0])

    w1 = float(np.mean(np.abs(a - b)))
    # same-law split debiases the O(n^{-1/2}) positive bias of empirical W1
    w1_null = float(np.mean(np.abs(np.sort(a[::2]) - np.sort(a[1::2]))))
    se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(R)
    tol = 3 * se + 5 * cfg.h
    ok = max(w1 - w1_null, 0.0) <= tol
    elapsed = time.perf_counter() - t0
    announce(capsys, 3, "direct vs transformed simulation", ok,
             f"W1 {w1:.4g} (null {w1_null:.4g}) vs tolerance {tol:.4g}",
             elapsed, 600.0)


def test_criterion_4_girsanov_suite(capsys):
    t0 = time.perf_counter()
    cfg = PathSpaceConfig(d=1, tau=1.0, h=0.01, T_mem=1.0)
    xi = PathSegment.constant(cfg, [0.25])
    eta = PathSegment.constant(cfg, [-0.25])
    details = []

    zero = get_coefficients("zero", cfg)
    run0 = simulate_coupled_Q(zero, xi, eta, 0.0, 1.0, seed=0, n_replicas=64,
                              measure="P")
    exact_one = float(np.max(np.abs(run0.log_R))) == 0.0
    details.append(f"kappa=0 max|log R| = {np.max(np.abs(run0.log_R)):.1e}")

    coeffs = get_coefficients("sublinear", cfg)
    run_p = simulate_coupled_Q(coeffs, xi, eta, 4.0, 1.0, seed=1,
                               n_replicas=10_000, measure="P")
    log_r, mean_r, se_r = girsanov_weight_P(run_p)
    mean_ok = abs(mean_r - 1.0) <= 3 * se_r
    details.append(f"E[R] = {mean_r:.4f} +- {se_r:.4f}")

    log_r_final = run_p.log_R[-1]
    rlogr = np.exp(log_r_final) * log_r_final
    run_q = simulate_coupled_Q(coeffs, xi, eta, 4.0, 1.0, seed=2,
                               n_replicas=10_000, measure="Q")
    ent_q = run_q.half_int_gamma_sq[-1]
    gap = abs(rlogr.mean() - ent_q.mean())
    se_gap = math.hypot(rlogr.std(ddof=1), ent_q.std(ddof=1)) / 100.0
    ent_ok = gap <= 3 * se_gap
    details.append(f"E[R log R] gap {gap:.4f} vs 3se {3 * se_gap:.4f}")

    fine = PathSpaceConfig(d=1, tau=1.0, h=1e-3, T_mem=1.0)
    kappa, T = 4.0, 1.0
    runf = simulate_coupled_Q(
        get_coefficients("zero", fine), PathSegment.constant(fine, [1.0]),
        PathSegment.zero(fine), kappa, T, seed=3, n_replicas=4)
    closed = (kappa / 4) * (1 - math.exp(-2 * kappa * T))
    got = float(runf.half_int_gamma_sq[-1].mean())
    closed_ok = abs(got - closed) / closed <= 0.02
    details.append(f"closed-form entropy rel err {abs(got - closed) / closed:.4f}")

    elapsed = time.perf_counter() - t0
    announce(capsys, 4, "change-of-measure weight suite",
             exact_one and mean_ok and ent_ok and closed_ok,
             "; ".join(details), elapsed, 300.0)


def test_criterion_5_decay_suite(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in BUILTINS:
        report = run_decay(base_config(**{"coefficients.name": name}))
        ok = ok and report.verdict == PASS
        rates = [f"p{p}: {report.records[f'rate_p{p}']:.2f}" for p in (1, 2, 4)]
        details.append(f"{name} [{report.verdict}] " + " ".join(rates))
    elapsed = time.perf_counter() - t0
    announce(capsys, 5, "coupling decay rates (all builtins)", ok,
             "; ".join(details), elapsed, 900.0)


def test_criterion_6_ot_oracle(capsys):
    t0 = time.perf_counter()
    cfg = PathSpaceConfig(d=1, tau=1.0, h=0.1, T_mem=0.5)
    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        a = ParticleCloud(cfg, rng.uniform(-1, 1, (n, cfg.n_points, cfg.d)))
        b = ParticleCloud(cfg, rng.uniform(-1, 1, (n, cfg.n_points, cfg.d)))
        k = float(rng.choice([1.0, 2.0, 3.0]))
        got = wk_full(a, b, k)
        costs = pairwise_truncated_norm(a, b) ** k
        brute = min(
            costs[range(n), list(perm)].mean()
            for perm in itertools.permutations(range(n))
        ) ** (1 / k)
        worst = max(worst, abs(got - brute))
    metric_ok = True
    for _ in range(30):
        clouds = [ParticleCloud(cfg, rng.uniform(-1, 1, (4, cfg.n_points, cfg.d)))
                  for _ in range(3)]
        dab = wk_full(clouds[0], clouds[1], 2.0)
        dba = wk_full(clouds[1], clouds[0], 2.0)
        dbc = wk_full(clouds[1], clouds[2], 2.0)
        dac = wk_full(clouds[0], clouds[2], 2.0)
        daa = wk_full(clouds[0], clouds[0], 2.0)
        metric_ok &= abs(dab - dba) <= 1e-10
        metric_ok &= dac <= dab + dbc + 1e-10
        metric_ok &= daa <= 1e-10
    elapsed = time.perf_counter() - t0
    announce(capsys, 6, "optimal-transport permutation oracle",
             worst <= 1e-10 and metric_ok,
             f"max |solver - brute force| = {worst:.2e}", elapsed, 30.0)


def test_criterion_7_asymptotic_log_harnack(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in BUILTINS:
        config = base_config(**{
            "coefficients.name": name, "sim.T": 8.0, "sim.N_replicas": 2048,
        })
        report = run_alh(config)
        ok = ok and report.verdict == PASS
        details.append(f"{name} [{report.verdict}] c = {report.records['fitted_c']:.3g}")

    # consistency of the frozen-law machinery with plain path simulation
    # when the law coefficient vanishes (K1 = 0)
    cfg = PathSpaceConfig(d=1, tau=1.0, h=0.01, T_mem=2.0)
    coeffs = get_coefficients("sublinear", cfg)
    cloud = gaussian_history_cloud(cfg, 512, seed=0, stream=9,
                                   mean=0.25, scale=0.25, rate=1.0)
    res_law = simulate_mckean(coeffs, cloud, 2.0, seed=0, stream=11)
    res_plain = simulate_paths(coeffs, SegmentBatch.from_cloud(cloud), 2.0,
                               seed=0, stream=11)
    agree = np.array_equal(res_law.endpoints, res_plain.endpoints)
    ok = ok and agree
    details.append(f"K1=0 law-vs-plain agreement: {'exact' if agree else 'BROKEN'}")

    elapsed = time.perf_counter() - t0
    announce(capsys, 7, "asymptotic log-Harnack validation", ok,
             "; ".join(details), elapsed, 1800.0)


def test_criterion_8_w2_growth(capsys):
    t0 = time.perf_counter()
    config = base_config(**{"sim.T": 8.0, "sim.N_particles": 256})
    report = run_w2_growth(config)
    ok = report.verdict == PASS
    elapsed = time.perf_counter() - t0
    announce(capsys, 8, "Wasserstein growth envelope", ok,
             f"c0 = {report.records['c0']:.3g} -> "
             f"{report.records['c0_doubled']:.3g} under N doubling",
             elapsed, 1800.0)


def test_criterion_9_gradient_estimate(capsys):
    t0 = time.perf_counter()
    config = base_config(**{"sim.T": 4.0, "sim.N_replicas": 8192})
    f1 = WeightedTestFunction.default(config.pathcfg, amplitude=1.0)
    rep1 = run_gradient_estimate(config, f=f1)
    f2 = WeightedTestFunction.default(config.pathcfg, amplitude=0.5, rate=1.0)
    rep2 = run_gradient_estimate(
        config, f=f2,
        entropy_constant=rep1.records["entropy_constant"],
        decay_prefactor=rep1.records["decay_prefactor"],
    )
    ok = rep1.verdict == PASS and rep2.verdict == PASS
    margins = [row[-1] for rep in (rep1, rep2) for row in rep.tables["gradient"][1]]
    elapsed = time.perf_counter() - t0
    announce(capsys, 9, "gradient estimate margins", ok,
             f"min margin {min(margins):.4g} over two test functions",
             elapsed, 600.0)
