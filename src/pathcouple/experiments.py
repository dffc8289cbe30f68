"""Experiment harness: every experiment, the config schema and the verdict rule.

Each run_<name>(config) executes one audit (validate, zvonkin) or one
verifiable statement (coupling decay, relative-entropy boundedness,
asymptotic log-Harnack, Wasserstein growth, gradient estimate), fits the
empirical constants the statement asserts to exist, and returns a Report with
PASS/FAIL/INCONCLUSIVE checks plus every quantity needed to reproduce it.
Each simulator has one call site: decay and entropy read the config's cached
coupled run, growth one stacked McKean run, and alh and gradient `_crn_log_f`,
which runs pair i's X and Y on one stream (100 + 2i for alh, 500 for gradient).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import zvonkin
from .coefficients import CoefficientSet, check_builtin_name, get_coefficients, validate_H
from .errors import ConfigurationError
from .laws import _OVERFLOW_LOG, comonotone_pair, exp_norm_moment
from .pathspace import (
    ParticleCloud,
    PathSegment,
    PathSpaceConfig,
    SegmentBatch,
    truncation_bound,
    weighted_norm,
)
from .simulate import simulate_coupled_Q, simulate_mckean, simulate_paths
from .wasserstein import wk_full

__all__ = [
    "EXIT_CODES",
    "ExperimentConfig",
    "Report",
    "TestFunction",
    "fit_line",
    "parse_config",
    "run_alh",
    "run_decay",
    "run_entropy",
    "run_gradient_estimate",
    "run_validate",
    "run_w2_growth",
    "run_zvonkin",
    "smallest_envelope_c0",
    "worst_verdict",
]

PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"
EXIT_CODES = {PASS: 0, FAIL: 3, INCONCLUSIVE: 4}


def worst_verdict(verdicts) -> str:
    """FAIL if any verdict fails, else INCONCLUSIVE if any is, else PASS."""
    verdicts = set(verdicts)
    return FAIL if FAIL in verdicts else INCONCLUSIVE if INCONCLUSIVE in verdicts else PASS


# ---------------------------------------------------------------------------
# Configuration


# Dotted config key -> (ExperimentConfig or PathSpaceConfig field, type, default).
_KEYS = {
    "path.d": ("d", int, 1),
    "path.tau": ("tau", float, 1.0),
    "path.T_mem": ("T_mem", float, 10.0),
    "sim.h": ("h", float, 0.01),
    "coefficients.name": ("coefficients_name", str, "linear"),
    "sim.T": ("T", float, 8.0),
    "sim.N_particles": ("N_particles", int, 256),
    "sim.N_replicas": ("N_replicas", int, 4096),
    "sim.kappa": ("kappa", float, 4.0),
    "sim.seed": ("seed", int, 0),
    "sim.tau0": ("tau0", float, 0.5),
    "experiment.delta": ("delta", float, 0.5),
    "experiment.separation": ("separation", float, 1.0),
    "testfn.amplitude": ("testfn_amplitude", float, 1.0),
    "output.dir": ("output_dir", str, "."),
}
_PATH_FIELDS = ("d", "tau", "h", "T_mem")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; see parse_config for the file format.

    One file serves every experiment, so it must be valid for all of them."""

    pathcfg: PathSpaceConfig
    coefficients_name: str
    T: float
    N_particles: int
    N_replicas: int
    kappa: float
    seed: int
    tau0: float
    delta: float
    separation: float
    testfn_amplitude: float
    output_dir: str

    def __post_init__(self):
        if not 0 < self.tau0 < self.pathcfg.tau:
            raise ConfigurationError(
                f"tau0={self.tau0} must lie in (0, tau={self.pathcfg.tau})"
            )
        if not 0 < self.delta < 1:
            raise ConfigurationError(f"delta={self.delta} must lie in (0, 1)")
        if self.N_particles < 1 or self.N_replicas < 2:
            raise ConfigurationError("need N_particles >= 1 and N_replicas >= 2 (standard errors)")
        if not self.separation > 0:
            raise ConfigurationError(f"separation={self.separation} must be positive")
        s = self.separation
        for a, b in [*_coupled_pairs(self), *_alh_pairs(self)]:
            if a == b:  # a zero start distance makes the fitted constants 0 / 0
                raise ConfigurationError(
                    f"separation={s} collapses the start pair ({a}, {b}) in floating point")
        if not 0 <= self.seed < 2**63:  # Philox's key goes through int64
            raise ConfigurationError(f"sim.seed={self.seed} must lie in [0, 2**63)")
        if self.kappa <= self.pathcfg.tau:
            raise ConfigurationError(f"kappa={self.kappa} must exceed tau={self.pathcfg.tau}")
        first = min(_ALH_TIMES[0], _GRADIENT_TIMES[0])
        if self.T < first - 1e-9:
            raise ConfigurationError(f"sim.T={self.T} is below the first check time {first}")
        h = self.pathcfg.h
        for t in (self.T, *_times_within(_ALH_TIMES + _GRADIENT_TIMES, self)):
            if abs(round(t / h) * h - t) > 1e-9:
                raise ConfigurationError(f"sim.T or check time {t} is not a multiple of h={h}")
        if self.kappa * h >= 1:  # the coupled step multiplies X - Y by 1 - kappa h
            raise ConfigurationError(f"kappa * h = {self.kappa * h:g} must be below 1")
        if 2 * abs(self.testfn_amplitude) + math.log(self.N_replicas) > _OVERFLOW_LOG:
            raise ConfigurationError(f"testfn.amplitude={self.testfn_amplitude}: the sum of f^2 "
                                     f"over {self.N_replicas} replicas would overflow")
        check_builtin_name(self.coefficients_name)  # fails at parse time, not at the first run
        if self.N_particles < 2 or self.pathcfg.d > 1:
            coeffs = self.coefficients()  # built once, and only when a check reads it
            if self.N_particles < 2 and coeffs.K1 > 0:
                raise ConfigurationError("mean-field simulation needs at least 2 particles per block")
            if self.pathcfg.d > 1 and coeffs.b0 is not None:
                # Raised again by the resolvent solve; checked here so `all` fails before any run.
                raise ConfigurationError(
                    f"Dini drifts run at d = 1 only, got path.d = {self.pathcfg.d}")

    def coefficients(self) -> CoefficientSet:
        return get_coefficients(self.coefficients_name, self.pathcfg)

    @cached_property
    def _effective(self):
        """(transformed coefficients, the lambda sweep's map) for a Dini drift,
        else (raw coefficients, None); solved once per config."""
        coeffs = self.coefficients()
        if coeffs.b0 is None:
            return coeffs, None
        L = float(math.ceil(12.0 + self.T))
        zmap = zvonkin.select_lambda(coeffs, zvonkin.EllipticGrid(L, 1e-3),
                                     zvonkin.default_lambda_grid(coeffs))
        return zvonkin.transformed_coeffs(zmap, coeffs), zmap

    def effective_coefficients(self):
        """(coeffs, zvonkin_map_or_None): one shared pair per config."""
        return self._effective

    @cached_property
    def _coupled(self):
        """(run, R_c): decay's pair on stream 1 and entropy's six on streams 10-15,
        stacked in one coupled run of R_c = max(N_replicas // 8, 64) replicas per
        pair; run once per config.  Pair p holds rows [p R_c, (p + 1) R_c)."""
        R = max(self.N_replicas // 8, 64)
        xis, etas = zip(*(_pair_segments(self, a, b) for a, b in _coupled_pairs(self)))
        run = simulate_coupled_Q(self._effective[0], xis, etas, self.kappa, self.T, seed=self.seed,
                                 stream=[1, *range(10, 9 + len(xis))], n_replicas=R * len(xis),
                                 save_times=_save_grid(self, 32))
        return run, R


def parse_config(source) -> ExperimentConfig:
    """Parse a flat key=value config (dotted sections, '#' comments).

    ``source`` is a path or a text blob containing at least one '='; a string
    that names an existing file is read as one, even if it contains '='.  Values
    that fail to convert to their key's type or are not finite are rejected.
    """
    text = str(source)
    if os.path.exists(text) or "=" not in text:  # os.path.exists never raises
        try:
            text = Path(text).read_text()
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {text}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {text}: {exc}") from None
    values = {name: default for name, _, default in _KEYS.values()}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigurationError(f"unknown config key {key!r} (line {lineno})")
        name, kind, _ = _KEYS[key]
        try:
            value = kind(val)
            finite = kind is not float or math.isfinite(value)  # an int of any size is finite
        except ValueError:
            finite = False
        if not finite:
            raise ConfigurationError(
                f"{key} = {val!r} is not a finite {kind.__name__} (line {lineno})")
        values[name] = value
    pathcfg = PathSpaceConfig(**{name: values.pop(name) for name in _PATH_FIELDS})
    return ExperimentConfig(pathcfg=pathcfg, **values)


# ---------------------------------------------------------------------------
# Test functions


@dataclass(frozen=True)
class TestFunction:
    """f(xi) = exp(A tanh <w, xi>), <w, xi> = h sum_i e^{rate s_i} xi_1(s_i) read
    from `exp_weighted_integral(rate)`: a batch's running sum, which a drift may share.

    Bounded, strictly positive, with log f Lipschitz in the weighted path norm
    with constant ``lip``: |tanh a - tanh b| <= |a - b| and
    |<w, xi - eta>| <= h sum_i e^{rate s_i} e^{-tau s_i} ||xi - eta||_tau.
    """

    cfg: PathSpaceConfig
    amplitude: float
    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.rate)
                and -self.rate * self.cfg.T_mem <= _OVERFLOW_LOG):
            raise ConfigurationError("a test function needs a finite amplitude and a rate whose "
                                     f"weights do not overflow, got {self.amplitude}, {self.rate}")

    @classmethod
    def default(cls, cfg: PathSpaceConfig, amplitude: float = 1.0, rate: Optional[float] = None):
        return cls(cfg, float(amplitude), 2.0 * cfg.tau if rate is None else float(rate))

    def inner(self, seg) -> np.ndarray:
        """<w, xi> of a PathSegment, or per row of a SegmentBatch."""
        return seg.exp_weighted_integral(self.rate)[..., 0]

    def log_f(self, seg) -> np.ndarray:
        return self.amplitude * np.tanh(self.inner(seg))

    def f(self, seg) -> np.ndarray:
        return np.exp(self.log_f(seg))

    @property
    def f_sup(self) -> float:
        return math.exp(abs(self.amplitude))

    @property
    def lip(self) -> float:
        """Declared Lipschitz constant of log f in the weighted path norm."""
        w = np.exp(self.rate * self.cfg.s_grid) * np.exp(-self.cfg.tau * self.cfg.s_grid)
        return abs(self.amplitude) * float(self.cfg.h * w.sum())

    @property
    def grad_f_sup(self) -> float:
        return self.f_sup * self.lip


# ---------------------------------------------------------------------------
# Reports and fits


@dataclass
class Report:
    """Verdict container: named checks plus the numbers that justify them."""

    name: str
    checks: list = field(default_factory=list)  # (label, verdict, detail)
    records: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # name -> (header, rows)

    def add_check(self, label: str, verdict: str, detail: str = "") -> None:
        self.checks.append((label, verdict, detail))

    @property
    def verdict(self) -> str:
        return worst_verdict(v for _, v, _ in self.checks)

    def lines(self) -> list:
        out = [f"[{self.verdict}] {self.name}"]
        for label, verdict, detail in self.checks:
            out.append(f"  {verdict}: {label}" + (f" ({detail})" if detail else ""))
        for key in sorted(self.records):
            out.append(f"  record {key} = {self.records[key]}")
        return out


def _new_report(name: str, config: ExperimentConfig, coeffs: CoefficientSet,
                n_replicas: int) -> Report:
    """A report holding the records every simulation experiment shares, n_replicas per pair."""
    cfg = config.pathcfg
    return Report(name, records={
        "h": cfg.h,
        "truncation_bound": truncation_bound(cfg),
        "N_replicas": n_replicas,
        "N_particles": config.N_particles,
        "seed": config.seed,
        "kappa": config.kappa,
        "tau0": config.tau0,
        "coefficients": coeffs.name,
    })


def fit_line(x, y):
    """Least-squares line fit; returns (slope, intercept, slope_stderr)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ConfigurationError("need at least 3 points for a rate fit")
    A = np.column_stack([x, np.ones_like(x)])
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    dof = len(x) - 2
    ss = float(res[0]) if len(res) else float(np.sum((y - A @ coef) ** 2))
    cov00 = ss / dof * np.linalg.inv(A.T @ A)[0, 0]
    return float(coef[0]), float(coef[1]), math.sqrt(max(cov00, 0.0))


def _mc_stderr(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1) / math.sqrt(len(x)))


def _pair_segments(config: ExperimentConfig, a: float, b: float):
    e1 = np.eye(config.pathcfg.d)[0]
    return tuple(PathSegment.constant(config.pathcfg, v * e1) for v in (a, b))


def _save_grid(config: ExperimentConfig, n: int) -> np.ndarray:
    """n + 1 equally spaced save times on [0, T], rounded to the Euler grid."""
    h = config.pathcfg.h
    return np.round(np.linspace(0, config.T, n + 1) / h) * h


def _times_within(t_grid, config: ExperimentConfig) -> np.ndarray:
    """The check times up to sim.T; the config guarantees at least the first."""
    return np.array([t for t in t_grid if t <= config.T + 1e-9])


def _check_rate(report: Report, label: str, t, y, target: float):
    """Check the fitted slope of log y against t is at most target + 2 stderr."""
    rate, _, se = fit_line(t, np.log(y))
    report.add_check(label, PASS if rate <= target + 2 * se else FAIL,
                     f"rate {rate:.4f} +- {se:.4f} vs target {target:.4f}")
    return rate, se


# ---------------------------------------------------------------------------
# Hypotheses and the drift transform


def run_validate(config: ExperimentConfig) -> Report:
    """Sampled ratios of the coefficients against their declared constants."""
    coeffs = config.coefficients()
    result = validate_H(coeffs, sample_budget=64, rng_seed=config.seed)
    report = Report("hypothesis-validation")
    report.records.update(result.ratios)
    report.records["coefficients"] = coeffs.name
    if result.passed:
        report.add_check("declared hypothesis constants", PASS)
    else:
        for name in result.failures():
            report.add_check(f"hypothesis ratio {name}", FAIL,
                             f"ratio {result.ratios[name]:.4g} > 1")
    return report


def run_zvonkin(config: ExperimentConfig) -> Report:
    """The resolvent maximum principle of the chosen Zvonkin map (smallness holds by selection)."""
    report = Report("zvonkin-transform")
    coeffs = config.coefficients()
    if coeffs.b0 is None:
        report.add_check("transform", PASS, "no irregular drift: transform is trivial")
        return report
    _, zmap = config.effective_coefficients()
    report.records.update(
        {
            "lambda": zmap.lam,
            "u_inf": zmap.u_inf,
            "grad_inf": zmap.grad_inf,
            "hess_inf": zmap.hess_inf,
            "residual": zmap.residual,
            "coefficients": coeffs.name,
        }
    )
    bound = coeffs.b0_bound / zmap.lam + 10 * zmap.grid.dx**2
    report.add_check("resolvent maximum principle",
                     PASS if zmap.u_inf <= bound else FAIL,
                     f"||u|| = {zmap.u_inf:.4g} vs {bound:.4g}")
    return report


# ---------------------------------------------------------------------------
# Coupling decay


def run_decay(config: ExperimentConfig) -> Report:
    """Fit the decay rate of log E_Q ||X_t - Y_t||_tau^p against -p tau0, p = 1, 2, 4, and
    record Gamma_t's prefactor max_t E_Q ||X_t - Y_t||_tau e^{tau0 t} / separation.

    The pair (s/2, -s/2) is pair 0 of the config's shared coupled run: R_c =
    max(N_replicas // 8, 64) replicas on stream 1 (see `ExperimentConfig._coupled`).

    Beside each checked rate, ``endpoint_rate_p{p}`` records the fitted rate of
    E_Q |Z(t)|^p for the endpoint difference Z = X(t) - Y(t) (in transformed
    coordinates on a Dini drift), over the same times and with no check: the
    running norm keeps the e^{-tau t}-weighted initial separation, so its rate
    can read -p tau0 while the coupling itself contracts faster."""
    coeffs, zmap = config.effective_coefficients()
    run, R = config._coupled
    x_end, y_end, z_norms = (a[:, :R] for a in (run.x_end, run.y_end, run.z_norms))
    report = _new_report("coupling-decay", config, coeffs, R)
    if zmap is not None:
        report.records["zvonkin_lambda"] = zmap.lam
        # Saved endpoints whose preimage lies outside the box, where u is extended flat.
        ends = np.concatenate([x_end, y_end], axis=1)
        x = zvonkin.theta_inv(zmap, ends, extend=True)
        report.records["box_escape_fraction"] = float(
            np.mean(np.any(np.abs(x) > zmap.grid.L, axis=-1)))
    rows = []
    mask = run.times >= config.T / 4
    z_end = np.linalg.norm(x_end - y_end, axis=-1)  # |Z(t)|, (n_saves, R)
    t_fit = run.times[mask]
    tiny = np.finfo(float).tiny
    for p in (1, 2, 4):
        zp = z_norms**p
        m = zp.mean(axis=1)
        # Fits read only the times whose moment is a normal float: one that underflows
        # to 0 has no log, and a subnormal one has lost its relative precision.
        m_fit = m[mask]
        pos = m_fit >= tiny
        if np.count_nonzero(pos) >= 3:
            rate, se = _check_rate(report, f"decay rate p={p}", t_fit[pos], m_fit[pos],
                                   -p * config.tau0)
        else:
            rate = se = math.nan
            report.add_check(f"decay rate p={p}", INCONCLUSIVE,
                             f"the moment underflows below the smallest normal float at "
                             f"{np.count_nonzero(~pos)} of {len(pos)} fit times")
        report.records[f"rate_p{p}"] = rate
        report.records[f"rate_stderr_p{p}"] = se
        ends = (z_end[mask] ** p).mean(axis=1)
        pos = ends >= tiny
        report.records[f"endpoint_rate_p{p}"] = (
            fit_line(t_fit[pos], np.log(ends[pos]))[0] if np.count_nonzero(pos) >= 3 else math.nan)
        if p == 1:
            report.records["decay_prefactor"] = float(
                np.max(m * np.exp(config.tau0 * run.times)) / config.separation)
        for t, mm, ss in zip(run.times, m, zp.std(axis=1, ddof=1) / math.sqrt(R)):
            rows.append([t, p, mm, ss])
    report.tables["decay"] = (["t", "p", "mean_znorm_p", "stderr"], rows)
    return report


# ---------------------------------------------------------------------------
# Relative entropy


def _coupled_pairs(config: ExperimentConfig):
    """Start values of the shared coupled run's pairs: decay's, then entropy's six."""
    s = config.separation
    return [
        (s / 2, -s / 2), (0.0, s), (0.0, s / 2), (0.25, 0.25 + s),
        (-0.25, -0.25 + s / 2), (0.5, 0.5 - s), (-0.5, -0.5 + s),
    ]


def run_entropy(config: ExperimentConfig) -> Report:
    """Boundedness in t of H(t) = E_Q[1/2 int |gamma|^2] and the entropy fit.

    Fits the smallest c with H(T) <= c e^{delta ||eta||^{2 alpha}} ||xi-eta||^2
    over the pair grid, read from pairs 1-6 of the config's shared coupled run.
    """
    coeffs, _ = config.effective_coefficients()
    run, R = config._coupled
    report = _new_report("relative-entropy", config, coeffs, R)
    c_fit = 0.0
    rows = []
    segs = [_pair_segments(config, a, b) for a, b in _coupled_pairs(config)[1:]]
    half_g2 = run.half_int_gamma_sq.reshape(len(run.times), len(segs) + 1, R)[:, 1:]
    for i, (xi, eta) in enumerate(segs):
        H = half_g2[:, i].mean(axis=1)
        se = half_g2[:, i].std(axis=1, ddof=1) / math.sqrt(R)
        half = int(np.argmin(np.abs(run.times - config.T / 2)))
        plateau_gap = H[-1] - H[half]
        tol = 3 * math.hypot(se[-1], se[half]) + 0.05 * H[-1]
        verdict = PASS if plateau_gap <= tol else FAIL
        report.add_check(
            f"H(t) plateau pair {i}", verdict,
            f"H(T)-H(T/2) = {plateau_gap:.4g} vs {tol:.4g}",
        )
        dist = weighted_norm(xi - eta)
        if dist > 0:
            denom = math.exp(
                config.delta * weighted_norm(eta) ** (2 * coeffs.alpha)) * dist**2
            c_fit = max(c_fit, H[-1] / denom)
        for t, hh, ss in zip(run.times, H, se):
            rows.append([t, i, hh, ss])
    report.records["entropy_constant"] = c_fit
    report.tables["entropy"] = (["t", "pair", "H", "stderr"], rows)
    return report


# ---------------------------------------------------------------------------
# Asymptotic log-Harnack


def _alh_pairs(config: ExperimentConfig):
    s = config.separation
    bases = [0.0, 0.25, -0.25, 0.5, -0.5, 0.125]
    seps = [s, s / 2, s / 4]
    pairs = [(a, a + seps[i % 3]) for i, a in enumerate(bases)]
    pairs += [(a, a - seps[(i + 1) % 3]) for i, a in enumerate(bases)]
    return pairs


_ALH_TIMES = (1.0, 2.0, 4.0, 8.0)
_CRN_BATCH_ROWS = 2048  # rows up to which pairs stack in one batch; a larger pair runs alone


def _crn_groups(n_pairs: int, n_replicas: int) -> list:
    """Consecutive pair indices per stacked run: the fewest runs of at most
    ``_CRN_BATCH_ROWS`` rows (2 n_replicas per pair), split as evenly as possible."""
    per_run = max(1, _CRN_BATCH_ROWS // (2 * n_replicas))
    n_runs = -(-n_pairs // per_run)
    cuts = [n_pairs * k // n_runs for k in range(n_runs + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def _crn_log_f(config: ExperimentConfig, coeffs: CoefficientSet, f: TestFunction,
               segs: list, streams: list, t_grid: np.ndarray) -> np.ndarray:
    """log f of X and of Y, (pairs, check times, 2, N_replicas), for the (xi, eta)
    pairs in ``segs``: alh's and gradient's common-random-numbers run.

    Pair i runs X from xi and Y from eta on the one stream ``streams[i]``, listed
    twice and drawn once, so replica r of X and of Y share their noise.  Pairs
    stack in batches of at most ``_CRN_BATCH_ROWS`` rows (``_crn_groups``): numpy's
    per-call overhead dominates small batches, and the cap bounds the history
    window's memory.  A save keeps log f, read from the running history integral."""
    R = config.N_replicas
    out = np.empty((len(segs), len(t_grid), 2, R))
    for group in _crn_groups(len(segs), R):
        res = simulate_paths(
            coeffs, SegmentBatch.from_segments([seg for i in group for seg in segs[i]], R),
            max(t_grid), seed=config.seed, stream=[streams[i] for i in group for _ in ("X", "Y")],
            save_times=t_grid, save=f.log_f)
        for j, log_f in enumerate(res.clouds):
            out[group, j] = log_f.reshape(len(group), 2, R)
    return out


def _alh_sides(config: ExperimentConfig, coeffs: CoefficientSet, f: TestFunction,
               segs: list) -> tuple:
    """P_t log f(eta), log P_t f(xi) and the stderr of their difference, each of
    shape (pairs, check times), for the (xi, eta) pairs in ``segs``.

    Pair i runs on stream 100 + 2i of ``_crn_log_f``.  Replica r of X and of Y
    share their noise, so the two sides are correlated and the stderr is the
    joint delta-method one, sd(log f(Y) - f(X) / mean f(X)) / sqrt(R), which
    carries their covariance.
    """
    t_grid = _times_within(_ALH_TIMES, config)
    log_f = _crn_log_f(config, coeffs, f, segs, [100 + 2 * i for i in range(len(segs))], t_grid)
    lhs, rhs0, se = (np.zeros(log_f.shape[:2]) for _ in range(3))
    for i, j in np.ndindex(lhs.shape):
        lx, ly = log_f[i, j]
        fx = np.exp(lx)
        mean_fx = fx.mean()
        lhs[i, j], rhs0[i, j] = ly.mean(), math.log(mean_fx)
        se[i, j] = _mc_stderr(ly - fx / mean_fx)
    return lhs, rhs0, se


def _bound_verdict(margin: float, noisy: bool) -> str:
    """PASS when margin >= 0, else INCONCLUSIVE when the estimate is noisy, else FAIL."""
    return PASS if margin >= 0 else INCONCLUSIVE if noisy else FAIL


def run_alh(config: ExperimentConfig, f: Optional[TestFunction] = None) -> Report:
    """Check the asymptotic log-Harnack shape

        P_t log f(eta) <= log P_t f(xi) + c dist^2 + c e^{-tau0 t} Lip(f) dist

    with one constant c fitted on training pairs and validated on held-out
    pairs, plus exponential decay of the t-dependent excess.
    """
    cfg = config.pathcfg
    coeffs, _ = config.effective_coefficients()
    if f is None:
        f = TestFunction.default(cfg, config.testfn_amplitude)
    t_grid = _times_within(_ALH_TIMES, config)
    report = _new_report("asymptotic-log-harnack", config, coeffs, config.N_replicas)
    report.records["lip_logf"] = f.lip

    segs = [_pair_segments(config, a, b) for a, b in _alh_pairs(config)]
    n_train = len(segs) // 2
    dists = np.array([weighted_norm(xi - eta) for xi, eta in segs])

    # D[i, j]: defect at pair i, time t_grid[j]; se_D its joint stderr.
    lhs, rhs0, se_D = _alh_sides(config, coeffs, f, segs)
    D = lhs - rhs0
    rows = [[t, i, lhs[i, j], rhs0[i, j], D[i, j], se_D[i, j], dists[i]]
            for i in range(len(segs)) for j, t in enumerate(t_grid)]
    report.tables["alh"] = (
        ["t", "pair", "lhs_Pt_logf", "rhs_log_Ptf", "defect", "stderr", "dist"], rows)

    denom = dists[:, None] ** 2 + np.exp(-config.tau0 * t_grid)[None, :] * f.lip * dists[:, None]
    c_fit = float(np.max(np.maximum(D[:n_train], 0.0) / denom[:n_train]))
    report.records["fitted_c"] = c_fit

    noisy = se_D > 0.1 * np.maximum(np.abs(D), 1e-12)
    for i in range(n_train, len(segs)):
        for j, t in enumerate(t_grid):
            slack = c_fit * denom[i, j] + 3 * se_D[i, j] - D[i, j]
            report.add_check(
                f"held-out pair {i} t={t}", _bound_verdict(slack, noisy[i, j]),
                f"defect {D[i, j]:.4g} vs bound {c_fit * denom[i, j]:.4g} "
                f"+- {3 * se_D[i, j]:.2g}",
            )

    # Decay of the excess over the t-independent part of the bound.
    excess = D - c_fit * dists[:, None] ** 2
    pooled = excess.max(axis=0)
    positive = pooled > 1e-12
    if positive.sum() >= 3:
        rate, se = _check_rate(report, "excess decay rate", t_grid[positive],
                               pooled[positive], -config.tau0)
        report.records["excess_rate"] = rate
        report.records["excess_rate_stderr"] = se
    else:
        report.add_check(
            "excess decay rate", PASS,
            "degenerate pass: excess nonpositive at nearly all times",
        )
    return report


# ---------------------------------------------------------------------------
# Wasserstein growth


def smallest_envelope_c0(times, w2, w0):
    """Minimal c0 > 0 with w2(t) <= c0 e^{c0 t} w0 for all t.

    Time t asks log c + c t >= l = log(w2(t) / w0) - 1e-12, whose least root is
    c = W(t e^l) / t, W the principal Lambert W branch (e^l at t = 0); c0 is the
    largest root.  An overflowing e^l leaves no finite envelope.
    """
    from scipy.special import lambertw

    times = np.asarray(times, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w0 <= 0:
        if np.max(w2) <= 0:
            return 0.0
        raise ConfigurationError("initial distance is zero but W2(t) > 0")
    with np.errstate(over="ignore"):
        c = np.exp(np.log(np.maximum(w2, 1e-300)) - math.log(w0) - 1e-12)
    later = times > 0
    c[later] = lambertw(times[later] * c[later]).real / times[later]
    c0 = float(np.max(c))
    if not math.isfinite(c0):
        raise ConfigurationError("no finite exponential envelope found")
    return c0


def _growth_w2_curves(config, coeffs, n, seed_streams, save_times):
    """Initial (mu, nu) pairs and W2 curves of independent pairs of mean-field flows.

    Pair p starts from `comonotone_pair` on seed_streams[p], and its mu and nu
    flows run on streams seed_streams[p] + 1 and + 2.  Every flow is a block of
    n rows of one stacked McKean run, so each sees only its own law.
    """
    cfg = config.pathcfg
    starts = [comonotone_pair(cfg, n, config.seed, stream=s, mean_a=0.0,
                              mean_b=config.separation, scale_a=1.0, scale_b=0.75)
              for s in seed_streams]
    init = ParticleCloud(cfg, np.concatenate([c.values for pair in starts for c in pair]))
    res = simulate_mckean(coeffs, init, config.T, seed=config.seed,
                          stream=[s + k for s in seed_streams for k in (1, 2)],
                          save_times=save_times)
    w2 = np.zeros((len(seed_streams), len(save_times)))
    for j, t in enumerate(save_times):
        values = res.cloud_at(t).values
        for p in range(len(seed_streams)):
            mu = ParticleCloud(cfg, values[2 * p * n:(2 * p + 1) * n])
            nu = ParticleCloud(cfg, values[(2 * p + 1) * n:(2 * p + 2) * n])
            w2[p, j] = wk_full(mu, nu, k=2)
    return starts, w2


def _epsilon(alpha: float) -> float:
    """Extra moment of the initial distance W_{2+eps} paying for the nonlinearity."""
    return 0.0 if alpha == 0 else 1.0


def run_w2_growth(config: ExperimentConfig) -> Report:
    """Exponential growth envelope for W2 between two mean-field flows."""
    coeffs = config.coefficients()
    report = _new_report("wasserstein-growth", config, coeffs, config.N_replicas)
    eps = _epsilon(coeffs.alpha)
    save_times = _save_grid(config, 16)

    n = config.N_particles
    # Curve 300 is the split-half twin of curve 200; both run in one stack.
    starts, (w2, w2_b) = _growth_w2_curves(config, coeffs, n, (200, 300), save_times)
    mu0, nu0 = starts[0]
    w0 = wk_full(mu0, nu0, k=2 + eps)
    for cloud, tag in ((mu0, "mu"), (nu0, "nu")):
        est, flagged = exp_norm_moment(cloud, config.delta, 2 * coeffs.alpha)
        report.records[f"exp_moment_{tag}"] = est
        if flagged:
            report.add_check(f"exponential moment of {tag}", INCONCLUSIVE,
                             "within 10x of overflow")
    # Split-half stderr proxy for the W2 estimates.
    se = np.abs(w2 - w2_b) / 2.0

    c0 = smallest_envelope_c0(save_times, np.maximum(w2 - 3 * se, 0.0), w0)
    report.records["c0"] = c0
    report.records["w_init"] = w0

    [(mu0d, nu0d)], (w2d,) = _growth_w2_curves(config, coeffs, 2 * n, (400,), save_times)
    w0d = wk_full(mu0d, nu0d, k=2 + eps)
    c0d = smallest_envelope_c0(save_times, w2d, w0d)
    report.records["c0_doubled"] = c0d
    change = abs(c0d - c0) / c0 if c0 > 0 else 0.0
    report.add_check("c0 stability under N doubling",
                     PASS if change < 0.25 else FAIL,
                     f"{c0:.4g} -> {c0d:.4g} ({100 * change:.1f}%)")
    rows = [[t, a, b, s] for t, a, b, s in zip(save_times, w2, w2d, se)]
    report.tables["growth"] = (["t", "w2", "w2_doubled_N", "stderr"], rows)
    return report


# ---------------------------------------------------------------------------
# Gradient estimate


_GRADIENT_TIMES = (1.0, 2.0, 4.0)


def run_gradient_estimate(
    config: ExperimentConfig,
    f: Optional[TestFunction] = None,
    entropy_constant: Optional[float] = None,
    decay_prefactor: Optional[float] = None,
) -> Report:
    """Asymptotic strong Feller check: for small ||xi - eta||,

        |P_t f(xi) - P_t f(eta)| / ||xi - eta||
            <= sqrt(2 Lambda) sqrt(P_t f^2 - (P_t f)^2) + ||grad f|| Gamma_t

    with Lambda from the entropy fit and Gamma_t = c e^{-tau0 t} from the
    decay fit of the same configuration.
    """
    cfg = config.pathcfg
    coeffs, _ = config.effective_coefficients()
    if f is None:
        f = TestFunction.default(cfg, config.testfn_amplitude)
    report = _new_report("gradient-estimate", config, coeffs, config.N_replicas)

    if entropy_constant is None:
        entropy_constant = run_entropy(config).records["entropy_constant"]
    if decay_prefactor is None:
        decay_prefactor = run_decay(config).records["decay_prefactor"]
    report.records["entropy_constant"] = entropy_constant
    report.records["decay_prefactor"] = decay_prefactor

    sep = 0.125
    xi, eta = _pair_segments(config, 0.25, 0.25 + sep)
    dist = weighted_norm(xi - eta)
    t_grid = _times_within(_GRADIENT_TIMES, config)
    (log_f,) = _crn_log_f(config, coeffs, f, [(xi, eta)], [500], t_grid)
    lam = entropy_constant * math.exp(
        config.delta * weighted_norm(xi) ** (2 * coeffs.alpha))
    rows = []
    for t, (lx, ly) in zip(t_grid, log_f):
        fx, fy = np.exp(lx), np.exp(ly)
        diff = fx - fy
        quot = abs(diff.mean()) / dist
        quot_se = _mc_stderr(diff) / dist
        var = max(float(fx.var(ddof=1)), 0.0)
        gamma_t = decay_prefactor * math.exp(-config.tau0 * t)
        rhs = math.sqrt(2 * lam) * math.sqrt(var) + f.grad_f_sup * gamma_t
        margin = rhs - quot
        report.add_check(f"gradient bound t={t}", _bound_verdict(margin, quot_se > 0.5 * quot),
                         f"quotient {quot:.4g} +- {quot_se:.2g} vs rhs {rhs:.4g}")
        rows.append([t, quot, quot_se, rhs, margin])
    report.tables["gradient"] = (
        ["t", "difference_quotient", "stderr", "bound", "margin"], rows)
    return report
