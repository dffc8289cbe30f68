import dataclasses
import math

import numpy as np
import pytest

from pathcouple.coefficients import (
    CoefficientSet,
    DiniModulus,
    get_coefficients,
    grid_decay_constant,
    validate_H,
)
from pathcouple.errors import (
    ConfigurationError,
    InvalidCoefficientError,
    NotDiniError,
)
from pathcouple.pathspace import ParticleCloud, PathSegment, PathSpaceConfig

CFG = PathSpaceConfig(d=1, tau=1.0, h=0.05, T_mem=2.0)
CFG2 = PathSpaceConfig(d=2, tau=1.0, h=0.05, T_mem=2.0)


class TestDiniModulus:
    def test_log_q1_diverges(self):
        # (log(e + 1/s))^{-1}/s is not integrable at 0: no modulus is built
        with pytest.raises(NotDiniError):
            DiniModulus("log", C=1.0, q=1.0)

    def test_shape_check(self):
        DiniModulus("power", C=1.0, beta=0.5).check_shape()  # no raise
        with pytest.raises(NotDiniError):  # decreasing modulus rejected
            DiniModulus("power", C=-1.0)
        with pytest.raises(NotDiniError):  # log modulus not concave for large q
            DiniModulus("log", q=4.0)


class TestGallery:
    @pytest.mark.parametrize("name", ["linear", "sublinear", "dini_sqrt", "dini_log", "zero"])
    def test_validator_passes(self, name):
        coeffs = get_coefficients(name, CFG)
        report = validate_H(coeffs, sample_budget=48, rng_seed=0)
        assert report.passed, report.failures()

    def test_dini_sqrt_example(self):
        coeffs = get_coefficients("dini_sqrt", CFG2)
        out = coeffs.eval_b0(np.array([0.25, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.0])
        # saturates at 1
        out = coeffs.eval_b0(np.array([9.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_declared_constant_violation_detected(self):
        coeffs = get_coefficients("linear", CFG)
        import dataclasses

        bad = dataclasses.replace(coeffs, K=coeffs.K / 10)
        report = validate_H(bad, sample_budget=48, rng_seed=0)
        assert not report.passed

    def test_sigma_zero_fails_ellipticity(self):
        coeffs = get_coefficients("linear", CFG)
        import dataclasses

        bad = dataclasses.replace(
            coeffs, sigma=lambda x: np.zeros(x.shape + (1,))
        )
        report = validate_H(bad, sample_budget=16, rng_seed=0)
        assert "H1_ellipticity" in report.failures()

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_coefficients("nope", CFG)


def drift(coeffs, seg, law=None):
    """Full drift b0(xi(0)) + b1(xi, mu) of the equation."""
    return coeffs.eval_b0(seg.endpoint()) + coeffs.eval_b1(seg, law)


class TestEvalDrift:
    def test_zero_drift(self):
        coeffs = get_coefficients("zero", CFG)
        seg = PathSegment.constant(CFG, [1.0])
        np.testing.assert_allclose(drift(coeffs, seg), [0.0])

    def test_linear_law_term(self):
        coeffs = get_coefficients("linear", CFG)
        seg = PathSegment.zero(CFG)
        law = ParticleCloud.point_mass(PathSegment.constant(CFG, [2.0]), 4)
        out = drift(coeffs, seg, law)
        np.testing.assert_allclose(out, [coeffs.K1 * 2.0])

    def test_drift_bounded_by_declared_growth(self):
        # |b(xi, mu)| <= K (1 + ||xi||^alpha) + K1 ||mu||_2 on random inputs
        rng = np.random.default_rng(0)
        for name in ("linear", "sublinear", "dini_sqrt", "dini_log"):
            coeffs = get_coefficients(name, CFG)
            for _ in range(25):
                vals = np.cumsum(rng.standard_normal((CFG.n_points, 1)), axis=0) * 0.3
                seg = PathSegment(CFG, vals)
                from pathcouple.pathspace import weighted_norm

                bound = coeffs.K * (1 + weighted_norm(seg) ** coeffs.alpha)
                assert np.linalg.norm(drift(coeffs, seg)) <= bound + 1e-9

    def test_non_finite_rejected(self):
        coeffs = CoefficientSet(
            name="bad",
            pathcfg=CFG,
            K=2.0,
            K1=0.0,
            alpha=0.0,
            phi=DiniModulus("power"),
            b0=lambda x: x * np.nan,
            b0_bound=1.0,
        )
        with pytest.raises(InvalidCoefficientError):
            coeffs.eval_b0(np.array([1.0]))


def _eval_returning(term, entries):
    """eval_<term> of a set whose ``term`` returns ones in its output shape at
    four 2-D points, ending in ``entries``."""
    x = np.zeros((4, 2))
    shape = x.shape + ((2,) if term == "sigma" else ())

    def coefficient(*_):
        out = np.ones(shape)
        out.flat[-len(entries):] = entries
        return out

    coeffs = dataclasses.replace(get_coefficients("zero", CFG2), **{term: coefficient})
    if term == "b1":
        return coeffs.eval_b1(PathSegment.zero(CFG2), None)
    return getattr(coeffs, f"eval_{term}")(x)


class TestFiniteOutputs:
    """b0, b1 and sigma outputs pass only when every entry is finite; the suite turns
    a RuntimeWarning into an error, so these also show the check warns of nothing."""

    TERMS = pytest.mark.parametrize("term", ["b0", "b1", "sigma"])

    @TERMS
    @pytest.mark.parametrize("entries", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                             ids=["nan", "+inf", "-inf", "+inf and -inf"])
    def test_non_finite_rejected(self, term, entries):
        with pytest.raises(InvalidCoefficientError):
            _eval_returning(term, entries)

    @TERMS
    def test_finite_output_whose_sum_overflows_accepted(self, term):
        out = _eval_returning(term, [1e308, 1e308])  # their sum and their squares overflow
        assert np.array_equal(out.flat[-2:], [1e308, 1e308])


def test_grid_decay_constant_close_to_integral():
    # h sum e^{rate s_i} is the left-endpoint quadrature of 1/rate (up to the
    # truncated tail) and converges to it as h -> 0.
    fine = PathSpaceConfig(d=1, tau=1.0, h=1e-3, T_mem=10.0)
    assert grid_decay_constant(fine, 2.0) == pytest.approx(0.5, rel=5e-3)
