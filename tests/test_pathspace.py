import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcouple.errors import ConfigurationError, InvalidCloudError, InvalidSegmentError
from pathcouple.pathspace import (
    ParticleCloud,
    PathSegment,
    PathSpaceConfig,
    SegmentBatch,
    advance,
    check_history_inequality,
    flat_extension,
    truncated_norm,
    truncation_bound,
    weighted_norm,
)

CFG = PathSpaceConfig(d=2, tau=1.0, h=0.05, T_mem=2.0)


def random_segment(rng, cfg=CFG, scale=1.0):
    vals = np.cumsum(rng.standard_normal((cfg.n_points, cfg.d)), axis=0)
    return PathSegment(cfg, scale * vals / np.sqrt(cfg.n_points))


class TestConfig:
    def test_grid(self):
        assert CFG.n_points == 41
        assert CFG.s_grid[0] == pytest.approx(-2.0)
        assert CFG.s_grid[-1] == 0.0
        np.testing.assert_allclose(CFG.weights, np.exp(CFG.tau * CFG.s_grid))

    def test_bad_config(self):
        with pytest.raises(Exception):
            PathSpaceConfig(d=0, tau=1.0, h=0.05, T_mem=2.0)
        with pytest.raises(Exception):
            PathSpaceConfig(d=1, tau=-1.0, h=0.05, T_mem=2.0)
        with pytest.raises(Exception):
            PathSpaceConfig(d=1, tau=1.0, h=0.3, T_mem=1.0)  # not a divisor

    def test_truncation_bound(self):
        assert truncation_bound(CFG) == pytest.approx(np.exp(-2.0))
        assert truncation_bound(CFG, 3.0) == pytest.approx(3 * np.exp(-2.0))


class TestNorm:
    def test_zero(self):
        assert weighted_norm(PathSegment.zero(CFG)) == 0.0

    def test_constant(self):
        seg = PathSegment.constant(CFG, np.array([3.0, 4.0]))
        assert weighted_norm(seg) == pytest.approx(5.0)  # sup at s = 0

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            seg = random_segment(rng)
            c = rng.uniform(0.1, 5.0)
            assert weighted_norm(seg * c) == pytest.approx(c * weighted_norm(seg))

    def test_triangle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = random_segment(rng), random_segment(rng)
            assert weighted_norm(a + b) <= weighted_norm(a) + weighted_norm(b) + 1e-12

    def test_truncation_monotone(self):
        rng = np.random.default_rng(2)
        seg = random_segment(rng)
        levels = [0.25, 0.5, 1.0, 1.5, 2.0]
        vals = [truncated_norm(seg, N) for N in levels]
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(weighted_norm(seg))

    @pytest.mark.parametrize("N, message", [
        (0.0, "need 0 < N <= T_mem"),
        (2.5, "need 0 < N <= T_mem"),
        (0.52, "not a multiple of h"),
    ], ids=["nonpositive", "beyond_window", "off_grid"])
    def test_truncation_horizon_rejected(self, N, message):
        with pytest.raises(ConfigurationError, match=message):
            truncated_norm(PathSegment.zero(CFG), N)

    def test_non_finite_rejected(self):
        vals = np.zeros((CFG.n_points, CFG.d))
        vals[3, 0] = np.nan
        with pytest.raises(InvalidSegmentError):
            weighted_norm(PathSegment(CFG, vals))


class TestSegment:
    def test_endpoint(self):
        seg = PathSegment(CFG, np.stack([CFG.s_grid, 2 * CFG.s_grid], axis=-1))
        np.testing.assert_allclose(seg.endpoint(), [0.0, 0.0])

    def test_advance_shifts(self):
        rng = np.random.default_rng(3)
        seg = random_segment(rng)
        new = np.array([1.0, -1.0])
        shifted = advance(seg, new)
        np.testing.assert_allclose(shifted.values[:-1], seg.values[1:])
        np.testing.assert_allclose(shifted.endpoint(), new)

    def test_flat_extension_norm(self):
        # Flat extension pins the far past at the oldest value: norm can only
        # grow by the weighted contribution of that value.
        rng = np.random.default_rng(4)
        seg = random_segment(rng)
        ext = flat_extension(seg)
        assert weighted_norm(ext) + 1e-12 >= weighted_norm(seg)

    def test_exp_weighted_integral(self):
        seg = PathSegment.constant(CFG, np.array([1.0, 0.0]))
        got = seg.exp_weighted_integral(CFG.tau)
        expect = CFG.h * np.exp(CFG.tau * CFG.s_grid).sum()
        assert got[0] == pytest.approx(expect)
        assert got[1] == 0.0

    def test_values_read_only(self):
        seg = PathSegment.zero(CFG)
        with pytest.raises(ValueError):
            seg.values[0, 0] = 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
def test_history_inequality_random(seed, p):
    # e^{p tau t} ||X_t||^p <= ||X_0||^p + max_s e^{p tau s} |X(s)|^p on
    # random piecewise-linear continuations.
    rng = np.random.default_rng(seed)
    seg = random_segment(rng)
    future = np.cumsum(rng.standard_normal((30, CFG.d)), axis=0) * 0.3
    assert check_history_inequality(seg, future, p)


class TestParticleCloud:
    def test_point_mass(self):
        seg = PathSegment.constant(CFG, np.array([1.0, 2.0]))
        cloud = ParticleCloud.point_mass(seg, 5)
        assert len(cloud) == 5
        np.testing.assert_allclose(cloud.mean_endpoint(), [1.0, 2.0])
        np.testing.assert_allclose(cloud.norms(), weighted_norm(seg))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        vals = np.zeros((3, CFG.n_points, CFG.d))
        vals[1, 7, 1] = bad
        with pytest.raises(InvalidCloudError, match="non-finite"):
            ParticleCloud(CFG, vals)


class TestSegmentBatch:
    def test_ring_buffer_matches_segments(self):
        rng = np.random.default_rng(5)
        segs = [random_segment(rng) for _ in range(4)]
        batch = SegmentBatch(CFG, np.stack([s.values for s in segs]))
        for _ in range(CFG.n_points + 3):  # wrap the ring around
            new = rng.standard_normal((4, CFG.d))
            batch.advance(new)
            segs = [advance(seg, x) for seg, x in zip(segs, new)]
        for i, seg in enumerate(segs):
            np.testing.assert_array_equal(batch.ordered_values()[i], seg.values)
            np.testing.assert_array_equal(batch.endpoint()[i], seg.endpoint())

    def test_advance_equals_segment_advance(self):
        rng = np.random.default_rng(6)
        seg = random_segment(rng)
        batch = SegmentBatch.from_segment(seg, 2)
        ref = seg
        for _ in range(7):
            new = rng.standard_normal(CFG.d)
            ref = advance(ref, new)
            batch.advance(np.stack([new, new]))
        np.testing.assert_allclose(batch.ordered_values()[0], ref.values)

    def test_exp_weighted_integral_matches(self):
        rng = np.random.default_rng(7)
        seg = random_segment(rng)
        batch = SegmentBatch.from_segment(seg, 1)
        batch.advance(np.array([[0.5, -0.5]]))
        np.testing.assert_allclose(
            batch.exp_weighted_integral(2.0)[0],
            advance(seg, [0.5, -0.5]).exp_weighted_integral(2.0),
        )

    @staticmethod
    def _summed_integral(batch, rate):
        cfg = batch.config
        w = np.exp(rate * cfg.s_grid)
        return cfg.h * np.einsum("j,rjd->rd", w, batch.ordered_values())

    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("d", [1, 2])
    def test_first_integral_from_the_starts(self, d, n):
        # A fresh from_segments batch sums over its 3 starts and repeats the sums to
        # their rows, with the bits of a batch built from the same window.
        cfg = PathSpaceConfig(d=d, tau=1.0, h=0.05, T_mem=2.0)
        rng = np.random.default_rng(20 + d)
        batch = SegmentBatch.from_segments([random_segment(rng, cfg) for _ in range(3)], n)
        ref = SegmentBatch(cfg, batch.ordered_values())
        for rate in (2.0, 0.5):
            got = batch.exp_weighted_integral(rate)
            assert np.array_equal(got, ref.exp_weighted_integral(rate))
            assert len(np.unique(got[:, 0])) == 3

    @pytest.mark.parametrize("d", [1, 2])
    def test_first_integral_after_advance_sums_the_window(self, d):
        cfg = PathSpaceConfig(d=d, tau=1.0, h=0.05, T_mem=2.0)
        rng = np.random.default_rng(30 + d)
        batch = SegmentBatch.from_segments([random_segment(rng, cfg) for _ in range(3)], 4)
        batch.exp_weighted_integral(2.0)
        batch.advance(rng.standard_normal((12, d)))
        ref = SegmentBatch(cfg, batch.ordered_values())
        assert np.array_equal(batch.exp_weighted_integral(0.5), ref.exp_weighted_integral(0.5))

    @pytest.mark.parametrize("d", [1, 2])
    def test_running_integral_after_ring_wraps(self, d):
        # A constructed batch and from_segments blocks of the same starts, advanced alike.
        cfg = PathSpaceConfig(d=d, tau=1.0, h=0.05, T_mem=2.0)
        rng = np.random.default_rng(10 + d)
        starts = rng.standard_normal((3, cfg.n_points, d))
        batches = [SegmentBatch(cfg, np.repeat(starts, 2, axis=0)),
                   SegmentBatch.from_segments([PathSegment(cfg, v) for v in starts], 2)]
        rates = (2.0, 0.5)
        for batch in batches:
            for rate in rates:
                batch.exp_weighted_integral(rate)  # start the running sums
        for _ in range(10 * cfg.n_points + 7):
            new = rng.standard_normal((6, d))
            for batch in batches:
                batch.advance(new)
        for batch in batches:
            assert batch.endpoint().flags.c_contiguous
            np.testing.assert_array_equal(batch.endpoint(), new)
            np.testing.assert_array_equal(batch.ordered_values(), batches[0].ordered_values())
            for rate in rates:
                np.testing.assert_allclose(batch.exp_weighted_integral(rate),
                                           self._summed_integral(batch, rate), rtol=0, atol=1e-13)

    def test_first_call_after_advancing(self):
        rng = np.random.default_rng(11)
        batch = SegmentBatch(CFG, rng.standard_normal((2, CFG.n_points, CFG.d)))
        for _ in range(5):
            batch.advance(rng.standard_normal((2, CFG.d)))
        assert batch.head != CFG.n_steps
        np.testing.assert_allclose(batch.exp_weighted_integral(2.0),
                                   self._summed_integral(batch, 2.0), rtol=0, atol=1e-13)
        batch.advance(rng.standard_normal((2, CFG.d)))
        np.testing.assert_allclose(batch.exp_weighted_integral(2.0),
                                   self._summed_integral(batch, 2.0), rtol=0, atol=1e-13)

    def test_returned_integral_is_a_copy(self):
        rng = np.random.default_rng(12)
        batch = SegmentBatch(CFG, rng.standard_normal((2, CFG.n_points, CFG.d)))
        first = batch.exp_weighted_integral(2.0)
        expected = first.copy()
        first[:] = 1e6
        np.testing.assert_array_equal(batch.exp_weighted_integral(2.0), expected)
        batch.exp_weighted_integral(2.0)[:] = -1e6
        batch.advance(np.zeros((2, CFG.d)))
        np.testing.assert_allclose(batch.exp_weighted_integral(2.0),
                                   self._summed_integral(batch, 2.0), rtol=0, atol=1e-13)

    def test_map_values_starts_fresh(self):
        rng = np.random.default_rng(13)
        batch = SegmentBatch(CFG, rng.standard_normal((2, CFG.n_points, CFG.d)))
        batch.exp_weighted_integral(2.0)
        for _ in range(CFG.n_points + 2):
            batch.advance(rng.standard_normal((2, CFG.d)))
        doubled = batch.map_values(lambda v: 2 * v)
        np.testing.assert_allclose(doubled.exp_weighted_integral(2.0),
                                   self._summed_integral(doubled, 2.0), rtol=0, atol=1e-13)
        doubled.advance(np.ones((2, CFG.d)))
        np.testing.assert_allclose(doubled.exp_weighted_integral(2.0),
                                   self._summed_integral(doubled, 2.0), rtol=0, atol=1e-13)
        np.testing.assert_allclose(batch.exp_weighted_integral(2.0),
                                   self._summed_integral(batch, 2.0), rtol=0, atol=1e-13)

    def test_map_values_maps_the_window(self):
        rng = np.random.default_rng(8)
        batch = SegmentBatch.from_segment(random_segment(rng), 2)
        batch.advance(rng.standard_normal((2, CFG.d)))
        doubled = batch.map_values(lambda v: 2 * v)
        assert doubled.head == CFG.n_steps  # ordered layout, whatever the source's head
        np.testing.assert_allclose(doubled.endpoint(), 2 * batch.endpoint())
        np.testing.assert_allclose(
            doubled.ordered_values(), 2 * batch.ordered_values()
        )

    def test_from_segments_stacks_blocks(self):
        rng = np.random.default_rng(14)
        segs = [random_segment(rng) for _ in range(3)]
        batch = SegmentBatch.from_segments(segs, 2)
        assert batch.n == 6
        for b, seg in enumerate(segs):
            for i in range(2):
                np.testing.assert_array_equal(batch.ordered_values()[2 * b + i], seg.values)
        other = PathSegment.zero(PathSpaceConfig(d=2, tau=0.5, h=0.05, T_mem=2.0))
        with pytest.raises(ConfigurationError):
            SegmentBatch.from_segments([segs[0], other], 2)

    def test_constructor_never_aliases_its_input(self):
        rng = np.random.default_rng(15)
        for rows in (1, 3):  # with one row the time-major view of the input is contiguous
            values = rng.standard_normal((rows, CFG.n_points, CFG.d))
            kept = values.copy()
            batch = SegmentBatch(CFG, values)
            batch.advance(np.ones((rows, CFG.d)))
            np.testing.assert_array_equal(values, kept)
            values[:] = 0.0
            np.testing.assert_array_equal(batch.ordered_values()[:, :-1], kept[:, 1:])
