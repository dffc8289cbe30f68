"""Discretized weighted path space with exponentially decaying memory.

A path segment is a history window on [-T_mem, 0] sampled on a uniform grid
of step h.  The norm discounts the past through the weight e^{tau*s}, so the
tail beyond T_mem contributes at most e^{-tau*T_mem} * sup|xi| and can be
truncated; every consumer of these norms reports that bound alongside its
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidCloudError, InvalidSegmentError

__all__ = [
    "PathSpaceConfig",
    "PathSegment",
    "ParticleCloud",
    "SegmentBatch",
    "advance",
    "check_history_inequality",
    "flat_extension",
    "truncated_norm",
    "truncation_bound",
    "weighted_norm",
]

HISTORY_RTOL = 1e-12  # rounding slack of check_history_inequality, relative to 1 + rhs


@dataclass(frozen=True)
class PathSpaceConfig:
    """Grid description of the weighted history space.

    d      state dimension
    tau    decay rate of the norm weight e^{tau*s}, tau > 0
    h      grid step
    T_mem  memory horizon; histories are truncated at s = -T_mem
    """

    d: int
    tau: float
    h: float
    T_mem: float

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {self.d}")
        if not (self.tau > 0 and np.isfinite(self.tau)):
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if not (self.h > 0 and np.isfinite(self.h)):
            raise ConfigurationError(f"h must be positive, got {self.h}")
        n = self.T_mem / self.h
        if not np.isclose(n, round(n), atol=1e-9) or round(n) < 1:
            raise ConfigurationError(
                f"T_mem={self.T_mem} must be a positive multiple of h={self.h}"
            )

    @property
    def n_steps(self) -> int:
        """Number of grid intervals in the window."""
        return int(round(self.T_mem / self.h))

    @property
    def n_points(self) -> int:
        return self.n_steps + 1

    @property
    def s_grid(self) -> np.ndarray:
        """Grid points -T_mem, -T_mem + h, ..., 0."""
        return -self.T_mem + self.h * np.arange(self.n_points)

    @property
    def weights(self) -> np.ndarray:
        """Norm weights e^{tau*s} on the grid, oldest first."""
        return np.exp(self.tau * self.s_grid)


def truncation_bound(config: PathSpaceConfig, sup_value: float = 1.0) -> float:
    """Upper bound e^{-tau*T_mem} * sup|xi| on the neglected tail of the norm."""
    return float(np.exp(-config.tau * config.T_mem) * sup_value)


def _as_values(config: PathSpaceConfig, values) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape != (config.n_points, config.d):
        raise InvalidSegmentError(
            f"expected values of shape {(config.n_points, config.d)}, got {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise InvalidSegmentError("segment contains non-finite entries")
    return vals


@dataclass(frozen=True)
class PathSegment:
    """History window: values[i] = xi(-T_mem + i*h); the last entry is xi(0)."""

    config: PathSpaceConfig
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _as_values(self.config, self.values)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, config: PathSpaceConfig) -> "PathSegment":
        return cls(config, np.zeros((config.n_points, config.d)))

    @classmethod
    def constant(cls, config: PathSpaceConfig, x) -> "PathSegment":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(config, np.tile(x, (config.n_points, 1)))

    def endpoint(self) -> np.ndarray:
        return self.values[-1]

    def exp_weighted_integral(self, rate: float) -> np.ndarray:
        """h * sum_i e^{rate*s_i} xi(s_i), a discounted history integral."""
        w = np.exp(rate * self.config.s_grid)
        return self.config.h * (w @ self.values)

    def __add__(self, other: "PathSegment") -> "PathSegment":
        if other.config != self.config:
            raise ConfigurationError("segments live on different grids")
        return PathSegment(self.config, self.values + other.values)

    def __sub__(self, other: "PathSegment") -> "PathSegment":
        if other.config != self.config:
            raise ConfigurationError("segments live on different grids")
        return PathSegment(self.config, self.values - other.values)

    def __mul__(self, c: float) -> "PathSegment":
        return PathSegment(self.config, self.values * float(c))

    __rmul__ = __mul__


def flat_extension(seg: PathSegment) -> PathSegment:
    """The segment xi^0 with xi^0(r) = xi(0) for all r."""
    return PathSegment.constant(seg.config, seg.endpoint())


def weighted_norm(seg: PathSegment) -> float:
    """max over the grid of e^{tau*s} |xi(s)| (Euclidean norm in R^d)."""
    mags = np.linalg.norm(seg.values, axis=-1)
    return float(np.max(seg.config.weights * mags))


def truncated_norm(seg: PathSegment, N: float) -> float:
    """max over s in [-N, 0] of e^{tau*s} |xi(s)|; equals weighted_norm at N = T_mem."""
    cfg = seg.config
    if not (0 < N <= cfg.T_mem + 1e-12):
        raise ConfigurationError(f"need 0 < N <= T_mem, got N={N}")
    m = min(N, cfg.T_mem) / cfg.h
    if not np.isclose(m, round(m), atol=1e-9):
        raise ConfigurationError(f"N={N} is not a multiple of h={cfg.h}")
    m = int(round(m))
    mags = np.linalg.norm(seg.values[cfg.n_steps - m :], axis=-1)
    return float(np.max(cfg.weights[cfg.n_steps - m :] * mags))


def advance(seg: PathSegment, new_value) -> PathSegment:
    """Shift the window one grid step and append new_value at s = 0."""
    x = np.atleast_1d(np.asarray(new_value, dtype=float))
    if x.shape != (seg.config.d,):
        raise InvalidSegmentError(f"new value has shape {x.shape}, expected ({seg.config.d},)")
    if not np.all(np.isfinite(x)):
        raise InvalidSegmentError("new value is not finite")
    vals = np.concatenate([seg.values[1:], x[None, :]], axis=0)
    return PathSegment(seg.config, vals)


def check_history_inequality(seg0: PathSegment, future_values, p: float) -> bool:
    """Check the sup-splitting bound for the weighted norm along a trajectory.

    For every grid time t in [0, len(future)*h] it verifies

        e^{p*tau*t} ||X_t||_tau^p <= ||X_0||_tau^p + max_{s in [0,t]} e^{p*tau*s} |X(s)|^p

    up to the truncation tolerance e^{-p*tau*T_mem} * max|X|^p.
    """
    if p <= 0:
        raise ConfigurationError(f"p must be positive, got {p}")
    cfg = seg0.config
    fut = np.asarray(future_values, dtype=float)
    if fut.size == 0:
        return True
    if fut.ndim == 1:
        fut = fut[:, None]
    # Full trajectory on the grid u in [-T_mem, t_max].
    full = np.concatenate([seg0.values, fut], axis=0)
    n_fut = fut.shape[0]
    u = -cfg.T_mem + cfg.h * np.arange(full.shape[0])
    g = np.exp(p * cfg.tau * u) * np.linalg.norm(full, axis=-1) ** p
    norm0_p = np.max(g[: cfg.n_points])
    tol = truncation_bound(cfg, np.max(np.linalg.norm(full, axis=-1)) ** p)
    # g restricted to u >= 0, cumulative max gives the second sup.
    run_max = np.maximum.accumulate(g[cfg.n_steps :])
    # Windowed max of g over [t - T_mem, t] gives e^{p tau t} ||X_t||^p.
    windows = np.lib.stride_tricks.sliding_window_view(g, cfg.n_points)
    lhs = windows.max(axis=-1)[1 : n_fut + 1]
    rhs = norm0_p + run_max[1:]
    return bool(np.all(lhs <= rhs + tol + HISTORY_RTOL * (1.0 + rhs)))


# ---------------------------------------------------------------------------
# Ensembles


class ParticleCloud:
    """Equally weighted ensemble of path segments approximating a law on path space."""

    def __init__(self, config: PathSpaceConfig, values):
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 2:
            vals = vals[:, :, None]
        if vals.ndim != 3 or vals.shape[1:] != (config.n_points, config.d):
            raise InvalidCloudError(
                f"cloud values must have shape (N, {config.n_points}, {config.d})"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidCloudError("cloud contains non-finite entries")
        self.config = config
        self.values = vals

    @classmethod
    def point_mass(cls, seg: PathSegment, n: int = 1) -> "ParticleCloud":
        return cls(seg.config, np.repeat(seg.values[None], n, axis=0))

    def __len__(self) -> int:
        return self.values.shape[0]

    def endpoints(self) -> np.ndarray:
        return self.values[:, -1, :]

    def mean_endpoint(self) -> np.ndarray:
        return self.endpoints().mean(axis=0)

    def norms(self) -> np.ndarray:
        """Weighted path norm of every particle."""
        mags = np.linalg.norm(self.values, axis=-1)
        return np.max(self.config.weights[None, :] * mags, axis=-1)


class SegmentBatch:
    """Mutable ring-buffer batch of segments; the workhorse of the simulators.

    The ring is stored time-major: values has shape (n_points, R, d), and
    `head` is the slot holding s = 0, so each step reads its endpoint and the
    oldest sample, and writes the new sample, as one contiguous (R, d) row.
    The layout is private to this class: every other reader gets the window
    in time order, as (R, n_points, d), through `exp_weighted_integral`,
    `ordered_values` or `to_cloud`, and the endpoint through `endpoint`.
    Unlike PathSegment this type is mutated in place, so it is never shared
    across threads; snapshots are taken for anything that escapes a
    simulation.

    `advance` is the only writer of `values`, so each history integral
    S = h sum_i e^{r s_i} x(s_i) is summed over the window once, at its first
    `exp_weighted_integral(r)`, and then kept by `advance` in O(R d) as
    S' = e^{-r h} (S - h e^{-r T_mem} x_oldest) + h x_new, in place through one
    scratch row buffer and in that order.  New batches start without.

    A batch from `from_segments` keeps its B start windows until its first
    `advance`; until then `per_row`, and so a first history integral, computes
    on the starts and repeats each result to its block's rows.  Each row's sum
    is the same computation whatever the number of rows, so the bits equal
    those of a sum over the window, which a batch built from a window or a
    cloud, or one that has advanced, takes.
    """

    def __init__(self, config: PathSpaceConfig, values):
        """Batch of the (R, n_points, d) window `values`, oldest first, copied into its own ring."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 2:
            vals = vals[:, :, None]
        if vals.ndim != 3 or vals.shape[1:] != (config.n_points, config.d):
            raise InvalidSegmentError(
                f"batch values must have shape (R, {config.n_points}, {config.d})"
            )
        self._adopt(config, np.array(vals.transpose(1, 0, 2), order="C"))

    def _adopt(self, config: PathSpaceConfig, ring: np.ndarray) -> None:
        # ring is a fresh C-ordered (n_points, R, d) array in time order.
        self.config = config
        self.n_points = config.n_points  # read by every step, so not recomputed from config
        self.h = config.h
        self.values = ring
        self.head = config.n_steps  # ordered layout on construction
        self._integrals = {}  # rate -> [S, e^{-rate h}, h e^{-rate T_mem}]
        self._scratch = np.empty(ring.shape[1:])  # one row per particle for advance
        self._starts = None  # (B, n_points, d) start windows and block size, until advance

    @classmethod
    def from_segment(cls, seg: PathSegment, n: int) -> "SegmentBatch":
        return cls.from_segments([seg], n)

    @classmethod
    def from_segments(cls, segments, n: int) -> "SegmentBatch":
        """Blocks of n rows, block b starting from segments[b], in one allocation."""
        config = segments[0].config
        if any(seg.config != config for seg in segments):
            raise ConfigurationError("segments live on different grids")
        starts = np.stack([seg.values for seg in segments])
        batch = cls.__new__(cls)
        batch._adopt(config, np.repeat(starts.transpose(1, 0, 2), n, axis=1))
        batch._starts = starts, n
        return batch

    @classmethod
    def from_cloud(cls, cloud: ParticleCloud) -> "SegmentBatch":
        return cls(cloud.config, cloud.values)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def ordered_values(self) -> np.ndarray:
        """C-contiguous (R, n_points, d) copy of the window, oldest first, in one allocation."""
        split = self.head + 1
        out = np.empty((self.n, self.config.n_points, self.config.d))
        np.concatenate([self.values[split:], self.values[:split]], out=out.transpose(1, 0, 2))
        return out

    def endpoint(self) -> np.ndarray:
        """The (R, d) samples at s = 0: a C-contiguous view into the ring."""
        return self.values[self.head]

    def per_row(self, fn) -> np.ndarray:
        """fn(window) of the (R, n_points, d) window, oldest first.

        fn must compute each result row from one window row, or from rows i and
        i + R/2 alike, so that its rows follow the blocks.  Until the first
        `advance` of a batch from `from_segments`, fn runs on the B start windows
        instead and each result row is repeated to its block, so no window is copied.
        """
        if self._starts is None:
            return fn(self.ordered_values())
        starts, n = self._starts
        return np.repeat(fn(starts), n, axis=0)

    def advance(self, new_values: np.ndarray) -> None:
        self._starts = None
        self.head = (self.head + 1) % self.n_points
        row = self.values[self.head]  # x_oldest, read by the integrals before the write
        for S, decay, tail in self._integrals.values():
            S -= np.multiply(tail, row, out=self._scratch)
            S *= decay
            S += np.multiply(self.h, new_values, out=self._scratch)
        row[...] = new_values

    def exp_weighted_integral(self, rate: float) -> np.ndarray:
        if rate not in self._integrals:
            cfg = self.config
            w = np.exp(rate * cfg.s_grid)
            self._integrals[rate] = [self.per_row(lambda v: cfg.h * np.einsum("j,rjd->rd", w, v)),
                                     np.exp(-rate * cfg.h), cfg.h * np.exp(-rate * cfg.T_mem)]
        return self._integrals[rate][0].copy()

    def map_values(self, fn) -> "SegmentBatch":
        """New batch, in the ordered layout, with fn applied to the window flattened to (M, d)."""
        vals = self.ordered_values()
        return SegmentBatch(self.config, fn(vals.reshape(-1, self.config.d)).reshape(vals.shape))

    def to_cloud(self) -> ParticleCloud:
        return ParticleCloud(self.config, self.ordered_values())
