"""Euler-Maruyama engines for path-dependent and distribution-dependent SDEs.

One Euler loop, `_euler_loop`, serves the interacting-particle simulation of
the mean-field equation and the drift-corrected coupled pair under the
corrected measure Q or the reference measure P (with Girsanov log-weights).
The coupled pair is one batch, X in rows [0, R) and Y in rows [R, 2R) under the
same noise, and one `_Coupling` corrects its drift and books its records.  The
noise is the loop's input: any iterator of increments serves.

Both simulators also run *blocks*: independent simulations stacked in one
batch, each with its own start and its own Philox stream, so one Euler loop
serves them all.  Each step, block b takes the next (rows, d) normals of
philox_rng(seed, streams[b]), exactly the draws of a separate run on that
stream, so every block's rows equal those of that separate run.  They are
drawn a chunk of steps at a time, with the bits of step-by-step draws, and a
stream repeated in the list is drawn once and shared by its blocks.  The
builtin coefficients act row by row.  A McKean run gives each block its own
empirical law: the law handed to b1 returns, for every row, the mean endpoint
of that row's block, so stacked mean-field blocks also equal separate runs.

The running weighted norm of Z = X - Y uses the recursion
n_t = max(e^{-tau h} n_{t-h}, |Z(t)|), the exact grid norm of the path with
infinite memory; it dominates the windowed norm and differs from it by at
most the truncation bound.

A step reads the batch only through `SegmentBatch.endpoint` and its history
integrals, and writes it only through `SegmentBatch.advance`, which keeps
those integrals in O(R d) per step; the batch's time-major ring makes each
of these one contiguous (R, d) row.  The coupling corrects only the rows
that carry it: X under Q, Y under P.

A run's t = 0 work is done once per start segment: on a fresh batch from
`SegmentBatch.from_segments`, the first history integral a drift asks for and
the coupling's initial running norm of X - Y are computed on the B starts and
repeated to their rows (`SegmentBatch.per_row`), with the bits of the per-row
computation.  Each step tests b0, b1 and sigma for finite values in one pass
(`CoefficientSet.eval_b0` and its siblings): the dot product of the output
with itself is finite only if every entry is, and only a non-finite one is
rechecked entry by entry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .errors import (
    BlowUpError,
    ConfigurationError,
    DegenerateWeightWarning,
    SingularDiffusionError,
)
from .laws import philox_rng
from .pathspace import ParticleCloud, PathSegment, PathSpaceConfig, SegmentBatch

__all__ = [
    "CouplingRun",
    "SimulationResult",
    "girsanov_weight_P",
    "philox_rng",
    "simulate_coupled_Q",
    "simulate_mckean",
    "simulate_paths",
]

BLOWUP_LIMIT = 1e8
LOG_WEIGHT_LIMIT = 700.0
_CHUNK_BYTES = 1 << 18  # size of the buffer of normals, over all blocks of a run


def _stream_list(stream) -> list[int]:
    streams = [int(stream)] if np.ndim(stream) == 0 else [int(s) for s in stream]
    if not streams:
        raise ConfigurationError("need at least one stream")
    return streams


def _block_increments(seed: int, streams: list[int], rows: int, d: int, n_steps: int, h: float):
    """Yield each step's sqrt(h) dW, a (len(streams) * rows, d) array valid until the next.

    Block b is sqrt(h) times the next (rows, d) draw of philox_rng(seed, streams[b]).
    One call per unique stream draws a chunk of steps, with the bits of a draw per
    step, and one product scales it into its block of a step-major buffer, so each
    step's increment is a view; a repeated stream is copied from its first block.
    """
    rngs = {s: philox_rng(seed, s) for s in dict.fromkeys(streams)}
    first = [streams.index(s) for s in streams]
    chunk = max(1, min(n_steps, _CHUNK_BYTES // (8 * len(streams) * rows * d)))
    buf = np.empty((chunk, len(streams), rows, d))
    steps = buf.reshape(chunk, -1, d)
    draws = np.empty((chunk, rows, d))
    sqrt_h = math.sqrt(h)
    for start in range(0, n_steps, chunk):
        k = min(chunk, n_steps - start)
        for b, s in enumerate(streams):
            if first[b] < b:
                buf[:k, b] = buf[:k, first[b]]
            else:
                rngs[s].standard_normal(out=draws[:k])
                np.multiply(draws[:k], sqrt_h, out=buf[:k, b])
        for j in range(k):
            yield steps[j]


class _BlockLaws:
    """Law argument of stacked mean-field blocks: each block's empirical law.

    `mean_endpoint` is row-aligned: row i gets the mean endpoint of its block,
    the value a separate run of that block would see.
    """

    def __init__(self, batch: SegmentBatch, n_blocks: int):
        self.batch = batch
        self.n_blocks = n_blocks

    def mean_endpoint(self) -> np.ndarray:
        ep = self.batch.endpoint()
        rows = ep.shape[0] // self.n_blocks
        means = ep.reshape(self.n_blocks, rows, ep.shape[1]).mean(axis=1)
        return np.repeat(means, rows, axis=0)


def _check_endpoint(x: np.ndarray, step: int) -> None:
    if np.maximum.reduce(np.abs(x), axis=None, initial=0.0) <= BLOWUP_LIMIT:  # False on NaN
        return
    bad = ~np.isfinite(x).all(axis=-1) | (np.abs(x) > BLOWUP_LIMIT).any(axis=-1)
    particle = int(np.argmax(bad))
    raise BlowUpError(
        f"trajectory blow-up at step {step}, particle {particle}",
        step=step,
        particle=particle,
    )


def _eval_sigma(coeffs: CoefficientSet, x: np.ndarray):
    """sigma at a batch of points, or None for the identity diffusion."""
    return None if coeffs.sigma is None else coeffs.eval_sigma(x)


def _apply_sigma(sig, v: np.ndarray) -> np.ndarray:
    """sigma v for a batch of vectors; in 1-D a product, with the einsum's bits."""
    if sig is None:
        return v
    if sig.shape[-1] == 1:
        return sig[..., 0] * v
    return np.einsum("...ij,...j->...i", sig, v)


def _solve_sigma(sig, v: np.ndarray) -> np.ndarray:
    """sigma^{-1} v for a batch of vectors; in 1-D a quotient, with the LAPACK solve's bits."""
    if sig is None:
        return v
    if sig.shape[-1] == 1:
        if not sig.all():
            raise SingularDiffusionError("sigma not invertible along the trajectory: sigma = 0")
        return v / sig[..., 0]
    try:
        return np.linalg.solve(sig, v[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularDiffusionError(f"sigma not invertible along the trajectory: {exc}") from exc


def _euler_step(coeffs: CoefficientSet, batch: SegmentBatch, x: np.ndarray, law, sig,
                dW: np.ndarray, step: int, coupling=None) -> np.ndarray:
    """Advance ``batch`` to x + (b0 + b1) h + sigma dW and return that endpoint.

    A set without b0 skips that term; a ``coupling`` first corrects the drift in
    place.  ``x`` is the batch endpoint that ``sig`` was evaluated at, so drift and
    diffusion share any inverse memoized on it; ``step`` (1-based) labels a blow-up.
    """
    drift = coeffs.eval_b1(batch, law)  # every b1 returns a new array, so the step owns it
    if coeffs.b0 is not None:
        drift = coeffs.eval_b0(x) + drift
    if coupling is not None:
        coupling.correct(drift, sig)
    new = drift * batch.h
    new += x
    new += dW if sig is None else _apply_sigma(sig, dW)
    _check_endpoint(new, step)
    batch.advance(new)
    return new


def _euler_loop(coeffs: CoefficientSet, batch: SegmentBatch, increments, save_idx, save,
                law=None, coupling=None) -> list:
    """Take one Euler step per increment and return ``save(batch)`` at each save step.

    ``increments`` yields each step's (batch.n, d) sqrt(h) dW, valid until the
    next; any such iterator serves, negated draws included.  Each step
    evaluates sigma once at the endpoint, and a ``coupling`` books the step.
    """
    save_set = set(save_idx.tolist())
    saved = [save(batch)] if 0 in save_set else []
    for step, dW in enumerate(increments, 1):
        x = batch.endpoint()
        new = _euler_step(coeffs, batch, x, law, _eval_sigma(coeffs, x), dW, step, coupling)
        if coupling is not None:
            coupling.book(new, dW)
        if step in save_set:
            saved.append(save(batch))
    return saved


def _save_steps(cfg: PathSpaceConfig, T: float, save_times) -> tuple[int, np.ndarray, np.ndarray]:
    """(n_steps, save steps, save times) of a run to T."""
    if not 0 <= T / cfg.h < math.inf:  # False on NaN
        raise ConfigurationError(f"T={T} must be nonnegative and a finite number of steps h={cfg.h}")
    n_steps = int(round(T / cfg.h))
    if abs(n_steps * cfg.h - T) > 1e-9:
        raise ConfigurationError(f"T={T} is not a multiple of h={cfg.h}")
    if save_times is None:
        n_saves = min(n_steps, 50)
        idx = np.unique(np.round(np.linspace(0, n_steps, n_saves + 1)).astype(int))
    else:
        if not np.isfinite(save_times).all():
            raise ConfigurationError(f"save_times must be finite, got {save_times}")
        idx = np.array([int(round(t / cfg.h)) for t in np.atleast_1d(save_times)])
        if np.any(np.abs(idx * cfg.h - np.atleast_1d(save_times)) > 1e-9):
            raise ConfigurationError("save_times must lie on the step grid")
        if not idx.size or np.any(idx < 0) or np.any(idx > n_steps):
            raise ConfigurationError("save_times must be one or more times in [0, T]")
        idx = np.unique(idx)
    return n_steps, idx, idx * cfg.h


@dataclass
class SimulationResult:
    """Trajectory of an interacting (or independent) particle system."""

    times: np.ndarray  # save times (n_saves,)
    clouds: list  # what `save` returned at each save time: a ParticleCloud by default

    @property
    def endpoints(self) -> np.ndarray:
        """(n_saves, N, d) endpoints of the saved clouds."""
        if not all(isinstance(c, ParticleCloud) for c in self.clouds):
            raise ConfigurationError("endpoints needs the default save, which keeps a "
                                     "ParticleCloud at each save time")
        return np.array([c.endpoints() for c in self.clouds])

    def cloud_at(self, t: float) -> ParticleCloud:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9:
            raise ConfigurationError(f"t={t} is not a save time")
        return self.clouds[i]


def _cloud(batch: SegmentBatch) -> ParticleCloud:
    # Looks the method up per call, so a wrapper installed on the class sees every save.
    return batch.to_cloud()


def simulate_paths(
    coeffs: CoefficientSet,
    init: SegmentBatch,
    T: float,
    seed: int = 0,
    stream=0,
    save_times=None,
    mckean: bool = False,
    save=_cloud,
) -> SimulationResult:
    """Integrate a batch of paths to time T.

    The run consumes ``init``, advancing it in place.  With ``mckean=True`` the
    law argument is the empirical cloud of the batch, frozen per step; otherwise
    the law argument is absent.

    At each save time ``save(batch)`` is called on the running batch and its
    result kept in ``clouds``; the default keeps the batch's ParticleCloud.  A
    hook must not write to the batch, and must copy what it keeps of it.

    ``stream`` is one stream or a sequence of B streams; the rows of ``init``
    then split into B equal blocks, block b driven by streams[b].  Under
    ``mckean=True`` each block's law is its own empirical cloud.  A blow-up
    reports the stacked row: row i of block b is particle b * (init.n // B) + i.
    """
    cfg = init.config
    if cfg != coeffs.pathcfg:
        raise ConfigurationError("initial batch and coefficients use different configs")
    streams = _stream_list(stream)
    if init.n < 1 or init.n % len(streams):
        raise ConfigurationError(
            f"need one or more rows that split evenly across {len(streams)} streams, got {init.n}")
    if mckean and init.n < 2 * len(streams) and coeffs.K1 > 0:
        raise ConfigurationError("mean-field simulation needs at least 2 particles per block")
    n_steps, save_idx, times = _save_steps(cfg, T, save_times)
    increments = _block_increments(seed, streams, init.n // len(streams), cfg.d, n_steps, cfg.h)
    law = _BlockLaws(init, len(streams)) if mckean else None
    return SimulationResult(times, _euler_loop(coeffs, init, increments, save_idx, save, law))


def simulate_mckean(
    coeffs: CoefficientSet,
    init: ParticleCloud,
    T: float,
    seed: int = 0,
    stream=0,
    save_times=None,
) -> SimulationResult:
    """Interacting-particle approximation of the distribution-dependent SDE.

    With a sequence of B streams the cloud's rows split into B equal blocks,
    each an independent particle system with its own stream and its own law.
    """
    # simulate_paths consumes its start, so the batch copies the cloud's values.
    batch = SegmentBatch(init.config, init.values)
    return simulate_paths(
        coeffs, batch, T, seed=seed, stream=stream, save_times=save_times, mckean=True
    )


@dataclass
class CouplingRun:
    """Coupled pair with drift correction -kappa (X(t) - Y(t)) on X."""

    measure: str  # "Q" (corrected dynamics) or "P" (correction in the weight)
    times: np.ndarray  # (n_saves,)
    x_end: np.ndarray  # (n_saves, R, d); R = n_replicas, pair p in rows [p R/P, (p+1) R/P)
    y_end: np.ndarray
    z_norms: np.ndarray  # (n_saves, R) running weighted norm of X - Y
    half_int_gamma_sq: np.ndarray  # (n_saves, R), nondecreasing in t
    log_R: np.ndarray  # (n_saves, R); identically 0 under Q

    @property
    def n_replicas(self) -> int:
        return self.half_int_gamma_sq.shape[1]


class _Coupling:
    """Drift correction and records of the coupled pair: X in rows [0, R), Y in [R, 2R).

    Each step gamma = kappa sigma(X)^{-1} (X - Y).  Under Q X carries -kappa (X - Y);
    under P Y carries sigma(Y) gamma and log R adds -<gamma, dW> - 1/2 |gamma|^2 h.
    """

    def __init__(self, batch: SegmentBatch, kappa: float, measure: str):
        cfg = batch.config
        self.R, self.kappa, self.measure = batch.n // 2, kappa, measure
        self.h, self.decay, self.d = cfg.h, math.exp(-cfg.tau * cfg.h), cfg.d
        self.zn = batch.per_row(lambda w: ParticleCloud(cfg, np.subtract(*np.split(w, 2))).norms())
        self.half_g2, self.log_r = np.zeros(self.R), np.zeros(self.R)
        self.diff = np.subtract(*np.split(batch.endpoint(), 2))

    def _dot(self, a, b):
        # One product at d = 1, with the einsum's bits; sqrt(_dot(z, z)) has np.linalg.norm's.
        return a[:, 0] * b[:, 0] if self.d == 1 else np.einsum("rj,rj->r", a, b)

    def correct(self, drift: np.ndarray, sig) -> None:
        """Add this step's correction to ``drift`` in place; keep its gamma for `book`."""
        R, kappa = self.R, self.kappa
        self.gamma = kappa * _solve_sigma(None if sig is None else sig[:R], self.diff)
        if self.measure == "P":
            drift[R:] += _apply_sigma(None if sig is None else sig[R:], self.gamma)
        else:  # -kappa (X - Y) on X, which is -gamma when sigma is the identity
            drift[:R] -= self.gamma if sig is None else kappa * self.diff

    def book(self, xy: np.ndarray, dW: np.ndarray) -> None:
        """Add the step that ended at ``xy`` to 1/2 int |gamma|^2, log R and the running norm."""
        g2 = self._dot(self.gamma, self.gamma)
        self.half_g2 += 0.5 * g2 * self.h
        if self.measure == "P":
            self.log_r += -self._dot(self.gamma, dW[:self.R]) - 0.5 * g2 * self.h
        self.diff = xy[:self.R] - xy[self.R:]
        self.zn *= self.decay
        np.maximum(self.zn, np.sqrt(self._dot(self.diff, self.diff)), out=self.zn)

    def snapshot(self, batch: SegmentBatch) -> tuple:
        """Copies of (x_end, y_end, z_norms, half_int_gamma_sq, log_R) now."""
        return tuple(a.copy() for a in (*np.split(batch.endpoint(), 2), self.zn, self.half_g2,
                                        self.log_r))


def simulate_coupled_Q(
    coeffs_hat: CoefficientSet,
    xi,
    eta,
    kappa: float,
    T: float,
    seed: int = 0,
    stream=0,
    n_replicas: int = 1,
    save_times=None,
    measure: str = "Q",
) -> CouplingRun:
    """Simulate the coupled pair started from (xi, eta) over n_replicas.

    Under ``measure="Q"`` X carries the correction -kappa (X - Y) and the
    shared noise is a Brownian motion of the corrected measure; log_R stays 0.
    Under ``measure="P"`` X is uncorrected, the correction is folded into Y's
    drift and the Girsanov log-weight log R = -int <gamma, dW> - 1/2 int
    |gamma|^2 is accumulated, so that reweighting by e^{log R} recovers
    corrected-measure expectations.

    ``xi``, ``eta`` and ``stream`` may also be equal-length sequences, one
    entry per pair; the n_replicas X rows split evenly across the P pairs and
    pair p runs n_replicas // P replicas on streams[p].  The batch holds X of
    every pair, then Y of every pair, so a blow-up of X in replica i of pair p
    reports particle p * (n_replicas // P) + i, and of Y that plus n_replicas.
    """
    cfg = coeffs_hat.pathcfg
    xis = [xi] if isinstance(xi, PathSegment) else list(xi)
    etas = [eta] if isinstance(eta, PathSegment) else list(eta)
    streams = _stream_list(stream)
    if not len(xis) == len(etas) == len(streams):
        raise ConfigurationError(
            f"need one stream per pair: {len(xis)} xi, {len(etas)} eta, {len(streams)} streams")
    if any(seg.config != cfg for seg in xis + etas):
        raise ConfigurationError("initial segments and coefficients use different configs")
    if measure not in ("Q", "P"):
        raise ConfigurationError(f"measure must be 'Q' or 'P', got {measure!r}")
    if not (kappa == 0.0 or cfg.tau < kappa < math.inf):  # False on NaN
        raise ConfigurationError(f"kappa={kappa} must be finite and exceed tau={cfg.tau} (or be 0)")
    R = int(n_replicas)
    if R < 1 or R % len(streams):
        raise ConfigurationError(
            f"n_replicas={R} must be positive and split evenly across {len(streams)} pairs")
    n_steps, save_idx, times = _save_steps(cfg, T, save_times)
    increments = _block_increments(seed, 2 * streams, R // len(streams), cfg.d, n_steps, cfg.h)
    batch = SegmentBatch.from_segments(xis + etas, R // len(streams))
    coupling = _Coupling(batch, kappa, measure)
    saved = _euler_loop(coeffs_hat, batch, increments, save_idx, coupling.snapshot,
                        coupling=coupling)
    n_degenerate = int((np.abs(coupling.log_r) > LOG_WEIGHT_LIMIT).sum())
    if n_degenerate:
        warnings.warn(f"{n_degenerate} of {R} Girsanov log-weights exceed {LOG_WEIGHT_LIMIT} "
                      "in magnitude", DegenerateWeightWarning)
    return CouplingRun(measure, times, *(np.array(col) for col in zip(*saved)))


def girsanov_weight_P(run: CouplingRun):
    """Log-weights of a reference-measure run, with martingale diagnostics.

    Returns (log_R at final save, mean of e^{log R}, its standard error).
    """
    if run.measure != "P":
        raise ConfigurationError("girsanov weights require a run under the reference measure")
    log_r = run.log_R[-1]
    w = np.exp(np.clip(log_r, -LOG_WEIGHT_LIMIT, LOG_WEIGHT_LIMIT))
    mean = float(w.mean())
    stderr = float(w.std(ddof=1) / math.sqrt(len(w))) if len(w) > 1 else float("nan")
    return log_r, mean, stderr
