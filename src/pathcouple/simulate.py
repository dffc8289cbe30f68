"""Euler-Maruyama engines for path-dependent and distribution-dependent SDEs.

One Euler step serves the interacting-particle simulation of the mean-field
equation and the drift-corrected coupled pair under the corrected measure Q
or the reference measure P (with Girsanov log-weights).  The coupled pair is
one batch: rows [0, R) hold X and rows [R, 2R) hold Y, driven by the same noise.

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
of these one contiguous (R, d) row.  The coupled step adds its correction
only to the rows that carry it: X under Q, Y under P.
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
    One call per unique stream fills a chunk of steps of one buffer, with the bits
    of a draw per step; a repeated stream is copied from its first block.
    """
    rngs = {s: philox_rng(seed, s) for s in streams}
    chunk = max(1, min(n_steps, _CHUNK_BYTES // (8 * len(streams) * rows * d)))
    buf = np.empty((len(streams), chunk, rows, d))
    for start in range(0, n_steps, chunk):
        k = min(chunk, n_steps - start)
        for b, s in enumerate(streams):
            if streams.index(s) < b:
                buf[b, :k] = buf[streams.index(s), :k]
            else:
                rngs[s].standard_normal(out=buf[b, :k])
        buf[:, :k] *= math.sqrt(h)
        for j in range(k):
            yield buf[:, j].reshape(-1, d)


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
    if np.abs(x).max(initial=0.0) <= BLOWUP_LIMIT:  # one reduction; False on NaN
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
                dW: np.ndarray, step: int, extra=None) -> np.ndarray:
    """Advance ``batch`` to x + (b0 + b1 + extra) h + sigma dW and return that endpoint.

    ``extra`` is None or a pair (rows, term): term is added to the drift of
    those rows only.  A set without b0 and a call without ``extra`` skip
    those terms.  ``x`` is the batch endpoint that ``sig`` was evaluated at,
    so drift and diffusion share any inverse memoized on it; ``step``
    (1-based) labels a blow-up.
    """
    drift = coeffs.eval_b1(batch, law)  # every b1 returns a new array, so the step owns it
    if coeffs.b0 is not None:
        drift = coeffs.eval_b0(x) + drift
    if extra is not None:
        rows, term = extra
        drift[rows] += term
    new = drift * batch.config.h
    new += x
    new += _apply_sigma(sig, dW)
    _check_endpoint(new, step)
    batch.advance(new)
    return new


def _save_steps(cfg: PathSpaceConfig, T: float, save_times) -> tuple[np.ndarray, np.ndarray]:
    n_steps = int(round(T / cfg.h))
    if abs(n_steps * cfg.h - T) > 1e-9:
        raise ConfigurationError(f"T={T} is not a multiple of h={cfg.h}")
    if save_times is None:
        n_saves = min(n_steps, 50)
        idx = np.unique(np.round(np.linspace(0, n_steps, n_saves + 1)).astype(int))
    else:
        idx = np.array([int(round(t / cfg.h)) for t in np.atleast_1d(save_times)])
        if np.any(np.abs(idx * cfg.h - np.atleast_1d(save_times)) > 1e-9):
            raise ConfigurationError("save_times must lie on the step grid")
        if np.any(idx < 0) or np.any(idx > n_steps):
            raise ConfigurationError("save_times must lie in [0, T]")
        idx = np.unique(idx)
    return idx, idx * cfg.h


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
    if init.n % len(streams):
        raise ConfigurationError(
            f"{init.n} rows do not split evenly across {len(streams)} streams")
    if mckean and init.n < 2 * len(streams) and coeffs.K1 > 0:
        raise ConfigurationError("mean-field simulation needs at least 2 particles per block")
    save_idx, times = _save_steps(cfg, T, save_times)
    n_steps = int(round(T / cfg.h))
    increments = _block_increments(seed, streams, init.n // len(streams), cfg.d, n_steps, cfg.h)

    batch = init
    law = _BlockLaws(batch, len(streams)) if mckean else None
    saved = []
    save_set = set(save_idx.tolist())
    if 0 in save_set:
        saved.append(save(batch))
    for step, dW in enumerate(increments, 1):
        x = batch.endpoint()
        _euler_step(coeffs, batch, x, law, _eval_sigma(coeffs, x), dW, step)
        if step in save_set:
            saved.append(save(batch))

    return SimulationResult(times=times, clouds=saved)


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
    if kappa != 0.0 and kappa <= cfg.tau:
        raise ConfigurationError(f"kappa={kappa} must exceed tau={cfg.tau} (or be 0)")
    R = int(n_replicas)
    if R % len(streams):
        raise ConfigurationError(
            f"n_replicas={R} does not split evenly across {len(streams)} pairs")
    save_idx, times = _save_steps(cfg, T, save_times)
    n_steps = int(round(T / cfg.h))
    h = cfg.h
    increments = _block_increments(seed, streams + streams, R // len(streams), cfg.d, n_steps, h)
    decay = math.exp(-cfg.tau * h)

    batch = SegmentBatch.from_segments(xis + etas, R // len(streams))
    zn = ParticleCloud(cfg, np.subtract(*np.split(batch.ordered_values(), 2))).norms()
    half_g2 = np.zeros(R)
    log_r = np.zeros(R)
    saves = {"x_end": [], "y_end": [], "z_norms": [], "half_g2": [], "log_r": []}

    def snapshot(xy):
        saves["x_end"].append(xy[:R].copy())
        saves["y_end"].append(xy[R:].copy())
        saves["z_norms"].append(zn.copy())
        saves["half_g2"].append(half_g2.copy())
        saves["log_r"].append(log_r.copy())

    save_set = set(save_idx.tolist())
    if 0 in save_set:
        snapshot(batch.endpoint())
    for step, dW in enumerate(increments, 1):
        xy = batch.endpoint()
        diff = xy[:R] - xy[R:]
        sig = _eval_sigma(coeffs_hat, xy)
        gamma = kappa * _solve_sigma(None if sig is None else sig[:R], diff)
        if measure == "Q":
            extra = slice(None, R), -kappa * diff
        else:
            extra = slice(R, None), _apply_sigma(None if sig is None else sig[R:], gamma)
        new = _euler_step(coeffs_hat, batch, xy, None, sig, dW, step, extra)
        g2 = np.einsum("rj,rj->r", gamma, gamma)
        half_g2 += 0.5 * g2 * h
        if measure == "P":
            log_r += -np.einsum("rj,rj->r", gamma, dW[:R]) - 0.5 * g2 * h
        dz = new[:R] - new[R:]
        zn *= decay
        np.maximum(zn, np.sqrt(np.add.reduce(dz * dz, axis=-1)), out=zn)  # np.linalg.norm's sum
        if step in save_set:
            snapshot(new)

    degenerate = np.abs(log_r) > LOG_WEIGHT_LIMIT
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} of {R} Girsanov log-weights exceed "
            f"{LOG_WEIGHT_LIMIT} in magnitude",
            DegenerateWeightWarning,
        )
    return CouplingRun(
        measure=measure,
        times=times,
        x_end=np.array(saves["x_end"]),
        y_end=np.array(saves["y_end"]),
        z_norms=np.array(saves["z_norms"]),
        half_int_gamma_sq=np.array(saves["half_g2"]),
        log_R=np.array(saves["log_r"]),
    )


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
