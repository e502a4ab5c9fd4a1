"""Ground-truth posterior samplers: parallel overdamped Langevin chains.

Both samplers run many independent particles, vectorizing score evaluations
across the particle axis.  Each particle owns its own random stream, spawned
from the master seed, so results are deterministic and independent of
execution order, and the first k particles of a run follow the same paths
as a k-particle run from the same seed.  Noise is drawn in step chunks to
amortize the per-stream call overhead.

The unadjusted sampler iterates ``x + (eps/2) * score(x) + sqrt(eps) * noise``;
the adjusted variant proposes the same move and applies a Metropolis
correction (Roberts & Tweedie 1996), for which unnormalized log-densities
suffice.  Both run on one driver; the correction is their only difference.

Buffers: a run allocates one noise chunk, shaped (particles, steps, d), and
refills it for every chunk of steps; the state, the proposal and, for the
adjusted sampler, the current score and one work array are also allocated
once and overwritten in place.  Targets receive these buffers as inputs, so
they must not write or keep them (see ``targets``); history rows are copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE_CHUNK_BYTES = 64 * 2**20


class SamplerDivergence(RuntimeError):
    """Raised when a particle's state turns non-finite."""

    def __init__(self, particle: int, step: int):
        super().__init__(f"particle {particle} diverged at step {step}")
        self.particle = particle
        self.step = step


@dataclass(frozen=True)
class SamplerConfig:
    n_particles: int
    n_steps: int
    step_size: float
    burn_in: int = 0
    thin: int = 1
    seed: int = 0
    collect_history: bool = False

    def __post_init__(self):
        # each message opens with the field it rejects; configio names the key by it
        if self.n_particles < 1:
            raise ValueError("n_particles must be at least 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("burn_in must lie in [0, n_steps)")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")


@dataclass
class SamplerRun:
    """Final particle states plus run diagnostics."""

    states: np.ndarray  # (n_particles, d)
    history: np.ndarray | None  # (n_kept, n_particles, d) when collected
    acceptance_rate: float | None  # adjusted sampler only
    n_steps: int


def langevin_step(x, score_value, step_size, noise, out=None):
    """Drift plus diffusion update ``x + (eps/2) score + sqrt(eps) noise``.

    Pure by default, so the drift part is testable alone; with ``out`` (which
    must not be ``x``) the result is written there.
    """
    out = np.multiply(0.5 * step_size, score_value, out=out)
    out += x
    out += np.sqrt(step_size) * noise
    return out


def _particle_rngs(config: SamplerConfig):
    seq = np.random.SeedSequence(config.seed)
    return [np.random.default_rng(child) for child in seq.spawn(config.n_particles)]


def _chunk_steps(config: SamplerConfig, dim):
    per_step = config.n_particles * dim * 8
    return max(1, min(config.n_steps, NOISE_CHUNK_BYTES // max(per_step, 1)))


def _check_finite(x, step):
    if np.all(np.isfinite(x)):
        return
    particle = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
    raise SamplerDivergence(particle, step)


def _proposal_log_density(x_from, x_to, score_from, step_size, work=None):
    """Log-density, up to a constant, of proposing ``x_to`` from ``x_from``;
    ``work`` (shaped like ``x_from``) holds the intermediate when given."""
    work = np.multiply(0.5 * step_size, score_from, out=work)
    work += x_from
    np.subtract(x_to, work, out=work)
    np.square(work, out=work)
    return -work.sum(axis=1) / (2.0 * step_size)


def _langevin_run(target, config: SamplerConfig, metropolis: bool) -> SamplerRun:
    """Both samplers' driver.  Each chunk draws every particle's normals, then,
    with ``metropolis``, its uniforms; a plain step calls only ``score``.
    A plain step swaps the state and proposal buffers; an adjusted one copies
    accepted rows into the state."""
    rngs = _particle_rngs(config)
    n, dim = config.n_particles, target.dim
    x = np.empty((n, dim))
    for p, rng in enumerate(rngs):
        rng.standard_normal(dim, out=x[p])
    prop = np.empty_like(x)
    chunk = _chunk_steps(config, dim)
    noise = np.empty((n, chunk, dim))  # particle p's draws for step k: noise[p, k]
    history = [] if config.collect_history else None
    if metropolis:
        uniforms = np.empty((n, chunk))
        work = np.empty_like(x)
        logp = target.logp(x)
        score = np.array(target.score(x))  # a copy: accepted rows are written into it
    n_accept = 0
    step = 0
    while step < config.n_steps:
        span = min(chunk, config.n_steps - step)
        for p, rng in enumerate(rngs):
            rng.standard_normal((span, dim), out=noise[p, :span])
        if metropolis:
            for p, rng in enumerate(rngs):
                rng.random(span, out=uniforms[p, :span])  # bitwise rng.uniform(size=span)
        for k in range(span):
            if metropolis:
                langevin_step(x, score, config.step_size, noise[:, k], out=prop)
                logp_prop = target.logp(prop)
                score_prop = target.score(prop)
                log_alpha = logp_prop - logp
                log_alpha += _proposal_log_density(prop, x, score_prop, config.step_size, work)
                log_alpha -= _proposal_log_density(x, prop, score, config.step_size, work)
                accept = np.log(uniforms[:, k]) < log_alpha
                np.copyto(x, prop, where=accept[:, None])
                logp = np.where(accept, logp_prop, logp)
                np.copyto(score, score_prop, where=accept[:, None])
                n_accept += int(accept.sum())
            else:
                langevin_step(x, target.score(x), config.step_size, noise[:, k], out=prop)
                x, prop = prop, x
            t = step + k
            _check_finite(x, t)
            if history is not None and t >= config.burn_in and (t - config.burn_in) % config.thin == 0:
                history.append(x.copy())
        step += span
    hist = np.stack(history) if history else None
    rate = n_accept / (config.n_steps * config.n_particles) if metropolis else None
    return SamplerRun(states=x, history=hist, acceptance_rate=rate, n_steps=config.n_steps)


def sgld_run(target, config: SamplerConfig) -> SamplerRun:
    """Unadjusted parallel Langevin dynamics with full-batch scores."""
    return _langevin_run(target, config, metropolis=False)


def mala_run(target, config: SamplerConfig) -> SamplerRun:
    """Langevin proposals with Metropolis correction; exact invariance."""
    return _langevin_run(target, config, metropolis=True)
