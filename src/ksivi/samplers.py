"""Ground-truth posterior samplers: parallel overdamped Langevin chains.

Both samplers run many independent particles, vectorizing score evaluations
across the particle axis.  Each particle owns its own random stream, spawned
from the master seed, so results are deterministic and independent of
execution order, and the first k particles of a run follow the same paths
as a k-particle run from the same seed.  Noise is drawn in chunks of steps to
amortize the per-stream call overhead.  The chunk length depends on the
dimension alone, ``NOISE_CHUNK_DRAWS // d`` steps, never on the particle
count: the adjusted sampler draws each chunk's uniforms after its normals from
the same stream, so a chunk length that moved with the count would move every
later draw.  The noise buffer thus holds about 8 * ``NOISE_CHUNK_DRAWS`` bytes
per particle, 64 MiB at 1000 particles.

The unadjusted sampler iterates ``x + (eps/2) * score(x) + sqrt(eps) * noise``;
the adjusted variant proposes the same move and applies a Metropolis
correction (Roberts & Tweedie 1996), for which unnormalized log-densities
suffice.  Both run on one driver; the correction is their only difference.

Buffers: a run allocates one noise chunk, shaped (particles, steps, d), and
refills it for every chunk of steps, and one target workspace of
``target.work_size(particles)`` values, which every target call reuses (see
``targets``).  The state and the proposal are allocated once and overwritten
in place; so are, for the adjusted sampler, the current state's proposal mean
``x + (eps/2) * score(x)``, which it keeps in place of the score, and one work
array for the proposal densities.  The proposal's mean is formed in the score
array that the target returned, so a step allocates no (particles, d) array.
Targets receive the state buffers as inputs, so they must not write or keep
them; history rows are copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE_CHUNK_DRAWS = 8388  # normals per particle in one chunk


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


def langevin_mean(x, score_value, step_size, out=None):
    """Drift part ``x + (eps/2) score`` of a Langevin move from ``x``: its proposal mean.

    Pure by default; with ``out`` (which may be ``score_value``, not ``x``)
    the result is written there.
    """
    out = np.multiply(0.5 * step_size, score_value, out=out)
    out += x
    return out


def langevin_step(mean, step_size, noise, out=None):
    """Diffusion part: the move ``mean + sqrt(eps) noise`` from a proposal mean.

    With ``out`` (which must not be ``mean``) the result is written there.
    """
    out = np.multiply(np.sqrt(step_size), noise, out=out)
    out += mean
    return out


def _particle_rngs(config: SamplerConfig):
    seq = np.random.SeedSequence(config.seed)
    return [np.random.default_rng(child) for child in seq.spawn(config.n_particles)]


def _chunk_steps(config: SamplerConfig, dim):
    return max(1, min(config.n_steps, NOISE_CHUNK_DRAWS // dim))


def _check_finite(x, step):
    if np.all(np.isfinite(x)):
        return
    particle = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
    raise SamplerDivergence(particle, step)


def _proposal_log_density(mean_from, x_to, step_size, work=None):
    """Log-density, up to a constant, of proposing ``x_to`` from the state whose
    proposal mean is ``mean_from``; ``work`` (shaped like it) holds the intermediate."""
    work = np.subtract(x_to, mean_from, out=work)
    np.square(work, out=work)
    return -work.sum(axis=1) / (2.0 * step_size)


def _langevin_run(target, config: SamplerConfig, metropolis: bool) -> SamplerRun:
    """Both samplers' driver.  Each chunk draws every particle's normals, then,
    with ``metropolis``, its uniforms; a plain step calls only ``score``, an
    adjusted one ``logp_and_score`` once, at the proposal.  A plain step swaps
    the state and proposal buffers; an adjusted one copies accepted rows of
    the proposal and its mean into the state and the kept mean."""
    rngs = _particle_rngs(config)
    n, dim, eps = config.n_particles, target.dim, config.step_size
    x = np.empty((n, dim))
    for p, rng in enumerate(rngs):
        rng.standard_normal(dim, out=x[p])
    prop = np.empty_like(x)
    work = np.empty(target.work_size(n))  # the target's arrays, for the whole run
    chunk = _chunk_steps(config, dim)
    noise = np.empty((n, chunk, dim))  # particle p's draws for step k: noise[p, k]
    history = [] if config.collect_history else None
    if metropolis:
        uniforms = np.empty((n, chunk))
        dens = np.empty_like(x)
        logp, score = target.logp_and_score(x, work)
        mean = langevin_mean(x, score, eps, out=np.empty_like(x))
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
                langevin_step(mean, eps, noise[:, k], out=prop)
                logp_prop, mean_prop = target.logp_and_score(prop, work)
                langevin_mean(prop, mean_prop, eps, out=mean_prop)
                log_alpha = logp_prop - logp
                log_alpha += _proposal_log_density(mean_prop, x, eps, dens)
                log_alpha -= _proposal_log_density(mean, prop, eps, dens)
                accept = np.log(uniforms[:, k]) < log_alpha
                np.copyto(x, prop, where=accept[:, None])
                logp = np.where(accept, logp_prop, logp)
                np.copyto(mean, mean_prop, where=accept[:, None])
                n_accept += int(accept.sum())
            else:
                score = target.score(x, work)
                langevin_step(langevin_mean(x, score, eps, out=score), eps, noise[:, k], out=prop)
                x, prop = prop, x
            t = step + k
            _check_finite(x, t)
            if history is not None and t >= config.burn_in and (t - config.burn_in) % config.thin == 0:
                history.append(x.copy())
        step += span
    hist = np.stack(history) if history else None
    rate = n_accept / (config.n_steps * config.n_particles) if metropolis else None
    return SamplerRun(states=x, history=hist, acceptance_rate=rate)


def sgld_run(target, config: SamplerConfig) -> SamplerRun:
    """Unadjusted parallel Langevin dynamics with full-batch scores."""
    return _langevin_run(target, config, metropolis=False)


def mala_run(target, config: SamplerConfig) -> SamplerRun:
    """Langevin proposals with Metropolis correction; exact invariance."""
    return _langevin_run(target, config, metropolis=True)
