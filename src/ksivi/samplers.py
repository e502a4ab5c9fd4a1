"""Ground-truth posterior samplers: parallel overdamped Langevin chains.

Both samplers run many independent particles, vectorizing score evaluations
across the particle axis.  Each particle owns its own random stream, spawned
from the master seed, so results are deterministic and independent of
execution order.

Stream: a particle draws its initial state, then its step normals in step
order; the adjusted sampler also draws ``UNIFORM_BLOCK`` uniforms ahead of
the normals of each block of that many steps, a full block also at the end
of a run.  The stream thus depends on the seed and the particle's index
alone, never on the particle count, the step count or the buffer sizes: the
first k particles of a run follow the same paths as a k-particle run from
the same seed, and an N-step run stops at the states of step N of a longer
run from the same seed.

Noise is drawn in fills of several steps per particle, which amortizes the
per-stream call (about 1.7 us plus 16 ns per normal, on a 2-core x86 VM).
A fill covers ``ceil(MIN_FILL_DRAWS / d)`` steps, at most the run, which
holds the call overhead near 5%; an adjusted fill also ends at its block's
end, which caps it at one block.  The noise buffer thus holds about 16 KiB
per particle: 17.6 MB at 1000 particles and d = 200, 176 MB at 10000.
Since splitting a fill changes no draw, no fill size changes a bit of
either sampler.

The unadjusted sampler iterates ``x + (eps/2) * score(x) + sqrt(eps) * noise``;
the adjusted variant proposes the same move and applies a Metropolis
correction (Roberts & Tweedie 1996), for which unnormalized log-densities
suffice.  Both run on one driver; the correction is their only difference.

Buffers: a run allocates one noise buffer, shaped (particles, steps, d), and
refills it for every fill, and one target workspace of
``target.work_size(particles)`` values, which every target call reuses (see
``targets``).  The state and the proposal are allocated once and overwritten
in place; so are, for the adjusted sampler, one block of uniforms, the
current state's proposal mean ``x + (eps/2) * score(x)``, which it keeps in
place of the score, and one work array for the proposal densities.  The
proposal's mean is formed in the score array that the target returned, and
the rejected rows are gathered through the density work array, so a step
allocates no (particles, d) array.  Targets receive the state buffers as
inputs, so they must not write or keep them; history rows are copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_FILL_DRAWS = 2048  # normals per particle call, rounded up to whole steps
UNIFORM_BLOCK = 512  # steps per block of the adjusted sampler's uniforms, one per step


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
    noise_chunk_steps: int  # steps per noise fill, which sets the noise buffer's size


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


def _chunk_steps(config: SamplerConfig, dim, metropolis):
    steps = -(-MIN_FILL_DRAWS // dim)
    if metropolis:  # a fill ends at its uniform block's end
        steps = min(steps, UNIFORM_BLOCK)
    return min(config.n_steps, steps)


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
    """Both samplers' driver.  Each fill draws every particle's normals for its
    steps, with ``metropolis`` after the uniforms of a block that starts there.
    A plain step calls only ``score``, an adjusted one ``logp_and_score`` once,
    at the proposal.  Each step swaps the state and proposal buffers; an
    adjusted one first copies the rejected rows of the state into the proposal,
    and those of the kept mean into the proposal's mean, which it then copies
    into the kept mean; both gathers go through ``dens``."""
    rngs = _particle_rngs(config)
    n, dim, eps = config.n_particles, target.dim, config.step_size
    x = np.empty((n, dim))
    for p, rng in enumerate(rngs):
        rng.standard_normal(dim, out=x[p])
    prop = np.empty_like(x)
    work = np.empty(target.work_size(n))  # the target's arrays, for the whole run
    chunk = _chunk_steps(config, dim, metropolis)
    noise = np.empty((n, chunk, dim))  # particle p's draws for the fill's step k: noise[p, k]
    history = [] if config.collect_history else None
    if metropolis:
        uniforms = np.empty((n, UNIFORM_BLOCK))  # particle p's draw for step t: uniforms[p, t % UNIFORM_BLOCK]
        dens = np.empty_like(x)
        logp, score = target.logp_and_score(x, work)
        mean = langevin_mean(x, score, eps, out=np.empty_like(x))
    n_accept = 0
    step = 0
    while step < config.n_steps:
        span = min(chunk, config.n_steps - step)
        if metropolis:
            offset = step % UNIFORM_BLOCK
            span = min(span, UNIFORM_BLOCK - offset)
            if offset == 0:
                for p, rng in enumerate(rngs):
                    rng.random(UNIFORM_BLOCK, out=uniforms[p])  # bitwise rng.uniform(size=UNIFORM_BLOCK)
        for p, rng in enumerate(rngs):
            rng.standard_normal((span, dim), out=noise[p, :span])
        for k in range(span):
            if metropolis:
                langevin_step(mean, eps, noise[:, k], out=prop)
                logp_prop, mean_prop = target.logp_and_score(prop, work)
                langevin_mean(prop, mean_prop, eps, out=mean_prop)
                log_alpha = logp_prop - logp
                log_alpha += _proposal_log_density(mean_prop, x, eps, dens)
                log_alpha -= _proposal_log_density(mean, prop, eps, dens)
                accept = np.log(uniforms[:, offset + k]) < log_alpha
                rejected = np.flatnonzero(~accept)
                rows = dens[: rejected.size]  # mode="clip" takes into `out` unbuffered; no index clips
                prop[rejected] = np.take(x, rejected, axis=0, out=rows, mode="clip")
                mean_prop[rejected] = np.take(mean, rejected, axis=0, out=rows, mode="clip")
                np.copyto(mean, mean_prop)  # not a swap: mean_prop may live in the target's workspace
                logp = np.where(accept, logp_prop, logp)
                n_accept += n - rejected.size
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
    return SamplerRun(states=x, history=hist, acceptance_rate=rate, noise_chunk_steps=chunk)


def sgld_run(target, config: SamplerConfig) -> SamplerRun:
    """Unadjusted parallel Langevin dynamics with full-batch scores."""
    return _langevin_run(target, config, metropolis=False)


def mala_run(target, config: SamplerConfig) -> SamplerRun:
    """Langevin proposals with Metropolis correction; exact invariance."""
    return _langevin_run(target, config, metropolis=True)
