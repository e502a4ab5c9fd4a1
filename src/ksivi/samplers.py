"""Ground-truth posterior samplers: parallel overdamped Langevin chains.

Both samplers run many independent particles, vectorizing score evaluations
across the particle axis.  A run draws from one ``np.random.default_rng(seed)``
in step order: the (particles, d) initial states, then each step's
(particles, d) normals and, for the adjusted sampler, the step's uniform per
particle.  So runs are deterministic, and an N-step run stops at the states
of step N of a longer run from the same seed.  The particles share the
stream, so the first k particles of a run are not a k-particle run: a stream
per particle would keep that, but no caller reads it, and it costs a
generator per particle (20-40 ms to spawn 1000 on a 2-core Xeon VM) and a
noise buffer of several steps per particle to amortize their calls.

The unadjusted sampler iterates ``x + (eps/2) * score(x) + sqrt(eps) * noise``;
the adjusted variant proposes the same move and applies a Metropolis
correction (Roberts & Tweedie 1996), for which unnormalized log-densities
suffice.  Both run on one driver; the correction is their only difference.

Buffers, allocated once per run, none growing with the step count: the state
and the proposal, both (particles, d), the proposal also taking the step's
normals, and one target workspace of ``target.work_size(particles)`` values,
which every target call reuses (see ``targets``).  The adjusted sampler adds
the step's uniforms, the current state's proposal mean
``x + (eps/2) * score(x)``, kept in place of the score, and one work array for
the proposal densities.  The proposal's mean is formed in the score array
that the target returned, and the rejected rows are gathered through the
density work array, so a step allocates no (particles, d) array.  Targets
receive the state buffers as inputs, so they must not write or keep them;
history rows are copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    With ``out`` (which may be ``noise``, not ``mean``) the result is written there.
    """
    out = np.multiply(np.sqrt(step_size), noise, out=out)
    out += mean
    return out


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
    """Both samplers' driver.  A plain step calls only ``score``, an adjusted one
    ``logp_and_score`` once, at the proposal.  The proposal buffer takes the
    step's normals and then the move; an adjusted step copies the rejected rows
    of the state and of the kept mean back over the proposal's, through ``dens``."""
    rng = np.random.default_rng(config.seed)
    n, eps = config.n_particles, config.step_size
    x = rng.standard_normal((n, target.dim))
    prop = np.empty_like(x)
    work = np.empty(target.work_size(n))  # the target's arrays, for the whole run
    history = [] if config.collect_history else None
    if metropolis:
        uniforms = np.empty(n)
        dens = np.empty_like(x)
        logp, score = target.logp_and_score(x, work)
        mean = langevin_mean(x, score, eps, out=np.empty_like(x))
    n_accept = 0
    for t in range(config.n_steps):
        rng.standard_normal(out=prop)
        if metropolis:
            rng.random(out=uniforms)
            langevin_step(mean, eps, prop, out=prop)
            logp_prop, mean_prop = target.logp_and_score(prop, work)
            langevin_mean(prop, mean_prop, eps, out=mean_prop)
            log_alpha = logp_prop - logp
            log_alpha += _proposal_log_density(mean_prop, x, eps, dens)
            log_alpha -= _proposal_log_density(mean, prop, eps, dens)
            accept = np.log(uniforms) < log_alpha
            rejected = np.flatnonzero(~accept)
            rows = dens[: rejected.size]  # mode="clip" takes into `out` unbuffered; no index clips
            prop[rejected] = np.take(x, rejected, axis=0, out=rows, mode="clip")
            mean_prop[rejected] = np.take(mean, rejected, axis=0, out=rows, mode="clip")
            np.copyto(mean, mean_prop)  # not a swap: mean_prop may live in the target's workspace
            logp = np.where(accept, logp_prop, logp)
            n_accept += n - rejected.size
        else:
            score = target.score(x, work)
            langevin_step(langevin_mean(x, score, eps, out=score), eps, prop, out=prop)
        x, prop = prop, x
        _check_finite(x, t)
        if history is not None and t >= config.burn_in and (t - config.burn_in) % config.thin == 0:
            history.append(x.copy())
    hist = np.stack(history) if history else None
    rate = n_accept / (config.n_steps * config.n_particles) if metropolis else None
    return SamplerRun(states=x, history=hist, acceptance_rate=rate)


def sgld_run(target, config: SamplerConfig) -> SamplerRun:
    """Unadjusted parallel Langevin dynamics with full-batch scores."""
    return _langevin_run(target, config, metropolis=False)


def mala_run(target, config: SamplerConfig) -> SamplerRun:
    """Langevin proposals with Metropolis correction; exact invariance."""
    return _langevin_run(target, config, metropolis=True)
