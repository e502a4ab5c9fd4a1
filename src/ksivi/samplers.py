"""Ground-truth posterior samplers: parallel overdamped Langevin chains.

Both samplers run many independent particles, vectorizing score evaluations
across the particle axis.  A run draws from one ``np.random.default_rng(seed)``
in step order: the (particles, d) initial states, then each step's
(particles, d) normals in row-major order and, for the adjusted sampler, the
step's uniform per particle.  So runs are deterministic, and an N-step run
stops at the states of step N of a longer run from the same seed.  The
particles share the stream, so the first k particles of a run are not a
k-particle run: a stream per particle would keep that, but no caller reads
it, and it costs a generator per particle (20-40 ms to spawn 1000 on a 2-core
Xeon VM) and a noise buffer of several steps per particle to amortize their
calls.

The unadjusted sampler iterates ``x + (eps/2) * score(x) + sqrt(eps) * noise``;
the adjusted variant proposes the same move and applies a Metropolis
correction (Roberts & Tweedie 1996), for which unnormalized log-densities
suffice.  Both run on one driver; the correction is their only difference.

Blocks: a step walks the particles in row blocks of
``max(1, _PARTICLE_BLOCK // d)`` particles (163 at d = 200), so that the
step's elementwise passes over a block run while it sits in cache: loop
tiling (Wolf & Lam 1991).  In row order, each block draws its normals into its
rows of the proposal, calls the target once, and forms the move; the
unadjusted sampler then checks the new rows for non-finite values, which names
the particle and step that a check of the whole state would.  The adjusted
sampler forms the block's proposal mean, its log-density and both proposal
densities into the step's log acceptance ratios; after the last block it
draws the step's uniforms, so the stream keeps the order above, and accepts
over the whole state.  Rows are independent, so the blocks move no bit on the
Gaussian mixture, banana, Student-t and diffusion targets.  Logistic
regression's products are the exception, as a library kernel rounds with the
batch width under OpenBLAS: at 1,000 particles, blocks of 64, 163 or 500 rows
differ from the whole batch in the last bits.  At d = 22 a block holds 1,489
particles, so the presets keep their bits; a run of more particles than that
takes other bits than one whole-batch pass.

Only the unadjusted sampler raises ``SamplerDivergence``.  The adjusted one
gives a proposal row that is not finite, or whose proposal mean is not, a log
acceptance ratio of nan or -inf, which no uniform's log falls below, so the
row is rejected and keeps its finite state.  A run returns each particle's
final state and keeps none along the way, so ``SamplerConfig`` refuses a
``burn_in`` other than 0 and a ``thin`` other than 1.  Those two fields stay
only because the benchmark's ground-truth phase (``perfbench/workload.py``'s
``gt_phase``) passes them; no config key sets them.  ``RUNNERS`` maps each
``sampler.algorithm`` name to its run function.

Buffers, allocated once per run, none growing with the step count: the state
and the proposal, both (particles, d), the proposal also taking the step's
normals, and one target workspace of ``target.work_size(rows)`` values for a
block of ``rows`` particles, which every target call reuses (see
``targets``).  The adjusted sampler adds four (particles,) arrays (uniforms,
log-densities of the state and of the proposal, log acceptance ratios), two
proposal means, (particles, d) each, and one block of work rows for the
proposal densities.  A block's proposal mean goes into the second mean
buffer, and after the accept step the two means are swapped, not copied.  The
rejected rows of the state and of the kept mean are gathered over the
proposal's through the work rows, a block at a time, so a step allocates no
(particles, d) array.  Targets receive the state buffers as inputs, so they
must not write or keep them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SamplerDivergence(RuntimeError):
    """Raised when an unadjusted step turns a particle's state non-finite (mala rejects such a move)."""

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

    def __post_init__(self):
        # each message opens with the field it rejects; configio names the key by it
        if self.n_particles < 1:
            raise ValueError("n_particles must be at least 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not np.isfinite(self.step_size):  # NaN passes the check below
            raise ValueError(f"step_size must be finite, got {self.step_size}")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.burn_in != 0:
            raise ValueError("burn_in must be 0: a run returns each particle's final state")
        if self.thin != 1:
            raise ValueError("thin must be 1: a run returns each particle's final state")


@dataclass
class SamplerRun:
    """Final particle states plus run diagnostics."""

    states: np.ndarray  # (n_particles, d)
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


def _check_finite(x, step, first=0):
    """Raise ``SamplerDivergence`` at the first non-finite row of ``x``, the
    particles from ``first`` on."""
    if np.all(np.isfinite(x)):
        return
    particle = first + int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
    raise SamplerDivergence(particle, step)


def _proposal_log_density(mean_from, x_to, step_size, work=None):
    """Log-density, up to a constant, of proposing ``x_to`` from the state whose
    proposal mean is ``mean_from``; ``work`` (shaped like it) holds the intermediate."""
    work = np.subtract(x_to, mean_from, out=work)
    np.square(work, out=work)
    return -work.sum(axis=1) / (2.0 * step_size)


_PARTICLE_BLOCK = 2**15  # state values per block of particles that a step walks


def _blocks(n, dim):
    """Row slices of ``max(1, _PARTICLE_BLOCK // dim)`` particles covering ``n``, in row order."""
    rows = max(1, _PARTICLE_BLOCK // dim)
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def _langevin_run(target, config: SamplerConfig, metropolis: bool) -> SamplerRun:
    """Both samplers' driver.  A step walks the particles block by block: a
    plain step calls only ``score``, an adjusted one ``logp_and_score`` once, at
    the block's proposal.  The proposal buffer takes the block's normals and
    then the move.  An adjusted step accepts over the whole state once every
    block is proposed, copies the rejected rows of the state and of the kept
    mean over the proposal's, through ``dens``, and swaps the means."""
    rng = np.random.default_rng(config.seed)
    n, eps = config.n_particles, config.step_size
    x = rng.standard_normal((n, target.dim))
    prop = np.empty_like(x)
    blocks = _blocks(n, target.dim)
    rows = blocks[0].stop
    work = np.empty(target.work_size(rows))  # the target's arrays for one block, for the whole run
    if metropolis:
        uniforms, logp, logp_prop, log_alpha = np.empty((4, n))
        mean, mean_prop = np.empty_like(x), np.empty_like(x)
        dens = np.empty((rows, target.dim))
        for b in blocks:
            logp[b], score = target.logp_and_score(x[b], work)
            langevin_mean(x[b], score, eps, out=mean[b])
    n_accept = 0
    for t in range(config.n_steps):
        for b in blocks:
            xb, pb = x[b], prop[b]
            rng.standard_normal(out=pb)
            if metropolis:
                langevin_step(mean[b], eps, pb, out=pb)
                logp_prop[b], score = target.logp_and_score(pb, work)
                mean_pb = langevin_mean(pb, score, eps, out=mean_prop[b])
                alpha = np.subtract(logp_prop[b], logp[b], out=log_alpha[b])
                alpha += _proposal_log_density(mean_pb, xb, eps, dens[: len(pb)])
                alpha -= _proposal_log_density(mean[b], pb, eps, dens[: len(pb)])
            else:
                score = target.score(xb, work)
                langevin_step(langevin_mean(xb, score, eps, out=score), eps, pb, out=pb)
                _check_finite(pb, t, b.start)
        if metropolis:
            rng.random(out=uniforms)
            accept = np.log(uniforms) < log_alpha
            rejected = np.flatnonzero(~accept)
            for i in range(0, rejected.size, rows):
                idx = rejected[i : i + rows]
                held = dens[: idx.size]  # mode="clip" takes into `out` unbuffered; no index clips
                prop[idx] = np.take(x, idx, axis=0, out=held, mode="clip")
                mean_prop[idx] = np.take(mean, idx, axis=0, out=held, mode="clip")
            mean, mean_prop = mean_prop, mean
            np.copyto(logp, logp_prop, where=accept)
            n_accept += n - rejected.size
        x, prop = prop, x
    rate = n_accept / (config.n_steps * config.n_particles) if metropolis else None
    return SamplerRun(states=x, acceptance_rate=rate)


def sgld_run(target, config: SamplerConfig) -> SamplerRun:
    """Unadjusted parallel Langevin dynamics with full-batch scores."""
    return _langevin_run(target, config, metropolis=False)


def mala_run(target, config: SamplerConfig) -> SamplerRun:
    """Langevin proposals with Metropolis correction; exact invariance."""
    return _langevin_run(target, config, metropolis=True)


RUNNERS = {"sgld": sgld_run, "mala": mala_run}  # sampler.algorithm -> run
