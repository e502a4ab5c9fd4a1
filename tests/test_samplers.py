import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ksivi import samplers
from ksivi.samplers import (
    SamplerConfig,
    SamplerDivergence,
    SamplerRun,
    _check_finite,
    _particle_rngs,
    _proposal_log_density,
    langevin_mean,
    langevin_step,
    mala_run,
    sgld_run,
)
from ksivi.targets import (
    Banana,
    ConditionedDiffusion,
    LogisticRegression,
    TargetModel,
    diagonal_gaussian,
    generate_cd_observations,
    make_waveform_dataset,
)


def gaussian5():
    return diagonal_gaussian(np.zeros(5), np.ones(5))


def cd20():
    idx, obs, _ = generate_cd_observations(5, n_steps=20)
    return ConditionedDiffusion(idx, obs, n_steps=20)


def blr30():
    features, labels = make_waveform_dataset(n_rows=30, seed=1)
    return LogisticRegression(np.concatenate([np.ones((30, 1)), features], axis=1), labels)


# Reference: the two separate samplers that the single driver replaced,
# copied unchanged, with the initial states they used (less the branch for a
# given ``init``, an option no caller set), and the allocating step and
# proposal density they called.  Their chunk sizing follows the driver's rule,
# a chunk of steps from the dimension alone, which leaves every 1000-particle
# run's bits as they were under the old 64 MiB rule.
NOISE_CHUNK_DRAWS = 8388


def reference_langevin_step(x, score_value, step_size, noise):
    """Drift plus diffusion update; pure so the drift part is testable alone."""
    return x + 0.5 * step_size * score_value + np.sqrt(step_size) * noise


def reference_proposal_log_density(x_from, x_to, score_from, step_size):
    mean = x_from + 0.5 * step_size * score_from
    return -((x_to - mean) ** 2).sum(axis=1) / (2.0 * step_size)


def _initial_states(config: SamplerConfig, rngs, dim):
    return np.stack([rng.standard_normal(dim) for rng in rngs])


def _chunk_steps(config: SamplerConfig, dim, draws_per_step):
    return max(1, min(config.n_steps, NOISE_CHUNK_DRAWS // (dim * draws_per_step)))


def reference_sgld_run(target, config: SamplerConfig) -> SamplerRun:
    """Unadjusted parallel Langevin dynamics with full-batch scores."""
    rngs = _particle_rngs(config)
    x = _initial_states(config, rngs, target.dim)
    dim = target.dim
    chunk = _chunk_steps(config, dim, draws_per_step=1)
    history = [] if config.collect_history else None
    step = 0
    while step < config.n_steps:
        span = min(chunk, config.n_steps - step)
        noise = np.stack([rng.standard_normal((span, dim)) for rng in rngs], axis=1)
        for k in range(span):
            x = reference_langevin_step(x, target.score(x), config.step_size, noise[k])
            _check_finite(x, step + k)
            if history is not None:
                t = step + k
                if t >= config.burn_in and (t - config.burn_in) % config.thin == 0:
                    history.append(x.copy())
        step += span
    hist = np.stack(history) if history else None
    return SamplerRun(states=x, history=hist, acceptance_rate=None)


def reference_mala_run(target, config: SamplerConfig) -> SamplerRun:
    """Langevin proposals with Metropolis correction; exact invariance."""
    rngs = _particle_rngs(config)
    x = _initial_states(config, rngs, target.dim)
    dim = target.dim
    chunk = _chunk_steps(config, dim, draws_per_step=1)
    history = [] if config.collect_history else None
    logp = target.logp(x)
    score = target.score(x)
    n_accept = 0
    step = 0
    while step < config.n_steps:
        span = min(chunk, config.n_steps - step)
        noise = np.stack([rng.standard_normal((span, dim)) for rng in rngs], axis=1)
        uniforms = np.stack([rng.uniform(size=span) for rng in rngs], axis=1)
        for k in range(span):
            prop = reference_langevin_step(x, score, config.step_size, noise[k])
            logp_prop = target.logp(prop)
            score_prop = target.score(prop)
            log_alpha = (
                logp_prop
                - logp
                + reference_proposal_log_density(prop, x, score_prop, config.step_size)
                - reference_proposal_log_density(x, prop, score, config.step_size)
            )
            accept = np.log(uniforms[k]) < log_alpha
            x = np.where(accept[:, None], prop, x)
            logp = np.where(accept, logp_prop, logp)
            score = np.where(accept[:, None], score_prop, score)
            n_accept += int(accept.sum())
            _check_finite(x, step + k)
            if history is not None:
                t = step + k
                if t >= config.burn_in and (t - config.burn_in) % config.thin == 0:
                    history.append(x.copy())
        step += span
    hist = np.stack(history) if history else None
    rate = n_accept / (config.n_steps * config.n_particles)
    return SamplerRun(states=x, history=hist, acceptance_rate=rate)


class TestSingleDriver:
    # step sizes at which both samplers stay finite and mala rejects some moves
    @pytest.mark.parametrize(
        "make_target, step_size",
        [(gaussian5, 1.0), (Banana, 0.02), (cd20, 0.003), (blr30, 0.03)],
        ids=["gaussian5", "banana", "cd20", "blr30"],
    )
    @pytest.mark.parametrize(
        "run, reference",
        [(sgld_run, reference_sgld_run), (mala_run, reference_mala_run)],
        ids=["sgld", "mala"],
    )
    @pytest.mark.parametrize("chunk_steps", [None, 4], ids=["one-chunk", "chunks-of-4"])
    def test_bitwise_equal_to_separate_samplers(self, monkeypatch, make_target, step_size, run, reference, chunk_steps):
        target = make_target()
        config = SamplerConfig(
            n_particles=7,
            n_steps=30,
            step_size=step_size,
            burn_in=5,
            thin=3,
            seed=31,
            collect_history=True,
        )
        if chunk_steps is not None:
            monkeypatch.setattr(samplers, "NOISE_CHUNK_DRAWS", chunk_steps * target.dim)
            monkeypatch.setitem(globals(), "NOISE_CHUNK_DRAWS", chunk_steps * target.dim)
            # 30 steps in chunks of 4: 8 chunks, the last one short
            assert samplers._chunk_steps(config, target.dim) == chunk_steps
        got = run(target, config)
        expect = reference(target, config)
        assert np.array_equal(got.states, expect.states)
        assert got.history.shape == (9, 7, target.dim)
        assert np.array_equal(got.history, expect.history)
        assert got.acceptance_rate == expect.acceptance_rate
        if run is mala_run:
            assert 0.0 < got.acceptance_rate < 1.0
        # history rows are copies, not views of the reused state buffers
        assert not np.shares_memory(got.history, got.states)


class TestBuffers:
    def test_peak_memory_below_two_noise_chunks(self, monkeypatch):
        # 400 steps in chunks of 120: four chunks, the last one short.  A run
        # holds one noise chunk plus particle-sized arrays; a second copy of
        # the chunk (a per-particle list stacked, or a fresh chunk allocated
        # while the old one is alive) would pass 2x.
        target = gaussian5()
        config = SamplerConfig(n_particles=200, n_steps=400, step_size=0.01, seed=10)
        chunk_bytes = 120 * config.n_particles * target.dim * 8
        monkeypatch.setattr(samplers, "NOISE_CHUNK_DRAWS", 120 * target.dim)
        sgld_run(target, config)  # first-call allocations stay out of the trace
        tracemalloc.start()
        try:
            sgld_run(target, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * chunk_bytes

    @pytest.mark.parametrize("run", [sgld_run, mala_run], ids=["sgld", "mala"])
    def test_cd_steps_allocate_no_particle_block(self, run):
        # 400 particles on a 50-state path: after the first two target calls,
        # the rest of 12 steps may not raise the traced peak by one
        # (particles, d) float64 array.
        # The target keeps its arrays in the run's workspace, and the proposal
        # mean is formed in the score it returns.
        n, dim = 400, 50
        marks = {}

        class Marked(ConditionedDiffusion):
            calls = 0

            def mark(self):
                self.calls += 1
                if self.calls == 3:  # the noise chunk and every buffer exist by now
                    tracemalloc.reset_peak()
                    marks["start"] = tracemalloc.get_traced_memory()[0]

            def _score(self, X, work=None):
                self.mark()
                return super()._score(X, work)

            def _logp_and_score(self, X, work=None):
                self.mark()
                return super()._logp_and_score(X, work)

        idx, obs, _ = generate_cd_observations(5, n_steps=dim)
        config = SamplerConfig(n_particles=n, n_steps=12, step_size=1e-4, seed=3)
        tracemalloc.start()
        try:
            got = run(Marked(idx, obs, n_steps=dim), config)
            marks["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert marks["peak"] - marks["start"] < n * dim * 8
        assert np.array_equal(got.states, run(ConditionedDiffusion(idx, obs, n_steps=dim), config).states)

    def test_langevin_step_out_matches_pure_form(self):
        rng = np.random.default_rng(12)
        x, score, noise = rng.standard_normal((3, 8, 4))
        expect = reference_langevin_step(x, score, 0.3, noise)
        assert np.array_equal(langevin_step(langevin_mean(x, score, 0.3), 0.3, noise), expect)
        # in place: the mean over the score, the move into its own buffer
        out, mean = np.empty_like(x), score.copy()
        assert langevin_mean(x, mean, 0.3, out=mean) is mean
        assert langevin_step(mean, 0.3, noise, out=out) is out
        assert np.array_equal(out, expect)

    def test_proposal_density_work_matches_pure_form(self):
        rng = np.random.default_rng(13)
        x_from, x_to, score = rng.standard_normal((3, 8, 4))
        work = np.empty_like(x_from)
        expect = reference_proposal_log_density(x_from, x_to, score, 0.3)
        mean = langevin_mean(x_from, score, 0.3)
        assert np.array_equal(_proposal_log_density(mean, x_to, 0.3, work), expect)
        assert np.array_equal(_proposal_log_density(mean, x_to, 0.3), expect)


class TestLangevinStep:
    def test_drift_only_exactness(self):
        target = Banana()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 2))
        stepped = langevin_step(langevin_mean(x, target.score(x), 0.05), 0.05, np.zeros_like(x))
        assert np.array_equal(stepped, x + 0.025 * target.score(x))

    def test_noise_scale(self):
        x = np.zeros((3, 2))
        noise = np.ones((3, 2))
        stepped = langevin_step(langevin_mean(x, np.zeros_like(x), 0.04), 0.04, noise)
        assert np.allclose(stepped, 0.2)


class TestSGLD:
    def test_stationary_variance(self):
        config = SamplerConfig(n_particles=400, n_steps=4000, step_size=0.01, seed=1)
        run = sgld_run(gaussian5(), config)
        variances = run.states.var(axis=0)
        assert np.all(variances > 0.9) and np.all(variances < 1.15)

    def test_bitwise_deterministic(self):
        config = SamplerConfig(n_particles=50, n_steps=200, step_size=0.01, seed=2)
        a = sgld_run(gaussian5(), config)
        b = sgld_run(gaussian5(), config)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("run", [sgld_run, mala_run], ids=["sgld", "mala"])
    def test_leading_particles_match_a_smaller_run(self, monkeypatch, run):
        # each particle owns a stream spawned from the seed: the first k rows
        # of an n-particle run are a k-particle run from the same seed, also
        # across chunks, where mala's uniforms follow each chunk's normals
        def config(n):
            return SamplerConfig(n_particles=n, n_steps=60, step_size=0.02, burn_in=10, seed=17, collect_history=True)

        monkeypatch.setattr(samplers, "NOISE_CHUNK_DRAWS", 40)
        assert samplers._chunk_steps(config(60), 2) == samplers._chunk_steps(config(4), 2) == 20  # 3 chunks
        full = run(Banana(), config(60))
        head = run(Banana(), config(4))
        assert np.array_equal(full.states[:4], head.states)
        assert np.array_equal(full.history[:, :4], head.history)

    def test_history_collection(self):
        config = SamplerConfig(
            n_particles=10,
            n_steps=50,
            step_size=0.01,
            burn_in=20,
            thin=5,
            seed=3,
            collect_history=True,
        )
        run = sgld_run(gaussian5(), config)
        assert run.history.shape == (6, 10, 5)

    def test_divergence_reported(self):
        class ExplodingTarget(TargetModel):
            dim = 1

            def _logp(self, X):
                return np.zeros(X.shape[0])

            def _score(self, X, work=None):
                with np.errstate(over="ignore"):
                    return X * 1e6

        config = SamplerConfig(n_particles=3, n_steps=400, step_size=1.0, seed=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SamplerDivergence) as err:
                sgld_run(ExplodingTarget(), config)
        assert err.value.step >= 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_particles=0, n_steps=10, step_size=0.1)
        with pytest.raises(ValueError):
            SamplerConfig(n_particles=1, n_steps=10, step_size=0.1, burn_in=10)


class TestMALA:
    def test_acceptance_band_on_gaussian(self):
        config = SamplerConfig(n_particles=200, n_steps=2000, step_size=1.5, seed=5)
        run = mala_run(gaussian5(), config)
        assert 0.4 < run.acceptance_rate < 0.8

    def test_stationary_variance_tight(self):
        config = SamplerConfig(
            n_particles=500,
            n_steps=3000,
            step_size=1.5,
            burn_in=1000,
            thin=10,
            seed=6,
            collect_history=True,
        )
        run = mala_run(gaussian5(), config)
        variances = run.history.reshape(-1, 5).var(axis=0)
        assert np.all(variances > 0.97) and np.all(variances < 1.03)

    def test_detailed_balance_spot_check_1d(self):
        target = diagonal_gaussian(np.zeros(1), np.ones(1))
        config = SamplerConfig(
            n_particles=100,
            n_steps=1500,
            step_size=0.9,
            burn_in=500,
            thin=10,
            seed=7,
            collect_history=True,
        )
        run = mala_run(target, config)
        pooled = run.history.reshape(-1)
        assert pooled.size == 10_000
        _, pvalue = stats.kstest(pooled, "norm")
        assert pvalue > 0.01

    def test_self_proposal_always_accepted(self):
        # zero step noise makes the proposal essentially x itself only in the
        # drift-free case; instead verify directly that the log acceptance of
        # an identical proposal is zero
        from ksivi.samplers import _proposal_log_density

        target = gaussian5()
        x = np.random.default_rng(8).standard_normal((4, 5))
        mean = langevin_mean(x, target.score(x), 0.5)
        log_alpha = (
            target.logp(x)
            - target.logp(x)
            + _proposal_log_density(mean, x, 0.5)
            - _proposal_log_density(mean, x, 0.5)
        )
        assert np.array_equal(log_alpha, np.zeros(4))

    def test_bitwise_deterministic(self):
        config = SamplerConfig(n_particles=30, n_steps=150, step_size=0.5, seed=9)
        a = mala_run(gaussian5(), config)
        b = mala_run(gaussian5(), config)
        assert np.array_equal(a.states, b.states)
        assert a.acceptance_rate == b.acceptance_rate
