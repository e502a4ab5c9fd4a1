import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ksivi.samplers import (
    SamplerConfig,
    SamplerDivergence,
    SamplerRun,
    _check_finite,
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
    return LogisticRegression.from_features(*make_waveform_dataset(n_rows=30, seed=1))


# Reference: the two separate samplers that the single driver replaced, with
# the initial states they used (less the branch for a given ``init``, an
# option no caller set), and the allocating step and proposal density they
# called.  They keep no buffers: each draw allocates, from one generator in
# the order the samplers' module docstring defines: the initial states, then
# each step's normals and, for mala, the step's uniforms.


def reference_langevin_step(x, score_value, step_size, noise):
    """Drift plus diffusion update; pure so the drift part is testable alone."""
    return x + 0.5 * step_size * score_value + np.sqrt(step_size) * noise


def reference_proposal_log_density(x_from, x_to, score_from, step_size):
    mean = x_from + 0.5 * step_size * score_from
    return -((x_to - mean) ** 2).sum(axis=1) / (2.0 * step_size)


def reference_sgld_run(target, config: SamplerConfig) -> SamplerRun:
    """Unadjusted parallel Langevin dynamics with full-batch scores."""
    rng = np.random.default_rng(config.seed)
    shape = (config.n_particles, target.dim)
    x = rng.standard_normal(shape)
    history = [] if config.collect_history else None
    for t in range(config.n_steps):
        x = reference_langevin_step(x, target.score(x), config.step_size, rng.standard_normal(shape))
        _check_finite(x, t)
        if history is not None and t >= config.burn_in and (t - config.burn_in) % config.thin == 0:
            history.append(x.copy())
    hist = np.stack(history) if history else None
    return SamplerRun(states=x, history=hist, acceptance_rate=None)


def reference_mala_run(target, config: SamplerConfig) -> SamplerRun:
    """Langevin proposals with Metropolis correction; exact invariance."""
    rng = np.random.default_rng(config.seed)
    shape = (config.n_particles, target.dim)
    x = rng.standard_normal(shape)
    history = [] if config.collect_history else None
    logp = target.logp(x)
    score = target.score(x)
    n_accept = 0
    for t in range(config.n_steps):
        noise = rng.standard_normal(shape)
        uniforms = rng.uniform(size=config.n_particles)
        prop = reference_langevin_step(x, score, config.step_size, noise)
        logp_prop = target.logp(prop)
        score_prop = target.score(prop)
        log_alpha = (
            logp_prop
            - logp
            + reference_proposal_log_density(prop, x, score_prop, config.step_size)
            - reference_proposal_log_density(x, prop, score, config.step_size)
        )
        accept = np.log(uniforms) < log_alpha
        x = np.where(accept[:, None], prop, x)
        logp = np.where(accept, logp_prop, logp)
        score = np.where(accept[:, None], score_prop, score)
        n_accept += int(accept.sum())
        _check_finite(x, t)
        if history is not None and t >= config.burn_in and (t - config.burn_in) % config.thin == 0:
            history.append(x.copy())
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
    # run shapes: (particles, steps, burn_in, thin, history); the stream
    # interleaves the particles' draws, so its order shows in a single
    # particle, a single step, more particles than steps, a history that keeps
    # only the last step or none at all
    @pytest.mark.parametrize(
        "shape",
        [
            (7, 30, 5, 3, True),
            (1, 30, 5, 3, True),
            (7, 1, 0, 1, True),
            (7, 30, 29, 3, True),
            (256, 4, 1, 2, True),
            (7, 30, 5, 3, False),
        ],
        ids=["base", "one-particle", "one-step", "last-step-kept", "many-particles", "no-history"],
    )
    def test_bitwise_equal_to_separate_samplers(self, make_target, step_size, run, reference, shape):
        n_particles, n_steps, burn_in, thin, collect_history = shape
        target = make_target()
        config = SamplerConfig(
            n_particles=n_particles,
            n_steps=n_steps,
            step_size=step_size,
            burn_in=burn_in,
            thin=thin,
            seed=31,
            collect_history=collect_history,
        )
        got = run(target, config)
        expect = reference(target, config)
        assert np.array_equal(got.states, expect.states)
        assert got.acceptance_rate == expect.acceptance_rate
        if shape == (7, 30, 5, 3, True):
            assert got.history.shape == (9, 7, target.dim)
            if run is mala_run:
                assert 0.0 < got.acceptance_rate < 1.0
        if not collect_history:
            assert got.history is None and expect.history is None
            return
        assert got.history.shape == (len(range(burn_in, n_steps, thin)), n_particles, target.dim)
        assert np.array_equal(got.history, expect.history)
        # history rows are copies, not views of the reused state buffers
        assert not np.shares_memory(got.history, got.states)


class TestBuffers:
    @pytest.mark.parametrize("run", [sgld_run, mala_run], ids=["sgld", "mala"])
    @pytest.mark.parametrize("n", [200, 2000])
    def test_peak_memory_holds_no_step_axis(self, run, n):
        # on a 20-state path, a run holds the generator's draws, the state
        # buffers, the workspace and a few (n, d) temporaries, whatever its
        # step count: a buffer of several steps' noise, or any array that
        # grows with the steps, would move the 300-step peak away from the
        # 30-step one
        target = cd20()
        run(target, SamplerConfig(n_particles=n, n_steps=2, step_size=0.003))  # first-call allocations
        array_bytes = 8 * n * target.dim
        peaks = []
        for n_steps in (30, 300):
            tracemalloc.start()
            try:
                run(target, SamplerConfig(n_particles=n, n_steps=n_steps, step_size=0.003, seed=10))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 12 * array_bytes
        assert abs(peaks[1] - peaks[0]) < array_bytes

    @pytest.mark.parametrize(
        "run, step_size", [(sgld_run, 1e-4), (mala_run, 1e-4), (mala_run, 1.0)], ids=["sgld", "mala", "mala-rejecting"]
    )
    def test_cd_steps_allocate_no_particle_block(self, run, step_size):
        # 400 particles on a 50-state path: after the first two target calls,
        # the rest of 12 steps may not raise the traced peak by one
        # (particles, d) float64 array.
        # The target keeps its arrays in the run's workspace, and the proposal
        # mean is formed in the score it returns.  At step 1.0 mala rejects
        # every proposal, and its accept step copies every row of the state
        # and the mean back.
        n, dim = 400, 50
        marks = {}

        class Marked(ConditionedDiffusion):
            calls = 0

            def mark(self):
                self.calls += 1
                if self.calls == 3:  # every buffer exists by now
                    tracemalloc.reset_peak()
                    marks["start"] = tracemalloc.get_traced_memory()[0]

            def _score(self, X, work=None):
                self.mark()
                return super()._score(X, work)

            def _logp_and_score(self, X, work=None):
                self.mark()
                return super()._logp_and_score(X, work)

        idx, obs, _ = generate_cd_observations(5, n_steps=dim)
        config = SamplerConfig(n_particles=n, n_steps=12, step_size=step_size, seed=3)
        tracemalloc.start()
        try:
            got = run(Marked(idx, obs, n_steps=dim), config)
            marks["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert marks["peak"] - marks["start"] < n * dim * 8
        assert np.array_equal(got.states, run(ConditionedDiffusion(idx, obs, n_steps=dim), config).states)
        if step_size == 1.0:
            assert got.acceptance_rate == 0.0

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
        # the driver draws the normals into the proposal and moves them there
        moved = noise.copy()
        assert langevin_step(mean, 0.3, moved, out=moved) is moved
        assert np.array_equal(moved, expect)

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

    @pytest.mark.parametrize("n_steps, longer", [(5, 50), (20, 50), (33, 50), (30, 300)])
    @pytest.mark.parametrize("run", [sgld_run, mala_run], ids=["sgld", "mala"])
    def test_a_run_stops_where_a_longer_run_passes(self, run, n_steps, longer):
        # the draws up to step N do not depend on the steps after it, so an
        # N-step run's states are row N - 1 of a longer run's history
        def config(steps):
            return SamplerConfig(n_particles=6, n_steps=steps, step_size=0.02, seed=23, collect_history=True)

        short, full = run(Banana(), config(n_steps)), run(Banana(), config(longer))
        assert np.array_equal(short.states, full.history[n_steps - 1])
        assert np.array_equal(short.history, full.history[:n_steps])

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
