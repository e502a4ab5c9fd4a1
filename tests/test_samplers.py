import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ksivi import samplers
from ksivi.configio import ExperimentConfig, build_target
from ksivi.presets import get_preset
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
    make_waveform_dataset,
)


def gaussian5():
    return diagonal_gaussian(np.zeros(5), np.ones(5))


def cd(n_steps):
    return ConditionedDiffusion(5, n_steps=n_steps, dt=0.01, obs_stride=5)


def cd20():
    return cd(20)


def cd200():
    return cd(200)


def blr30():
    return LogisticRegression.from_features(*make_waveform_dataset(n_rows=30, seed=1))


# Reference: the two separate samplers that the single driver replaced, with
# the initial states they used (less the branch for a given ``init``, an
# option no caller set), and the allocating step and proposal density they
# called.  They keep no buffers: each draw allocates, from one generator in
# the order the samplers' module docstring defines: the initial states, then
# each step's normals and, for mala, the step's uniforms.  Given a list
# ``trail``, they append a copy of the state after each step to it.


def reference_langevin_step(x, score_value, step_size, noise):
    """Drift plus diffusion update; pure so the drift part is testable alone."""
    return x + 0.5 * step_size * score_value + np.sqrt(step_size) * noise


def reference_proposal_log_density(x_from, x_to, score_from, step_size):
    mean = x_from + 0.5 * step_size * score_from
    return -((x_to - mean) ** 2).sum(axis=1) / (2.0 * step_size)


def reference_sgld_run(target, config: SamplerConfig, trail=None) -> SamplerRun:
    """Unadjusted parallel Langevin dynamics with full-batch scores."""
    rng = np.random.default_rng(config.seed)
    shape = (config.n_particles, target.dim)
    x = rng.standard_normal(shape)
    for t in range(config.n_steps):
        x = reference_langevin_step(x, target.score(x), config.step_size, rng.standard_normal(shape))
        _check_finite(x, t)
        if trail is not None:
            trail.append(x.copy())
    return SamplerRun(states=x, acceptance_rate=None)


def reference_mala_run(target, config: SamplerConfig, trail=None) -> SamplerRun:
    """Langevin proposals with Metropolis correction; exact invariance."""
    rng = np.random.default_rng(config.seed)
    shape = (config.n_particles, target.dim)
    x = rng.standard_normal(shape)
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
        if trail is not None:
            trail.append(x.copy())
    rate = n_accept / (config.n_steps * config.n_particles)
    return SamplerRun(states=x, acceptance_rate=rate)


REFERENCES = {"sgld": (sgld_run, reference_sgld_run), "mala": (mala_run, reference_mala_run)}


def assert_equal_to_reference(target, run, reference, step_size, n_particles, n_steps):
    """Run ``run`` and ``reference`` from one config; assert equal states and
    acceptance rates, bit for bit; return both runs."""
    config = SamplerConfig(n_particles=n_particles, n_steps=n_steps, step_size=step_size, seed=31)
    got = run(target, config)
    expect = reference(target, config)
    assert np.array_equal(got.states, expect.states)
    assert got.acceptance_rate == expect.acceptance_rate
    return got, expect


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
    # run shapes: (particles, steps); the stream interleaves the particles'
    # draws, so its order shows in a single particle, a single step and more
    # particles than steps
    @pytest.mark.parametrize(
        "shape",
        [(7, 30), (1, 30), (7, 1), (256, 4)],
        ids=["base", "one-particle", "one-step", "many-particles"],
    )
    def test_bitwise_equal_to_separate_samplers(self, make_target, step_size, run, reference, shape):
        got, _ = assert_equal_to_reference(make_target(), run, reference, step_size, *shape)
        if shape == (7, 30) and run is mala_run:
            assert 0.0 < got.acceptance_rate < 1.0

    # a step walks the particles in blocks; rows are independent on these
    # targets, so the block size moves no bit.  (blr's products round with
    # the block width, which is why its presets' particles fit one block;
    # see test_preset_states_equal_the_whole_array_samplers.)  At step 1.0
    # mala rejects every proposal, and sgld would diverge.
    @pytest.mark.parametrize(
        "make_target, rows, step_size, runs",
        [
            (gaussian5, 3, 1.0, "sgld,mala"),
            (gaussian5, 1, 1.0, "sgld,mala"),
            (Banana, 2, 0.02, "sgld,mala"),
            (cd20, 3, 0.003, "sgld,mala"),
            (cd20, 3, 1.0, "mala"),
        ],
        ids=["gaussian5", "gaussian5-rows-of-one", "banana", "cd20", "cd20-rejecting"],
    )
    def test_small_blocks_bitwise_equal_to_separate_samplers(self, monkeypatch, make_target, rows, step_size, runs):
        target = make_target()
        monkeypatch.setattr(samplers, "_PARTICLE_BLOCK", rows * target.dim)
        assert len(samplers._blocks(7, target.dim)) == -(-7 // rows)  # the last block ragged unless rows = 1
        for name in runs.split(","):
            run, reference = REFERENCES[name]
            got, _ = assert_equal_to_reference(target, run, reference, step_size, 7, 30)
            if name == "mala" and make_target is cd20 and step_size == 1.0:
                assert got.acceptance_rate == 0.0

    @pytest.mark.parametrize(
        "step_size, acceptance, runs",
        [
            (1e-4, (1.0, 1.0), "sgld,mala"),
            (3e-3, (0.99, 0.999), "sgld,mala"),
            (1e-2, (0.3, 0.8), "sgld,mala"),
            (1.0, (0.0, 0.0), "mala"),
        ],
        ids=["accept-all", "reject-few", "reject-some", "reject-all"],
    )
    def test_cd200_blocks_bitwise_equal_to_separate_samplers(self, step_size, acceptance, runs):
        # 400 particles on a 200-state path: blocks of 163, 163 and 74 rows
        target = cd200()
        assert [b.stop - b.start for b in samplers._blocks(400, 200)] == [163, 163, 74]
        for name in runs.split(","):
            run, reference = REFERENCES[name]
            got, _ = assert_equal_to_reference(target, run, reference, step_size, 400, 4)
            if name == "mala":
                assert acceptance[0] <= got.acceptance_rate <= acceptance[1]

    def test_preset_states_equal_the_whole_array_samplers(self):
        # the preset targets at their 1,000 particles: diffusion steps walk
        # several blocks, the others one.  blr's products round with the block
        # width (splits of 64, 163, 500 or 999 rows move its last bits; one of
        # 744 happens not to), so its particles must stay in one block.
        cases = [("toy-multimodal", "sgld"), ("blr-waveform", "sgld"), ("cd-dim200", "sgld"), ("cd-dim200", "mala")]
        for name, algorithm in cases:
            run, reference = REFERENCES[algorithm]
            config = ExperimentConfig.from_flat(get_preset(name))
            target = build_target(config, "-")
            sampler = SamplerConfig(
                n_particles=config.sampler["n_particles"],
                n_steps=2,
                step_size=config.sampler["step_size"],
                seed=config.sampler["seed"],
            )
            assert sampler.n_particles == 1000
            assert len(samplers._blocks(1000, target.dim)) == (1 if name != "cd-dim200" else 7)
            got, expect = run(target, sampler), reference(target, sampler)
            assert np.array_equal(got.states, expect.states), (name, algorithm)
            assert got.acceptance_rate == expect.acceptance_rate


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
        "run, step_size, dim",
        [
            (sgld_run, 1e-4, 50),
            (mala_run, 1e-4, 50),
            (mala_run, 1.0, 50),
            (sgld_run, 1e-4, 200),
            (mala_run, 1e-4, 200),
            (mala_run, 1.0, 200),
        ],
        ids=["sgld", "mala", "mala-rejecting", "sgld-three-blocks", "mala-three-blocks", "mala-rejecting-three-blocks"],
    )
    def test_cd_steps_allocate_no_particle_block(self, run, step_size, dim):
        # 400 particles on a 50-state path (one block) or a 200-state one
        # (blocks of 163, 163 and 74 rows): after the first two steps' target
        # calls, the rest of 12 steps may not raise the traced peak by one
        # (particles, d) float64 array.
        # The target keeps its arrays in the run's workspace, and the proposal
        # mean is formed in the driver's second mean buffer.  At step 1.0
        # mala rejects every proposal, and its accept step copies every row
        # of the state and the mean back, a block of rows at a time.
        n = 400
        n_blocks = len(samplers._blocks(n, dim))
        marks = {}

        class Marked(ConditionedDiffusion):
            calls = 0

            def mark(self):
                self.calls += 1
                if self.calls == 2 * n_blocks + 1:  # every buffer exists by now
                    tracemalloc.reset_peak()
                    marks["start"] = tracemalloc.get_traced_memory()[0]

            def _score(self, X, work=None):
                self.mark()
                return super()._score(X, work)

            def _logp_and_score(self, X, work=None):
                self.mark()
                return super()._logp_and_score(X, work)

        config = SamplerConfig(n_particles=n, n_steps=12, step_size=step_size, seed=3)
        tracemalloc.start()
        try:
            got = run(Marked(5, n_steps=dim, dt=0.01, obs_stride=5), config)
            marks["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert marks["peak"] - marks["start"] < n * dim * 8
        assert np.array_equal(got.states, run(cd(dim), config).states)
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


class Cliff(TargetModel):
    """A flat density on the line whose score turns +inf past 3, or, with
    ``nan_logp``, whose log-density turns nan there."""

    dim = 1

    def __init__(self, nan_logp=False):
        self.nan_logp = nan_logp

    def _logp(self, X):
        return np.where(X[:, 0] > 3.0, np.nan, 0.0) if self.nan_logp else np.zeros(X.shape[0])

    def _score(self, X, work=None):
        return np.zeros_like(X) if self.nan_logp else np.where(X > 3.0, np.inf, 0.0)


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
        # The initial states are standard normals, so a target of another mean
        # and variance checks that the run reaches it, not only that it keeps
        # it.  Each step keeps 98% of the offset from the mean, so 1,000 steps
        # forget the start; 4,000 particles put each variance's standard error
        # at 2% and each mean's at 0.011.
        config = SamplerConfig(n_particles=4000, n_steps=1000, step_size=0.01, seed=1)
        run = sgld_run(diagonal_gaussian(np.full(5, -1.0), np.full(5, 0.5)), config)
        variances = run.states.var(axis=0) / 0.5
        assert np.all(variances > 0.9) and np.all(variances < 1.15)
        assert np.all(np.abs(run.states.mean(axis=0) + 1.0) < 0.05)

    def test_bitwise_deterministic(self):
        config = SamplerConfig(n_particles=50, n_steps=200, step_size=0.01, seed=2)
        a = sgld_run(gaussian5(), config)
        b = sgld_run(gaussian5(), config)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("n_steps, longer", [(5, 50), (20, 50), (33, 50), (30, 300)])
    @pytest.mark.parametrize("run, reference", REFERENCES.values(), ids=REFERENCES.keys())
    def test_a_run_stops_where_a_longer_run_passes(self, run, reference, n_steps, longer):
        # the draws up to step N do not depend on the steps after it, so an
        # N-step run stops at the states that a longer reference run holds
        # after its step N
        def config(steps):
            return SamplerConfig(n_particles=6, n_steps=steps, step_size=0.02, seed=23)

        trail = []
        full = reference(Banana(), config(longer), trail)
        assert len(trail) == longer
        assert np.array_equal(run(Banana(), config(n_steps)).states, trail[n_steps - 1])
        assert np.array_equal(run(Banana(), config(longer)).states, full.states)

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

    def test_divergence_in_a_later_block_named_as_by_the_whole_array(self, monkeypatch):
        # a random walk whose score turns infinite past 3; in blocks of 4
        # particles at seed 1, particle 9, in the third block, is the first
        # to cross, at step 9, and the blocked check names what the
        # whole-array check names
        monkeypatch.setattr(samplers, "_PARTICLE_BLOCK", 4)
        config = SamplerConfig(n_particles=12, n_steps=400, step_size=1.0, seed=1)
        found = []
        for run in (sgld_run, reference_sgld_run):
            with pytest.raises(SamplerDivergence) as err:
                run(Cliff(), config)
            found.append((err.value.particle, err.value.step))
        assert found == [(9, 9), (9, 9)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_particles=0, n_steps=10, step_size=0.1)
        # a run returns final states only, so nothing is burnt in or thinned
        for field, value in [("burn_in", 1), ("burn_in", -1), ("thin", 2), ("thin", 0)]:
            with pytest.raises(ValueError, match=f"^{field} must be {int(field == 'thin')}: "):
                SamplerConfig(n_particles=1, n_steps=10, step_size=0.1, **{field: value})

    # configio names the key by the field that opens the message
    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("n_particles", 0, "must be at least 1"),
            ("n_steps", 0, "must be at least 1"),
            ("step_size", 0.0, "must be positive"),
            ("step_size", -0.1, "must be positive"),
            ("step_size", np.nan, "must be finite, got nan"),
            ("step_size", np.inf, "must be finite, got inf"),
        ],
        ids=["n_particles", "n_steps", "step_size-zero", "step_size-negative", "step_size-nan", "step_size-inf"],
    )
    def test_refusal_opens_with_the_field(self, field, value, rule):
        settings = {"n_particles": 1, "n_steps": 10, "step_size": 0.1, field: value}
        with pytest.raises(ValueError, match=f"^{field} {rule}$"):
            SamplerConfig(**settings)

    @pytest.mark.parametrize("run", [sgld_run, mala_run], ids=["sgld", "mala"])
    @pytest.mark.parametrize("step_size", [np.nan, np.inf])
    def test_non_finite_step_size_runs_no_sampler(self, run, step_size):
        # nan fails "<= 0"; let through, mala returned its N(0, I) initial draws with acceptance 0.0
        with pytest.raises(ValueError, match=f"^step_size must be finite, got {step_size}$"):
            run(Banana(), SamplerConfig(n_particles=5, n_steps=3, step_size=step_size))


class TestMALA:
    def test_acceptance_band_on_gaussian(self):
        config = SamplerConfig(n_particles=200, n_steps=2000, step_size=1.5, seed=5)
        run = mala_run(gaussian5(), config)
        assert 0.4 < run.acceptance_rate < 0.8

    def test_stationary_variance_tight(self):
        # 100,000 independent final states per coordinate.  The initial
        # states are standard normals, so a target of another mean and
        # variance checks that the run reaches it, not only that it keeps it.
        # At step 1.5 about 86% of moves are accepted, and each keeps five
        # eighths of the state's offset from the mean, so 30 steps forget the
        # start.
        config = SamplerConfig(n_particles=100_000, n_steps=30, step_size=1.5, seed=6)
        run = mala_run(diagonal_gaussian(np.full(5, 0.5), np.full(5, 2.0)), config)
        variances = run.states.var(axis=0) / 2.0
        assert np.all(variances > 0.97) and np.all(variances < 1.03)

    def test_detailed_balance_spot_check_1d(self):
        # 10,000 independent final states, started away from the target
        target = diagonal_gaussian(np.ones(1), np.full(1, 0.5))
        config = SamplerConfig(n_particles=10_000, n_steps=500, step_size=0.9, seed=7)
        run = mala_run(target, config)
        assert run.states.size == 10_000
        _, pvalue = stats.kstest(run.states.reshape(-1), "norm", args=(1.0, np.sqrt(0.5)))
        assert pvalue > 0.01

    @pytest.mark.parametrize("nan_logp", [False, True], ids=["inf-score", "nan-logp"])
    def test_rejects_every_proposal_past_a_cliff(self, monkeypatch, nan_logp):
        # the walk that sgld diverges on: past 3 a proposal's mean is +inf
        # (or its log-density nan), so its log acceptance ratio is -inf (or
        # nan) and it is rejected.  mala raises nothing, every state stays
        # on the finite side, and it equals the reference, which checks
        # every step's states.
        monkeypatch.setattr(samplers, "_PARTICLE_BLOCK", 4)
        config = SamplerConfig(n_particles=12, n_steps=400, step_size=1.0, seed=1)
        got, expect = mala_run(Cliff(nan_logp), config), reference_mala_run(Cliff(nan_logp), config)
        assert np.all(got.states <= 3.0)
        assert np.array_equal(got.states, expect.states)
        assert got.acceptance_rate == expect.acceptance_rate
        assert 0.5 < got.acceptance_rate < 1.0  # the cliff turns proposals back

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
