import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from ksivi.estimators import value_and_grad
from ksivi.family import SIVParams, siv_init, siv_sample_batch
from ksivi.kernels import KernelSpec, bandwidth_from_rule
from ksivi.nets import NetArch
from ksivi.optim import BETA1, BETA2, EPS, AdamState, adam_step
from ksivi.targets import (
    Banana,
    LogisticRegression,
    TargetModel,
    Tempered,
    diagonal_gaussian,
    make_waveform_dataset,
)
from ksivi.train import (
    TRACE_FIELDS,
    TrainConfig,
    TrainingDivergence,
    anneal_beta,
    train,
)

from helpers import zero_params
from test_train_reference import reference_adam_step, reference_train


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        state = AdamState.init(4)
        params = np.array([1.0, -2.0, 0.5, 3.0])
        before = params.copy()
        state, updated = adam_step(state, params, np.zeros(4), lr=0.1)
        assert np.array_equal(updated, before)
        assert state.step == 1

    def test_matches_functional_reference(self):
        # 50 steps, over gradient scales from 1e-3 to 10, against the allocating update
        rng = np.random.default_rng(20)
        params = rng.standard_normal(300)
        state = AdamState.init(300)
        ref_params = params.copy()
        ref_state = AdamState.init(300)
        for step in range(50):
            grad = rng.standard_normal(300) * 10.0 ** rng.uniform(-3, 1)
            grad_before = grad.copy()
            state, params = adam_step(state, params, grad, lr=0.01)
            ref_state, ref_params = reference_adam_step(ref_state, ref_params, grad, lr=0.01)
            assert np.array_equal(grad, grad_before)
            assert np.array_equal(params, ref_params)
            assert np.array_equal(state.m, ref_state.m)
            assert np.array_equal(state.v, ref_state.v)
            assert state.step == ref_state.step == step + 1

    def test_updates_in_place(self):
        state = AdamState.init(3)
        m, v, params = state.m, state.v, np.ones(3)
        new_state, updated = adam_step(state, params, np.array([0.5, -1.0, 2.0]), lr=0.1)
        assert new_state is state and updated is params
        assert state.m is m and state.v is v
        assert not np.array_equal(params, np.ones(3))

    def test_first_step_hand_computed(self):
        # after bias correction the first step is -lr * g / (|g| + eps)
        g = np.array([0.3, -0.02, 5.0])
        params = np.zeros(3)
        state, updated = adam_step(AdamState.init(3), params, g, lr=0.01)
        expect = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(updated, expect, rtol=1e-9)

    def test_deterministic(self):
        g = np.array([0.5, -1.0])
        a = adam_step(AdamState.init(2), np.ones(2), g, lr=0.05)
        b = adam_step(AdamState.init(2), np.ones(2), g, lr=0.05)
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[0].m, b[0].m)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(AdamState.init(2), np.zeros(3), np.zeros(3), lr=0.1)

    def test_constants_are_kingma_and_ba_defaults(self):
        assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize("name", ["beta1", "beta2", "eps"])
    def test_state_holds_no_decay_rate_or_offset(self, name):
        # the module constants are the only values a step reads; a state cannot carry its own
        assert name not in {f.name for f in fields(AdamState)}
        with pytest.raises(TypeError):
            AdamState(np.zeros(2), np.zeros(2), **{name: 0.5})


class TestAnnealBeta:
    def test_start_value(self):
        assert anneal_beta(0, start=0.2, anneal_iterations=100) == 0.2

    def test_midpoint(self):
        assert np.isclose(anneal_beta(50, start=0.2, anneal_iterations=100), 0.6)

    def test_saturates_at_one(self):
        assert anneal_beta(100, start=0.2, anneal_iterations=100) == 1.0
        assert anneal_beta(10_000, start=0.2, anneal_iterations=100) == 1.0

    def test_disabled(self):
        assert anneal_beta(3) == 1.0
        assert anneal_beta(3, start=1.0, anneal_iterations=50) == 1.0


class TestTrainLoop:
    def test_zero_iterations_returns_init(self):
        config = TrainConfig(iterations=0, batch_size=8, learning_rate=1e-3)
        init = siv_init(NetArch((3, 6, 2)), seed=0)
        params, trace = train(config, Banana(), init)
        assert np.array_equal(params.to_flat(), init.to_flat())
        assert len(trace) == 0

    def test_gaussian_match_is_stationary(self):
        mean = np.array([0.5, -0.5])
        rho = np.array([-0.2, 0.1])
        init = zero_params(NetArch((3, 4, 2)), rho)
        init.net.biases[-1][:] = mean
        target = diagonal_gaussian(mean, np.exp(2.0 * rho))
        # under the median bandwidth: f vanishes at the match whatever the bandwidth
        config = TrainConfig(iterations=200, batch_size=16, learning_rate=1e-3, seed=1)
        _, trace = train(config, target, init)
        assert np.max(np.abs(trace["ksd2"])) <= 1e-6

    def test_short_banana_run_decreases_loss(self):
        init = siv_init(NetArch((3, 16, 2)), seed=2, rho_init=np.log(0.5))
        config = TrainConfig(iterations=1500, batch_size=32, learning_rate=2e-3, seed=3)
        _, trace = train(config, Banana(), init)
        head = np.mean(trace["ksd2"][:50])
        tail = np.mean(trace["ksd2"][-50:])
        assert tail < 0.5 * head

    def test_deterministic_trace(self):
        init = siv_init(NetArch((3, 8, 2)), seed=4, rho_init=0.0)
        config = TrainConfig(iterations=40, batch_size=8, learning_rate=1e-3, seed=5)
        _, trace_a = train(config, Banana(), init)
        _, trace_b = train(config, Banana(), init)
        assert trace_a.dtype.names == TRACE_FIELDS
        assert trace_a.tobytes() == trace_b.tobytes()

    @pytest.mark.parametrize("estimator", ["vanilla", "ustat"])
    def test_trace_is_a_float64_row_per_iteration(self, estimator):
        init = siv_init(NetArch((3, 8, 2)), seed=6, rho_init=0.0)
        config = TrainConfig(
            iterations=12, batch_size=8, learning_rate=1e-3, estimator=estimator, anneal_start=0.2, anneal_iterations=6
        )
        _, trace = train(config, Banana(), init)
        assert trace.shape == (12,)
        assert trace.dtype == np.dtype([(name, np.float64) for name in TRACE_FIELDS])
        assert trace["beta_temp"].tolist() == [anneal_beta(t, 0.2, 6) for t in range(12)]
        assert np.all(np.isfinite(trace["ksd2"]))
        assert np.all(trace["scale"] > 0) and np.all(trace["grad_norm"] > 0)

    def test_ustat_estimator_runs(self):
        init = siv_init(NetArch((3, 8, 2)), seed=6, rho_init=0.0)
        config = TrainConfig(
            iterations=30, batch_size=8, learning_rate=1e-3, estimator="ustat", seed=7
        )
        _, trace = train(config, Banana(), init)
        assert len(trace) == 30

    def test_objective_is_tempered(self):
        # iteration 0 logs the objective on the target tempered to anneal_start; the ramp ends
        # before the last iteration
        init = siv_init(NetArch((3, 8, 2)), seed=6, rho_init=0.0)
        config = TrainConfig(
            iterations=11, batch_size=8, learning_rate=1e-3, anneal_start=0.3, anneal_iterations=10, seed=7
        )
        _, trace = train(config, Banana(), init)
        rng = np.random.default_rng(config.seed)
        b1 = siv_sample_batch(init, config.batch_size, rng)
        b2 = siv_sample_batch(init, config.batch_size, rng)
        kernel = bandwidth_from_rule(KernelSpec(config.kernel_family), np.concatenate([b1.x, b2.x]))
        tempered, _ = value_and_grad(init, Tempered(Banana(), 0.3), kernel, b1, b2)
        untempered, _ = value_and_grad(init, Banana(), kernel, b1, b2)
        assert trace["beta_temp"][0] == 0.3
        assert trace["ksd2"][0] == tempered
        assert tempered != untempered

    def test_divergence_raises_with_context(self):
        class BrokenTarget(TargetModel):
            dim = 2

            def _logp(self, X):
                return np.zeros(X.shape[0])

            def _score_and_hvp(self, X, work=None):
                return np.full_like(X, np.nan), np.zeros_like

        init = siv_init(NetArch((3, 4, 2)), seed=10)
        config = TrainConfig(iterations=5, batch_size=4, learning_rate=1e-3, seed=11)
        with pytest.raises(TrainingDivergence) as err:
            train(config, BrokenTarget(), init)
        assert err.value.iteration == 0
        assert err.value.params is not None

    @pytest.mark.parametrize("estimator", ["vanilla", "ustat"])
    @pytest.mark.parametrize("blowup", ["inf", "nan"])
    def test_non_finite_samples_diverge(self, estimator, blowup):
        # where z_0 > 0 the first hidden layer reaches about 1e200 and the
        # second overflows to inf: in one unit (output inf) or in two that
        # the output subtracts (inf - inf = NaN); rows with z_0 <= 0 stay finite
        init = zero_params(NetArch((3, 2, 2, 2)))
        net = init.net
        net.weights[0][:, 0] = 1e200
        if blowup == "nan":
            net.weights[1][:, 0] = 1e200
            net.weights[2][0] = [1.0, -1.0]
        else:
            net.weights[1][0, 0] = 1e200
            net.weights[2][0] = [1.0, 0.0]
        with np.errstate(all="ignore"):
            x = siv_sample_batch(init, 16, np.random.default_rng(0)).x
        assert np.any(np.isnan(x) if blowup == "nan" else np.isinf(x))
        assert np.any(np.all(np.isfinite(x), axis=1))
        config = TrainConfig(iterations=3, batch_size=16, learning_rate=1e-3, estimator=estimator, seed=12)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergence) as err:
                train(config, Banana(), init)
            with pytest.raises(TrainingDivergence) as ref_err:
                reference_train(config, Banana(), init)
        assert err.value.iteration == 0
        assert str(err.value) == str(ref_err.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e155])
    def test_non_finite_sample_gives_a_nan_bandwidth(self, monkeypatch, value):
        # one coordinate of iteration 2's first batch turns non-finite, or its
        # squared norm overflows; the bandwidth of that iteration is NaN
        draws = []
        bandwidths = []

        def sample(params, n, rng):
            batch = siv_sample_batch(params, n, rng)
            draws.append(batch)
            if len(draws) == 5:
                batch.x[3, 0] = value
            return batch

        def rule(*args):
            kernel = bandwidth_from_rule(*args)
            bandwidths.append(kernel.scale)
            return kernel

        monkeypatch.setattr("ksivi.train.siv_sample_batch", sample)
        monkeypatch.setattr("ksivi.train.bandwidth_from_rule", rule)
        config = TrainConfig(iterations=5, batch_size=8, learning_rate=1e-3, seed=13)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergence) as err:
                train(config, Banana(), siv_init(NetArch((3, 6, 2)), seed=14))
        assert err.value.iteration == 2
        assert np.isfinite(bandwidths[:2]).all() and np.isnan(bandwidths[2])

    def test_divergence_snapshot_is_a_copy(self, monkeypatch):
        # the snapshot has the reference loop's bits and no memory in common
        # with the buffer Adam was stepping; the loss turns NaN at iteration 3
        live = []

        def nan_at_3(params, *args, **kwargs):
            live.append(params)
            value, grad = value_and_grad(params, *args, **kwargs)
            return (np.nan if len(live) == 4 else value), grad

        init = siv_init(NetArch((3, 6, 2)), seed=8, rho_init=-0.2)
        config = TrainConfig(iterations=6, batch_size=8, learning_rate=1e-2, seed=9)
        ref, _ = reference_train(TrainConfig(iterations=3, batch_size=8, learning_rate=1e-2, seed=9), Banana(), init)
        monkeypatch.setattr("ksivi.train.value_and_grad", nan_at_3)
        with pytest.raises(TrainingDivergence) as err:
            train(config, Banana(), init)
        assert err.value.iteration == 3
        assert np.array_equal(err.value.params.to_flat(), ref.to_flat())
        assert not np.shares_memory(err.value.params.flat, live[-1].flat)

    @pytest.mark.parametrize("hook", [False, True], ids=["no-hook", "hook"])
    def test_one_snapshot_per_run(self, monkeypatch, hook):
        # from_flat copies every weight; a run calls it once, to copy init,
        # and a hook gets the live parameters, not a copy of them
        calls = []
        original = SIVParams.from_flat.__func__

        def counted(cls, arch, flat):
            calls.append(arch)
            return original(cls, arch, flat)

        monkeypatch.setattr(SIVParams, "from_flat", classmethod(counted))
        init = siv_init(NetArch((3, 6, 2)), seed=1)
        for iterations in (0, 5):
            calls.clear()
            config = TrainConfig(iterations=iterations, batch_size=8, learning_rate=1e-2, seed=2)
            train(config, Banana(), init, iteration_hook=(lambda t, p: None) if hook else None)
            assert len(calls) == 1

    def test_leaves_init_alone_and_hands_the_hook_the_stepped_buffer(self):
        init = siv_init(NetArch((3, 8, 2)), seed=13, rho_init=-0.3)
        before = init.to_flat()
        seen = []
        config = TrainConfig(iterations=6, batch_size=8, learning_rate=1e-2, seed=14)
        final, _ = train(config, Banana(), init, iteration_hook=lambda t, p: seen.append((p, p.to_flat())))
        assert np.array_equal(init.to_flat(), before)
        assert not np.shares_memory(init.flat, final.flat)
        # every call sees the one buffer Adam steps, holding that iteration's update
        assert all(params is final for params, _ in seen)
        assert not np.array_equal(seen[0][1], seen[-1][1])
        assert np.array_equal(seen[-1][1], final.to_flat())

    @pytest.mark.parametrize("estimator", ["vanilla", "ustat"])
    def test_blr_iterations_allocate_no_logits_block(self, estimator):
        # the blr preset's batches of 100 and widths 10-100-100-22: after two
        # warm-up iterations, five more may not raise the traced peak by one
        # (rows, batch) float64 array.  The loop's own arrays raise it by about
        # 0.7 MB whatever the row count; at 2000 rows an array is 1.6 MB, so
        # one more fresh array fails by as much as its absence passes
        rows = 2000
        target = LogisticRegression.from_features(*make_waveform_dataset(n_rows=rows, seed=7))
        init = siv_init(NetArch((10, 100, 100, 22)), seed=3, rho_init=-2.5)
        config = TrainConfig(iterations=7, batch_size=100, learning_rate=1e-3, estimator=estimator, seed=4)
        marks = {}

        def hook(t, _params):
            if t == 1:
                tracemalloc.reset_peak()
                marks["start"] = tracemalloc.get_traced_memory()[0]
            elif t == 6:
                marks["peak"] = tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            train(config, target, init, iteration_hook=hook)
        finally:
            tracemalloc.stop()
        assert marks["peak"] - marks["start"] < rows * 100 * 8

    def test_memory_does_not_grow_with_the_run(self):
        # the trace is allocated whole before the first iteration, so 2,000 more iterations may
        # hold no more memory; a trace grown by a row per iteration holds about 330 KB more here
        init = siv_init(NetArch((3, 8, 2)), seed=5)
        config = TrainConfig(iterations=3_000, batch_size=8, learning_rate=1e-3, seed=6)
        held = {}

        def hook(t, _params):
            if t in (999, 2_999):
                held[t] = tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            train(config, Banana(), init, iteration_hook=hook)
        finally:
            tracemalloc.stop()
        assert held[2_999] - held[999] < 128 * 1024

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=-1, batch_size=8, learning_rate=1e-3)
        with pytest.raises(ValueError):
            TrainConfig(iterations=1, batch_size=1, learning_rate=1e-3)
        with pytest.raises(ValueError):
            TrainConfig(iterations=1, batch_size=8, learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(iterations=1, batch_size=8, learning_rate=1e-3, anneal_start=0.0)
        # a ramp with one end unset would be silently off
        with pytest.raises(ValueError, match=r"^anneal_iterations must be positive for a ramp from 0\.3$"):
            TrainConfig(iterations=1, batch_size=8, learning_rate=1e-3, anneal_start=0.3)
        with pytest.raises(ValueError, match="^anneal_start must lie below 1 for a ramp of 10 iterations$"):
            TrainConfig(iterations=1, batch_size=8, learning_rate=1e-3, anneal_iterations=10)
        # beta reaches 1 at iteration anneal_iterations, so the last iteration must lie beyond it
        for iterations in (1, 10):
            with pytest.raises(ValueError, match=f"^anneal_iterations must be fewer than the {iterations} iterations"):
                TrainConfig(
                    iterations=iterations, batch_size=8, learning_rate=1e-3, anneal_start=0.3, anneal_iterations=10
                )
        TrainConfig(iterations=11, batch_size=8, learning_rate=1e-3, anneal_start=0.3, anneal_iterations=10)
        with pytest.raises(ValueError):
            TrainConfig(iterations=1, batch_size=8, learning_rate=1e-3, estimator="x")

    @pytest.mark.parametrize("learning_rate", [np.nan, np.inf])
    def test_non_finite_learning_rate_is_refused(self, learning_rate):
        # nan fails "<= 0"; let through, either value diverged at iteration 1
        with pytest.raises(ValueError, match=f"^learning_rate must be finite, got {learning_rate}$"):
            TrainConfig(iterations=1, batch_size=8, learning_rate=learning_rate)

