import numpy as np
import pytest

from ksivi.estimators import value_and_grad
from ksivi.family import SIVParams, f_vectors, reparameterize, siv_init, siv_sample_batch
from ksivi.kernels import KernelSpec, eval_matrix
from ksivi.nets import NetArch
from ksivi.targets import (
    Banana,
    GaussianMixture,
    LogisticRegression,
    Tempered,
    diagonal_gaussian,
    make_waveform_dataset,
    multimodal_target,
)

from helpers import central_difference_gradient, gauss_hermite_expectation_2d, relative_error, zero_params

RBF = KernelSpec("rbf", 1.0)


def ksd2(params, target, kernel, b1, b2=None):
    """The objective's value alone."""
    return value_and_grad(params, target, kernel, b1, b2)[0]


def rbf_pair(x, y):
    """RBF kernel value at one pair: a 1 x 1 Gram matrix."""
    return float(eval_matrix(RBF, x[None, :], y[None, :])[0, 0])


def frozen_value_fn(arch, target, kernel, z_blocks, xi_blocks):
    """Objective as a function of the flat parameter under frozen (z, xi).

    Two blocks give the two-batch estimator, one the U-statistic.
    """

    def value(flat):
        p = SIVParams.from_flat(arch, flat)
        batches = [reparameterize(p, z, xi) for z, xi in zip(z_blocks, xi_blocks)]
        return ksd2(p, target, kernel, *batches)

    return value


def match_params(mean, rho, d_z=3):
    params = zero_params(NetArch((d_z, 4, mean.size)), rho)
    params.net.biases[-1][:] = mean
    return params


def draw_blocks(params, n, count, seed):
    rng = np.random.default_rng(seed)
    zs, xis = [], []
    for _ in range(count):
        b = siv_sample_batch(params, n, rng)
        zs.append(b.z)
        xis.append(b.xi)
    return zs, xis


class TestGradientExactness:
    @pytest.mark.parametrize("kind", ["vanilla", "ustat"])
    @pytest.mark.parametrize(
        "kernel", [RBF, KernelSpec("imq"), KernelSpec("imq", 0.1)], ids=["rbf", "imq", "imq-sharp"]
    )
    def test_matches_finite_differences(self, kind, kernel):
        arch = NetArch((3, 8, 2))
        params = siv_init(arch, seed=0, rho_init=-0.5)
        target = Banana()
        n_blocks = 2 if kind == "vanilla" else 1
        zs, xis = draw_blocks(params, 6, n_blocks, seed=1)
        batches = [reparameterize(params, z, xi) for z, xi in zip(zs, xis)]

        _, analytic = value_and_grad(params, target, kernel, *batches)

        value = frozen_value_fn(arch, target, kernel, zs, xis)
        fd = central_difference_gradient(value, params.to_flat(), step=1e-4)
        floor = 1e-6 * max(1.0, np.abs(analytic).max())
        assert relative_error(analytic, fd, floor=floor).max() < 1e-4

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_tempered_gradient_matches_finite_differences(self, beta):
        arch = NetArch((3, 8, 2))
        params = siv_init(arch, seed=2, rho_init=-0.2)
        target = Tempered(Banana(), beta)
        zs, xis = draw_blocks(params, 5, 2, seed=3)
        batches = [reparameterize(params, z, xi) for z, xi in zip(zs, xis)]
        _, analytic = value_and_grad(params, target, RBF, *batches)
        value = frozen_value_fn(arch, target, RBF, zs, xis)
        fd = central_difference_gradient(value, params.to_flat(), step=1e-4)
        floor = 1e-6 * max(1.0, np.abs(analytic).max())
        assert relative_error(analytic, fd, floor=floor).max() < 1e-4


class TestStationarity:
    def test_gaussian_match_value_and_gradient_vanish(self):
        mean = np.array([0.8, -0.3])
        rho = np.array([-0.4, 0.2])
        params = match_params(mean, rho)
        target = diagonal_gaussian(mean, np.exp(2.0 * rho))
        rng = np.random.default_rng(6)
        b1 = siv_sample_batch(params, 64, rng)
        b2 = siv_sample_batch(params, 64, rng)
        value, grad = value_and_grad(params, target, RBF, b1, b2)
        assert abs(value) <= 1e-8
        n_net = params.arch.n_params
        assert np.linalg.norm(grad[:n_net]) <= 1e-7
        assert np.linalg.norm(grad) <= 1e-7

    def test_ustat_also_stationary(self):
        mean = np.zeros(2)
        rho = np.zeros(2)
        params = match_params(mean, rho)
        target = diagonal_gaussian(mean, np.ones(2))
        batch = siv_sample_batch(params, 64, np.random.default_rng(7))
        value, grad = value_and_grad(params, target, RBF, batch)
        assert abs(value) <= 1e-8
        assert np.linalg.norm(grad) <= 1e-7


class TestValueEstimates:
    def test_ustat_two_samples_single_term(self):
        params = siv_init(NetArch((3, 6, 2)), seed=8, rho_init=-0.3)
        target = Banana()
        batch = siv_sample_batch(params, 2, np.random.default_rng(8))
        f = f_vectors(batch, params, target.score(batch.x))
        expect = rbf_pair(batch.x[0], batch.x[1]) * float(f[0] @ f[1])
        assert np.isclose(ksd2(params, target, RBF, batch), expect, rtol=1e-12)

    def test_vanilla_matches_direct_double_sum(self):
        params = siv_init(NetArch((3, 6, 2)), seed=9, rho_init=0.0)
        target = Banana()
        rng = np.random.default_rng(9)
        b1 = siv_sample_batch(params, 4, rng)
        b2 = siv_sample_batch(params, 4, rng)
        f1 = f_vectors(b1, params, target.score(b1.x))
        f2 = f_vectors(b2, params, target.score(b2.x))
        direct = np.mean(
            [
                rbf_pair(b1.x[i], b2.x[j]) * float(f1[i] @ f2[j])
                for i in range(4)
                for j in range(4)
            ]
        )
        assert np.isclose(ksd2(params, target, RBF, b1, b2), direct, rtol=1e-12)

    def test_quadrature_oracle_1d(self):
        # degenerate family: constant mean 0.5, fixed scale 0.8, standard
        # normal target; the population value is a 2-D Gaussian integral
        mean = np.array([0.5])
        rho = np.array([np.log(0.8)])
        params = match_params(mean, rho, d_z=2)
        target = diagonal_gaussian(np.zeros(1), np.ones(1))

        def integrand(xi, xi_prime):
            x = 0.5 + 0.8 * xi
            xp = 0.5 + 0.8 * xi_prime
            f = -x + xi / 0.8
            fp = -xp + xi_prime / 0.8
            return np.exp(-((x - xp) ** 2) / 2.0) * f * fp

        oracle = gauss_hermite_expectation_2d(integrand, n_nodes=201)

        n = 4000
        batch = siv_sample_batch(params, n, np.random.default_rng(10))
        estimate = ksd2(params, target, RBF, batch)

        # asymptotic U-statistic standard error from the projection variance
        f = f_vectors(batch, params, target.score(batch.x))
        h = eval_matrix(RBF, batch.x, batch.x) * (f @ f.T)
        np.fill_diagonal(h, 0.0)
        proj = h.sum(axis=1) / (n - 1)
        se = np.sqrt(4.0 * proj.var() / n)
        assert abs(estimate - oracle) < 3.0 * se

    def test_estimators_share_their_mean(self):
        params = siv_init(NetArch((3, 6, 2)), seed=11, rho_init=-0.3)
        target = Banana()
        n, n_seeds = 16, 300
        vals_v, vals_u = [], []
        rng = np.random.default_rng(11)
        for _ in range(n_seeds):
            b1 = siv_sample_batch(params, n, rng)
            b2 = siv_sample_batch(params, n, rng)
            vals_v.append(ksd2(params, target, RBF, b1, b2))
            vals_u.append(ksd2(params, target, RBF, b1))
        vals_v = np.asarray(vals_v)
        vals_u = np.asarray(vals_u)
        se = np.sqrt(vals_v.var() / n_seeds + vals_u.var() / n_seeds)
        assert abs(vals_v.mean() - vals_u.mean()) < 4.0 * se

    def test_mean_nonnegative(self):
        params = siv_init(NetArch((3, 6, 2)), seed=12, rho_init=0.0)
        target = Banana()
        rng = np.random.default_rng(12)
        vals = []
        for _ in range(500):
            batch = siv_sample_batch(params, 8, rng)
            vals.append(ksd2(params, target, RBF, batch))
        vals = np.asarray(vals)
        assert vals.mean() >= -3.0 * vals.std() / np.sqrt(vals.size)

    def test_variance_shrinks_with_batch_size(self):
        params = siv_init(NetArch((3, 6, 2)), seed=13, rho_init=-0.2)
        target = Banana()
        rng = np.random.default_rng(13)

        def variance(n, n_seeds=400):
            vals = [
                ksd2(params, target, RBF, siv_sample_batch(params, n, rng))
                for _ in range(n_seeds)
            ]
            return np.var(vals)

        ratio = variance(16) / variance(64)
        assert 2.5 <= ratio <= 6.0


class TestGradientAgreement:
    def test_estimator_means_agree_componentwise(self):
        params = siv_init(NetArch((3, 5, 2)), seed=14, rho_init=-0.1)
        target = Banana()
        n, n_seeds = 12, 250
        rng = np.random.default_rng(14)
        grads_v = np.empty((n_seeds, params.flat.size))
        grads_u = np.empty((n_seeds, params.flat.size))
        for s in range(n_seeds):
            b1 = siv_sample_batch(params, n, rng)
            b2 = siv_sample_batch(params, n, rng)
            grads_v[s] = value_and_grad(params, target, RBF, b1, b2)[1]
            grads_u[s] = value_and_grad(params, target, RBF, b1)[1]
        se = np.sqrt(grads_v.var(axis=0) / n_seeds + grads_u.var(axis=0) / n_seeds)
        gap = np.abs(grads_v.mean(axis=0) - grads_u.mean(axis=0))
        assert np.all(gap <= 4.0 * se + 1e-12)


class TestArgumentValidation:
    def test_batches_of_unequal_size(self):
        params = siv_init(NetArch((3, 4, 2)), seed=15)
        rng = np.random.default_rng(15)
        b1, b2 = siv_sample_batch(params, 4, rng), siv_sample_batch(params, 5, rng)
        with pytest.raises(ValueError, match="equal size"):
            value_and_grad(params, Banana(), RBF, b1, b2)

    def test_ustat_needs_two_samples(self):
        params = siv_init(NetArch((3, 4, 2)), seed=16)
        batch = siv_sample_batch(params, 1, np.random.default_rng(16))
        with pytest.raises(ValueError, match="at least two samples"):
            value_and_grad(params, Banana(), RBF, batch)


def separate_passes(cls):
    """``cls`` whose score and every use of its operator each run their own
    ``_score_and_hvp`` pass; a workspace is accepted and ignored."""

    class Separate(cls):
        def _score_and_hvp(self, X, work=None):
            return cls._score_and_hvp(self, X)[0], lambda V: cls._score_and_hvp(self, X)[1](V)

    return Separate


# each makes its own logits and sigmoid, or responsibilities and pulls, per use
SeparateScoreAndHvp = separate_passes(LogisticRegression)
SeparateMixture = separate_passes(GaussianMixture)


class TestSharedTargetPass:
    @pytest.mark.parametrize("kind", ["vanilla", "ustat"])
    def test_blr_matches_separate_score_and_hvp(self, kind):
        features, labels = make_waveform_dataset(n_rows=40, seed=2)
        design = np.concatenate([np.ones((40, 1)), features], axis=1)
        shared = LogisticRegression(design, labels)
        separate = SeparateScoreAndHvp(design, labels)
        params = siv_init(NetArch((4, 16, 22)), seed=3, rho_init=-1.0)
        rng = np.random.default_rng(4)
        batches = (siv_sample_batch(params, 12, rng), siv_sample_batch(params, 12, rng))
        arg = batches if kind == "vanilla" else batches[:1]
        passes = []

        def counted_pass(B, s, residual):
            passes.append(B.shape[0])
            return LogisticRegression._score_pass(shared, B, s, residual)

        shared._score_pass = counted_pass
        value, grad = value_and_grad(params, Tempered(shared, 0.7), RBF, *arg)
        ref_value, ref_grad = value_and_grad(params, Tempered(separate, 0.7), RBF, *arg)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
        assert passes == [12] * (2 if kind == "vanilla" else 1)  # one pass over the logits per batch

    @pytest.mark.parametrize("kind", ["vanilla", "ustat"])
    def test_mixture_matches_separate_score_and_hvp(self, kind):
        shared = multimodal_target()
        separate = SeparateMixture(shared.weights, shared.means, shared.covs)
        params = siv_init(NetArch((3, 8, 2)), seed=5, rho_init=-0.5)
        rng = np.random.default_rng(6)
        batches = (siv_sample_batch(params, 12, rng), siv_sample_batch(params, 12, rng))
        arg = batches if kind == "vanilla" else batches[:1]
        calls = []

        def counted(X):
            calls.append(X.shape[0])
            return GaussianMixture._responsibilities(shared, X)

        shared._responsibilities = counted
        value, grad = value_and_grad(params, Tempered(shared, 0.7), RBF, *arg)
        ref_value, ref_grad = value_and_grad(params, Tempered(separate, 0.7), RBF, *arg)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
        assert calls == [12] * (2 if kind == "vanilla" else 1)  # one pass per batch


def blr_target(n_rows, seed):
    return LogisticRegression.from_features(*make_waveform_dataset(n_rows=n_rows, seed=seed))


class TestWorkspace:
    @pytest.mark.parametrize("kind", ["vanilla", "ustat"])
    @pytest.mark.parametrize("kernel", [RBF, KernelSpec("imq")], ids=["rbf", "imq"])
    @pytest.mark.parametrize("beta", [None, 0.7], ids=["plain", "tempered"])
    @pytest.mark.parametrize("name", ["blr", "banana"])
    def test_bitwise_equal_without_it(self, kind, kernel, beta, name):
        target = blr_target(40, seed=8) if name == "blr" else Banana()
        if beta is not None:
            target = Tempered(target, beta)
        params = siv_init(NetArch((4, 16, target.dim)), seed=9, rho_init=-1.0)
        rng = np.random.default_rng(10)
        batches = (siv_sample_batch(params, 12, rng), siv_sample_batch(params, 12, rng))
        arg = batches if kind == "vanilla" else batches[:1]
        ref_value, ref_grad = value_and_grad(params, target, kernel, *arg)
        # stale contents, and a second call reusing the rows, change nothing
        work = np.full((2 if kind == "vanilla" else 1, target.work_size(12)), np.nan)
        for _ in range(2):
            value, grad = value_and_grad(params, target, kernel, *arg, work=work)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("kind", ["vanilla", "ustat"])
    @pytest.mark.parametrize("kernel", [RBF, KernelSpec("imq")], ids=["rbf", "imq"])
    def test_gradient_block_changes_no_bit(self, kind, kernel):
        target = blr_target(40, seed=8)
        params = siv_init(NetArch((4, 16, target.dim)), seed=9, rho_init=-1.0)
        rng = np.random.default_rng(11)
        batches = (siv_sample_batch(params, 12, rng), siv_sample_batch(params, 12, rng))
        arg = batches if kind == "vanilla" else batches[:1]
        ref_value, ref_grad = value_and_grad(params, target, kernel, *arg)
        # the gradient is the block's first row; stale contents and reuse change nothing
        block = np.full((len(arg), params.flat.size), np.nan)
        for _ in range(2):
            value, grad = value_and_grad(params, target, kernel, *arg, out=block)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)
            assert np.shares_memory(grad, block[0])
