import numpy as np
import pytest
from scipy import stats

from ksivi.family import SIVParams, f_vectors, reparameterize, siv_init, siv_sample_batch
from ksivi.nets import NetArch, net_forward_batch
from ksivi.targets import Tempered, diagonal_gaussian

from helpers import zero_params


def zero_net_params(d_z=3, d=2, rho=0.0):
    return zero_params(NetArch((d_z, 4, d)), rho)


def constant_mean_params(mean, rho, d_z=3):
    """Zero weights with output bias = mean, so mu(z) is constant."""
    mean = np.asarray(mean, dtype=np.float64)
    params = zero_params(NetArch((d_z, 4, mean.size)), rho)
    params.net.biases[-1][:] = mean
    return params


def cond_score(batch, params):
    """Conditional score ``-xi / sigma``: minus the residual at a zero target score."""
    return -f_vectors(batch, params, np.zeros_like(batch.x))


class TestSampling:
    def test_zero_net_unit_scale_gives_noise(self):
        params = zero_net_params(rho=0.0)
        batch = siv_sample_batch(params, 50, np.random.default_rng(0))
        assert np.array_equal(batch.x, batch.xi)

    def test_reconstruction_identity(self):
        params = siv_init(NetArch((3, 16, 2)), seed=1, rho_init=-0.4)
        batch = siv_sample_batch(params, 100, np.random.default_rng(2))
        mu, _ = net_forward_batch(params.net, batch.z)
        recon = (batch.x - mu) / params.sigma
        assert np.allclose(recon, batch.xi, atol=1e-12)

    def test_deterministic_given_rng(self):
        params = siv_init(NetArch((3, 8, 2)), seed=5, rho_init=0.1)
        a = siv_sample_batch(params, 10, np.random.default_rng(7))
        b = siv_sample_batch(params, 10, np.random.default_rng(7))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)

    def test_pushforward_mean(self):
        params = siv_init(NetArch((3, 16, 2)), seed=3, rho_init=0.0)
        rng = np.random.default_rng(4)
        n = 100_000
        batch = siv_sample_batch(params, n, rng)
        # independent estimate of E[mu(z)] from fresh mixing draws
        mu, _ = net_forward_batch(params.net, rng.standard_normal((n, 3)))
        se = batch.x.std(axis=0) / np.sqrt(n) + mu.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(batch.x.mean(axis=0) - mu.mean(axis=0)) < 5 * se)

    def test_marginal_is_standard_normal_for_zero_net(self):
        params = zero_net_params(rho=0.0)
        batch = siv_sample_batch(params, 10_000, np.random.default_rng(8))
        for j in range(2):
            _, pvalue = stats.kstest(batch.x[:, j], "norm")
            assert pvalue > 0.01

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            siv_sample_batch(zero_net_params(), 0, np.random.default_rng(0))


class TestConditionalScore:
    def test_formula(self):
        params = zero_net_params(rho=0.0)
        batch = siv_sample_batch(params, 5, np.random.default_rng(1))
        batch.xi[0] = np.array([0.5, -1.0])
        assert np.allclose(cond_score(batch, params)[0], [-0.5, 1.0])

    def test_zero_noise(self):
        params = zero_net_params(rho=0.3)
        batch = siv_sample_batch(params, 3, np.random.default_rng(2))
        batch.xi[:] = 0.0
        assert np.all(cond_score(batch, params) == 0.0)

    def test_matches_gaussian_score_identity(self):
        # -(x - mu) / sigma^2 evaluated at x = mu + sigma*xi equals -xi/sigma
        params = siv_init(NetArch((3, 8, 2)), seed=9, rho_init=-0.7)
        batch = siv_sample_batch(params, 200, np.random.default_rng(3))
        mu, _ = net_forward_batch(params.net, batch.z)
        analytic = -(batch.x - mu) / params.sigma**2
        err = np.abs(cond_score(batch, params) - analytic)
        assert err.max() <= 1e-10


class TestFVector:
    def test_gaussian_match_cancels(self):
        mean = np.array([0.4, -1.1])
        rho = np.array([-0.3, 0.2])
        params = constant_mean_params(mean, rho)
        target = diagonal_gaussian(mean, np.exp(2.0 * rho))
        batch = siv_sample_batch(params, 500, np.random.default_rng(4))
        f = f_vectors(batch, params, target.score(batch.x))
        assert np.abs(f).max() <= 1e-8

    def test_beta_zero_leaves_conditional_part(self):
        # the beta -> 0 limit of tempering: a zero target score
        params = siv_init(NetArch((3, 8, 2)), seed=11, rho_init=0.0)
        batch = siv_sample_batch(params, 20, np.random.default_rng(5))
        f = f_vectors(batch, params, np.zeros_like(batch.x))
        assert np.array_equal(f, batch.xi / params.sigma)

    def test_single_matches_batch(self):
        params = siv_init(NetArch((3, 8, 2)), seed=12, rho_init=-0.1)
        target = diagonal_gaussian(np.ones(2), np.ones(2))
        batch = siv_sample_batch(params, 6, np.random.default_rng(6))
        tempered = Tempered(target, 0.8)
        f = f_vectors(batch, params, tempered.score(batch.x))
        for i in range(6):
            one = reparameterize(params, batch.z[i : i + 1], batch.xi[i : i + 1])
            fi = f_vectors(one, params, tempered.score(one.x))[0]
            assert np.allclose(fi, f[i], rtol=1e-12, atol=1e-14)

    def test_finite_on_banana_sweep(self):
        from ksivi.targets import Banana

        params = siv_init(NetArch((3, 32, 2)), seed=13, rho_init=-1.0)
        batch = siv_sample_batch(params, 100_000, np.random.default_rng(7))
        f = f_vectors(batch, params, Banana().score(batch.x))
        assert np.all(np.isfinite(f))


class TestFlatRoundTrip:
    def test_round_trip(self):
        arch = NetArch((3, 8, 2))
        params = siv_init(arch, seed=14, rho_init=0.25)
        again = SIVParams.from_flat(arch, params.to_flat())
        assert np.array_equal(again.flat, params.flat)
        assert np.array_equal(again.rho, params.rho)
        for a, b in zip(again.net.weights + again.net.biases, params.net.weights + params.net.biases):
            assert np.array_equal(a, b)

    def test_views_tile_the_buffer(self):
        # every weight, bias and rho view is a view of flat, the views cover
        # it once, and a write through a view shows in to_flat
        params = siv_init(NetArch((3, 5, 4, 2)), seed=2, rho_init=-0.5)
        views = params.net.weights + params.net.biases + [params.rho]
        for k, view in enumerate(views):
            assert np.shares_memory(view, params.flat)
            view[...] = k + 1.0
        flat = params.to_flat()
        assert not np.shares_memory(flat, params.flat)
        for k, view in enumerate(views):
            assert np.count_nonzero(flat == k + 1.0) == view.size
        assert np.all(flat > 0.0)

    def test_copies_share_no_memory(self):
        params = siv_init(NetArch((3, 5, 2)), seed=3, rho_init=0.1)
        source = params.to_flat()
        for other in (params.copy(), SIVParams.from_flat(params.arch, source)):
            assert np.array_equal(other.flat, params.flat)
            assert not np.shares_memory(other.flat, params.flat)
            assert not np.shares_memory(other.flat, source)
            for view in other.net.weights + other.net.biases + [other.rho]:
                assert not np.shares_memory(view, params.flat)

    def test_length_checked(self):
        arch = NetArch((3, 5, 2))
        with pytest.raises(ValueError, match="expected float64"):
            SIVParams.from_flat(arch, np.zeros(arch.n_params))
        with pytest.raises(ValueError, match="expected float64"):
            SIVParams(arch, np.zeros(arch.n_params + 2, dtype=np.float32))

    def test_sigma_positive_for_any_rho(self):
        params = zero_net_params(rho=-40.0)
        assert np.all(params.sigma > 0.0)
        params.rho[:] = 40.0
        assert np.all(np.isfinite(params.sigma))
