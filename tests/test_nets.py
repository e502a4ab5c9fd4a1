import base64
import json

import numpy as np
import pytest

from ksivi.nets import (
    NetArch,
    NetParams,
    layer_views,
    net_forward_batch,
    net_init,
    net_jacobian_frobenius,
    net_vjp_batch_sum,
)
from ksivi.runio import save_checkpoint

from helpers import central_difference_gradient, relative_error, zero_params


def zero_net(arch):
    """A network with every weight and bias zero."""
    return layer_views(arch, np.zeros(arch.n_params))[0]


def forward1(params, z):
    """Network output at one point: a batch of one."""
    out, _ = net_forward_batch(params, np.asarray(z, dtype=float)[None, :])
    return out[0]


def vjp1(params, z, v):
    """Vector-Jacobian product at one point: a batch of one."""
    _, tape = net_forward_batch(params, np.asarray(z, dtype=float)[None, :])
    return net_vjp_batch_sum(params, tape, np.asarray(v, dtype=float)[None, :])


def mlp_oracle(params, z):
    """Independent forward evaluation used to cross-check net_forward_batch."""
    a = np.asarray(z, dtype=float)
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = w @ a + b
        if layer < last:
            a = np.maximum(a, 0.0)
    return a


class TestArchAndInit:
    def test_arch_validation(self):
        with pytest.raises(ValueError):
            NetArch((5,))
        with pytest.raises(ValueError):
            NetArch((3, 0, 2))
        assert NetArch((3, 50, 50, 2)).n_params == 3 * 50 + 50 + 50 * 50 + 50 + 50 * 2 + 2

    def test_init_deterministic(self):
        arch = NetArch((3, 8, 2))
        a = net_init(arch, seed=7)
        b = net_init(arch, seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_init_biases_zero(self):
        params = net_init(NetArch((4, 16, 3)), seed=0)
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_init_weight_scale(self):
        # empirical std per layer within 20% of sqrt(2 / fan_in)
        params = net_init(NetArch((2, 50, 2)), seed=1)
        for w, fan_in in zip(params.weights, (2, 50)):
            target = np.sqrt(2.0 / fan_in)
            assert abs(w.std() - target) < 0.2 * target


class TestForward:
    def test_zero_params_zero_output(self):
        arch = NetArch((3, 10, 4))
        out = forward1(zero_net(arch), np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(out, np.zeros(4))

    def test_single_linear_layer(self):
        arch = NetArch((2, 2))
        params = NetParams(arch, [np.array([[1.0, 2.0], [3.0, 4.0]])], [np.zeros(2)])
        out = forward1(params, np.array([1.0, 1.0]))
        assert np.allclose(out, [3.0, 7.0])

    def test_matches_oracle(self):
        params = net_init(NetArch((4, 9, 7, 3)), seed=5)
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.standard_normal(4)
            out = forward1(params, z)
            assert np.allclose(out, mlp_oracle(params, z), atol=1e-12)

    def test_batch_consistent_with_single(self):
        # batched BLAS kernels may round differently, so compare to tight tolerance
        params = net_init(NetArch((3, 6, 2)), seed=3)
        z = np.random.default_rng(0).standard_normal((5, 3))
        out_b, _ = net_forward_batch(params, z)
        for i in range(5):
            out_s = forward1(params, z[i])
            assert np.allclose(out_b[i], out_s, rtol=1e-14, atol=1e-14)

    def test_repeated_call_bitwise_identical(self):
        params = net_init(NetArch((3, 6, 2)), seed=3)
        z = np.random.default_rng(0).standard_normal((5, 3))
        out_a, _ = net_forward_batch(params, z)
        out_b, _ = net_forward_batch(params, z)
        assert np.array_equal(out_a, out_b)

    def test_dimension_mismatch(self):
        params = net_init(NetArch((3, 4, 2)), seed=0)
        with pytest.raises(ValueError):
            net_forward_batch(params, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            net_forward_batch(params, np.zeros(3))  # a point, not a batch


# the rectifier's edge cases: signed zeros, NaN, infinities and subnormals of both signs
RECTIFIER_EDGES = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310, 1.5, -1.5])


class FixedProduct:
    """A weight matrix whose product with any batch is a given block.

    ``a @ w.T`` comes back as a copy of ``pre``: numpy's operators hand the
    product to ``__rmatmul__`` since ``__array_ufunc__`` is None.
    """

    __array_ufunc__ = None

    def __init__(self, pre):
        self.pre = pre

    @property
    def T(self):
        return self

    def __rmatmul__(self, a):
        return self.pre.copy()


class TestRectifierBits:
    # an odd block size leaves a tail after the vector loop; with numpy 2.4, np.fmax
    # alone kept -0.0 at (3, 7) from offset 5 and at (5, 5) and (6, 5) from offset 2
    @pytest.mark.parametrize("shape", [(3, 7), (5, 5), (6, 5), (5, 16), (7, 13)])
    @pytest.mark.parametrize("offset", range(8))
    def test_hidden_activations_have_the_bits_of_where(self, shape, offset):
        flat = np.ones(shape[0] * shape[1])
        flat[offset:] = np.resize(RECTIFIER_EDGES, flat.size - offset)
        pre = flat.reshape(shape)
        width = shape[1]
        # a bias of -0.0 adds without a change to any bit, -0.0 included
        params = NetParams(
            NetArch((2, width, 3)), [FixedProduct(pre), np.ones((3, width))], [np.full(width, -0.0), np.zeros(3)]
        )
        _, tape = net_forward_batch(params, np.zeros((shape[0], 2)))
        expected = np.where(pre > 0, pre, 0.0)
        assert tape.inputs[1].view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert np.array_equal(tape.masks[0], pre > 0)


class TestVJP:
    def test_zero_upstream(self):
        params = net_init(NetArch((3, 8, 2)), seed=1)
        assert np.all(vjp1(params, np.ones(3), np.zeros(2)) == 0.0)

    def test_single_linear_layer_closed_form(self):
        # d<v, Wz + b>/dW = v z^T and d/db = v
        arch = NetArch((3, 2))
        rng = np.random.default_rng(4)
        params = NetParams(arch, [rng.standard_normal((2, 3))], [rng.standard_normal(2)])
        z = rng.standard_normal(3)
        v = rng.standard_normal(2)
        flat = vjp1(params, z, v)
        assert np.allclose(flat[:6], np.outer(v, z).ravel())
        assert np.allclose(flat[6:], v)

    def test_matches_finite_differences(self):
        arch = NetArch((3, 8, 2))
        flat0 = np.empty(arch.n_params)
        params = net_init(arch, seed=2, out=flat0)
        rng = np.random.default_rng(9)
        z = rng.standard_normal(3)
        v = rng.standard_normal(2)
        analytic = vjp1(params, z, v)

        def value(flat):
            return float(v @ forward1(layer_views(arch, flat)[0], z))

        fd = central_difference_gradient(value, flat0, step=1e-5)
        assert relative_error(analytic, fd, floor=1e-8).max() < 1e-6

    def test_linearity(self):
        params = net_init(NetArch((4, 6, 3)), seed=8)
        rng = np.random.default_rng(12)
        z = rng.standard_normal(4)
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        a, b = 0.7, -1.3
        combined = vjp1(params, z, a * u + b * v)
        split = a * vjp1(params, z, u) + b * vjp1(params, z, v)
        assert np.allclose(combined, split, rtol=1e-13, atol=1e-13)

    def test_batch_sum_matches_per_sample(self):
        params = net_init(NetArch((3, 5, 2)), seed=6)
        rng = np.random.default_rng(1)
        z = rng.standard_normal((7, 3))
        up = rng.standard_normal((7, 2))
        _, tape = net_forward_batch(params, z)
        batched = net_vjp_batch_sum(params, tape, up)
        summed = np.zeros(params.arch.n_params)
        for i in range(7):
            summed += vjp1(params, z[i], up[i])
        assert np.allclose(batched, summed, rtol=1e-12, atol=1e-12)

    def test_out_matches_fresh_vector(self):
        # the gradient written through the views of a caller's vector, one
        # with a tail after the network's entries, has the default's bits
        arch = NetArch((5, 16, 16, 3))
        params = net_init(arch, seed=4)
        rng = np.random.default_rng(5)
        _, tape = net_forward_batch(params, rng.standard_normal((40, 5)))
        up = rng.standard_normal((40, 3))
        expect = net_vjp_batch_sum(params, tape, up)
        for tail in (0, 3):
            buf = np.full(arch.n_params + tail, np.nan)
            got = net_vjp_batch_sum(params, tape, up, out=buf)
            assert got is buf
            assert np.array_equal(buf[: arch.n_params], expect)
            assert np.all(np.isnan(buf[arch.n_params :]))

    def test_arch_mismatch_rejected(self):
        p1 = net_init(NetArch((3, 8, 2)), seed=0)
        p2 = net_init(NetArch((3, 9, 2)), seed=0)
        _, tape = net_forward_batch(p1, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            net_vjp_batch_sum(p2, tape, np.zeros((1, 2)))


class TestJacobianFrobenius:
    def test_zero_network_at_origin(self):
        # only the final bias rows survive, one unit per output coordinate
        arch = NetArch((3, 8, 4))
        norm = net_jacobian_frobenius(zero_net(arch), np.zeros((1, 3)))
        assert norm.shape == (1,)
        assert np.isclose(norm[0], np.sqrt(4.0))

    def test_single_linear_layer_closed_form(self):
        # squared norm is d * ||z||^2 (weights) + d (biases)
        arch = NetArch((3, 5))
        rng = np.random.default_rng(2)
        params = NetParams(arch, [rng.standard_normal((5, 3))], [rng.standard_normal(5)])
        z = rng.standard_normal((4, 3))
        norm = net_jacobian_frobenius(params, z)
        assert np.allclose(norm**2, 5.0 * (z**2).sum(axis=1) + 5.0)

    def test_matches_finite_differences(self):
        arch = NetArch((3, 7, 2))
        flat0 = np.empty(arch.n_params)
        params = net_init(arch, seed=14, out=flat0)
        z = np.random.default_rng(3).standard_normal(3)

        total = 0.0
        for k in range(2):
            def coord(flat, k=k):
                return float(forward1(layer_views(arch, flat)[0], z)[k])

            total += (central_difference_gradient(coord, flat0, step=1e-6) ** 2).sum()
        fd_norm = np.sqrt(total)
        assert abs(net_jacobian_frobenius(params, z[None, :])[0] - fd_norm) / fd_norm < 1e-4


class TestFlatLayout:
    def test_init_writes_through_views(self):
        # init into a caller's vector gives the fresh init's values, as views
        # of that vector, and leaves its tail alone
        arch = NetArch((4, 6, 3))
        fresh = net_init(arch, seed=21)
        flat = np.full(arch.n_params + 2, np.nan)
        params = net_init(arch, seed=21, out=flat)
        for a, b in zip(params.weights + params.biases, fresh.weights + fresh.biases):
            assert np.shares_memory(a, flat)
            assert np.array_equal(a, b)
        assert not np.any(np.isnan(flat[: arch.n_params]))
        assert np.all(np.isnan(flat[arch.n_params :]))

    def test_layout_order(self, tmp_path):
        # layer-major, weights (row-major) before biases, then the log-scales
        arch = NetArch((2, 2, 1))
        params = zero_params(arch)
        params.net.weights[0][:] = [[1.0, 2.0], [3.0, 4.0]]
        params.net.biases[0][:] = [5.0, 6.0]
        params.net.weights[1][:] = [[7.0, 8.0]]
        params.net.biases[1][:] = [9.0]
        params.rho[:] = [10.0]
        assert np.array_equal(params.to_flat(), np.arange(1.0, 11.0))
        # the checkpoint payload is the same order, as little-endian float64
        save_checkpoint(tmp_path / "checkpoint.json", params)
        payload = base64.b64decode(json.loads((tmp_path / "checkpoint.json").read_text())["flat_base64"])
        assert payload == np.arange(1.0, 11.0).astype("<f8").tobytes()
