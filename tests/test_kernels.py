import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksivi.kernels import (
    KernelSpec,
    bandwidth_from_rule,
    diag_values,
    eval_matrix,
    median_bandwidth,
    weighted_grad1_sum,
)

from helpers import central_difference_gradient

ALL_SPECS = [
    KernelSpec("rbf", bandwidth=1.3),
    KernelSpec("imq", offset=0.7),
    KernelSpec("riesz", smoothing=1e-8),
]


def k_pair(spec, x, y):
    """Kernel value at one pair: a 1 x 1 Gram matrix."""
    return float(eval_matrix(spec, x[None, :], y[None, :])[0, 0])


def grad1_pair(spec, x, y):
    """First-argument gradient at one pair: one pair with unit weight."""
    return weighted_grad1_sum(spec, x[None, :], y[None, :], np.ones((1, 1)))[0]


def kernel_closed_form(spec, x, y):
    """The three families' formulas written out for one pair."""
    r2 = float(((x - y) ** 2).sum())
    if spec.family == "rbf":
        return np.exp(-r2 / (2.0 * spec.bandwidth**2))
    if spec.family == "imq":
        return (spec.offset**2 + r2) ** -0.5
    return -np.sqrt(r2 + spec.smoothing**2)


class TestEval:
    def test_rbf_at_coincident_points(self):
        x = np.array([0.3, -1.2])
        assert k_pair(KernelSpec("rbf", bandwidth=2.5), x, x) == 1.0

    def test_rbf_known_value(self):
        # squared distance 2 with unit bandwidth gives exp(-1)
        spec = KernelSpec("rbf", bandwidth=1.0)
        val = k_pair(spec, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert np.isclose(val, np.exp(-1.0))

    def test_imq_at_coincident_points(self):
        x = np.array([2.0, 5.0])
        assert np.isclose(k_pair(KernelSpec("imq", offset=1.0), x, x), 1.0)

    def test_riesz_negative(self):
        spec = KernelSpec("riesz", smoothing=1e-8)
        assert k_pair(spec, np.zeros(2), np.ones(2)) < 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_matrix(KernelSpec("rbf"), np.zeros((1, 2)), np.zeros((1, 3)))

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for spec in ALL_SPECS:
            for _ in range(25):
                x, y = rng.standard_normal((2, 4))
                kxy = k_pair(spec, x, y)
                kyx = k_pair(spec, y, x)
                assert np.isclose(kxy, kyx, rtol=1e-14)
                if spec.family in ("rbf", "imq"):
                    assert 0.0 < kxy <= max(1.0, 1.0 / spec.offset)
                else:
                    assert kxy <= -spec.smoothing


class TestGrad1:
    def test_zero_at_coincident_points(self):
        x = np.array([0.5, 1.5, -2.0])
        for spec in ALL_SPECS:
            assert np.array_equal(grad1_pair(spec, x, x), np.zeros(3))

    def test_rbf_known_value(self):
        spec = KernelSpec("rbf", bandwidth=1.0)
        g = grad1_pair(spec, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert np.allclose(g, [-np.exp(-0.5), 0.0])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, y = rng.standard_normal((2, 3))
            fd = central_difference_gradient(lambda v: k_pair(spec, v, y), x, step=1e-6)
            assert np.allclose(grad1_pair(spec, x, y), fd, atol=1e-7)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_antisymmetry(self, spec):
        # for radial kernels the second-argument gradient is the
        # first-argument gradient with swapped inputs, equivalently the
        # sign-flipped first-argument gradient; checked against finite
        # differences of the second slot
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((2, 3))
        fd_second = central_difference_gradient(lambda v: k_pair(spec, x, v), y, step=1e-6)
        assert np.allclose(grad1_pair(spec, y, x), fd_second, atol=1e-7)
        assert np.allclose(-grad1_pair(spec, x, y), fd_second, atol=1e-7)

    def test_weighted_sum_matches_loop(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 3))
        Y = rng.standard_normal((4, 3))
        C = rng.standard_normal((6, 4))
        for spec in ALL_SPECS:
            fast = weighted_grad1_sum(spec, X, Y, C)
            slow = np.zeros_like(fast)
            for i, j in itertools.product(range(6), range(4)):
                slow[i] += C[i, j] * grad1_pair(spec, X[i], Y[j])
            assert np.allclose(fast, slow, atol=1e-12)

    def test_diag_values(self):
        assert np.all(diag_values(KernelSpec("rbf"), 3) == 1.0)
        assert np.allclose(diag_values(KernelSpec("imq", offset=2.0), 2), 0.5)
        assert np.allclose(diag_values(KernelSpec("riesz", smoothing=1e-6), 2), -1e-6)


class TestEvalMatrix:
    def test_matches_scalar_entries(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 2))
        Y = rng.standard_normal((3, 2))
        for spec in ALL_SPECS:
            K = eval_matrix(spec, X, Y)
            for i, j in itertools.product(range(5), range(3)):
                assert np.isclose(K[i, j], k_pair(spec, X[i], Y[j]), rtol=1e-12)
                assert np.isclose(K[i, j], kernel_closed_form(spec, X[i], Y[j]), rtol=1e-12)


class TestMedianBandwidth:
    def test_three_point_example(self):
        # distances {1, 2, 3} so the median is 2
        samples = np.array([[0.0], [1.0], [3.0]])
        assert median_bandwidth(samples) == 2.0

    def test_identical_samples_clamped(self):
        samples = np.ones((5, 2))
        assert median_bandwidth(samples) == 1e-8

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        samples = rng.standard_normal((100, 2))
        dists = [
            float(np.linalg.norm(samples[i] - samples[j]))
            for i in range(100)
            for j in range(i + 1, 100)
        ]
        brute = float(np.median(dists))
        assert abs(median_bandwidth(samples) - brute) < 0.2 * brute

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.ones((1, 3)))

    @given(st.permutations(list(range(8))))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariant(self, perm):
        samples = np.random.default_rng(42).standard_normal((8, 2))
        assert median_bandwidth(samples[perm]) == median_bandwidth(samples)

    def test_log_n_rule(self):
        samples = np.random.default_rng(1).standard_normal((50, 2))
        med = median_bandwidth(samples)
        assert np.isclose(bandwidth_from_rule("median_sq_over_log_n", samples), med / np.sqrt(np.log(50)))
        assert bandwidth_from_rule("median", samples) == med
        with pytest.raises(ValueError):
            bandwidth_from_rule("nope", samples)
