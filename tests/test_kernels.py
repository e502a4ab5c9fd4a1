import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from ksivi import kernels
from ksivi.kernels import (
    KernelSpec,
    bandwidth_from_rule,
    diag_values,
    eval_matrix,
    median_bandwidth,
    pair_median_bandwidth,
    pairwise_sq_dists,
    pooled_sq_dists,
    sq_blocks,
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


def reference_median(samples):
    """The median the distance matrix must reproduce: pdist's, unclamped."""
    return float(np.median(pdist(samples)))


class TestPooledSqDists:
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 70), min_size=1, max_size=3),
        d=st.sampled_from([1, 2, 5, 22, 40, 50, 64, 200, 513, 600]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_blocks_have_the_bits_of_their_own_products(self, seed, sizes, d):
        # a block of one larger product can round differently at the BLAS
        # kernel's edges, e.g. (n, d) = (50, 2) or (6, 50) as a block of a
        # 2n x 2n syrk; every block here is a product of its own
        rng = np.random.default_rng(seed)
        blocks = [rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0) for n in sizes]
        sq = pooled_sq_dists(blocks)
        edges = np.cumsum([0] + sizes)
        assert sq.shape == (edges[-1], edges[-1])
        for a, b in itertools.product(range(len(blocks)), repeat=2):
            block = sq[edges[a] : edges[a + 1], edges[b] : edges[b + 1]]
            assert np.array_equal(block, pairwise_sq_dists(blocks[a], blocks[b]))

    def test_one_block_is_the_self_distance_matrix(self):
        X = np.random.default_rng(3).standard_normal((37, 9))
        assert np.array_equal(pooled_sq_dists((X,)), pairwise_sq_dists(X, X))

    def test_rejects_mismatched_widths(self):
        with pytest.raises(ValueError):
            pooled_sq_dists((np.zeros((3, 2)), np.zeros((3, 4))))


def awkward_samples(seed, n, d, kind):
    """Sample sets that stress the band: ties, duplicates and cancellation."""
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        return rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3)
    if kind == "grid":  # small integers: many exactly tied distances
        return rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    if kind == "duplicates":  # repeated rows give exact zeros
        base = rng.standard_normal((max(1, n // 3), d))
        return base[rng.integers(0, base.shape[0], size=n)]
    if kind == "identical":  # all distances zero: the floor clamp
        return np.tile(rng.standard_normal(d), (n, 1))
    # far from the origin relative to the spread: the expansion cancels
    spread = 10.0 ** rng.uniform(-6, 0)
    return rng.uniform(-5, 5) * 10.0 ** rng.uniform(0, 3) + spread * rng.standard_normal((n, d))


class TestMedianFromDistanceMatrix:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        d=st.integers(1, 250),
        kind=st.sampled_from(["gauss", "grid", "duplicates", "identical", "offset"]),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_bitwise_equal_to_pdist_median(self, seed, n, d, kind):
        X = awkward_samples(seed, n, d, kind)
        expect = median_bandwidth(X)
        assert median_bandwidth(X, pairwise_sq_dists(X, X)) == expect
        split = n // 2  # the training loop's two-batch layout
        if split >= 1:
            assert median_bandwidth(X, pooled_sq_dists((X[:split], X[split:]))) == expect

    # pooled batches of the presets (2 x 100 at d = 2 and 22, 2 x 128 at d = 200);
    # 199 points give an odd pair count
    @pytest.mark.parametrize("n, d", [(199, 2), (200, 2), (200, 22), (256, 200)])
    def test_training_shapes_recompute_only_the_band(self, monkeypatch, n, d):
        X = np.random.default_rng(d).standard_normal((n, d)) * 0.7 + 1.5
        expect = reference_median(X)
        sq = pooled_sq_dists((X[: n // 2], X[n // 2 :]))

        def no_pdist(*args, **kwargs):
            raise AssertionError("the band path fell back to pdist")

        monkeypatch.setattr("ksivi.kernels.pdist", no_pdist)
        assert median_bandwidth(X, sq) == expect

    def test_nan_row_gives_nan(self):
        X = np.random.default_rng(5).standard_normal((40, 3))
        X[7, 1] = np.nan
        with np.errstate(invalid="ignore"):
            sq = pooled_sq_dists((X[:20], X[20:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(median_bandwidth(X, sq))
        assert np.isnan(median_bandwidth(X))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_inf_row_gives_the_pdist_median(self, value):
        X = np.random.default_rng(6).standard_normal((40, 3))
        X[11, 0] = value
        X[30] = 0.0  # inf * 0 in the products: NaN entries in sq
        with np.errstate(invalid="ignore"):
            sq = pooled_sq_dists((X[:20], X[20:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = median_bandwidth(X, sq)
        assert np.isfinite(h)
        assert h == median_bandwidth(X) == reference_median(X)

    def test_overflowing_norms_leave_it_to_pdist(self):
        X = np.random.default_rng(8).standard_normal((10, 2)) * 1e154
        with np.errstate(over="ignore", invalid="ignore"):
            sq = pooled_sq_dists((X,))
            assert median_bandwidth(X, sq) == median_bandwidth(X)

    def test_log_n_rule_reads_the_matrix(self):
        X = np.random.default_rng(9).standard_normal((64, 4))
        sq = pooled_sq_dists((X[:32], X[32:]))
        for rule in ("median", "median_sq_over_log_n"):
            assert bandwidth_from_rule(rule, X, sq) == bandwidth_from_rule(rule, X)


class TestEvalMatrixInPlace:
    @pytest.mark.parametrize("shape", [(7, 5), (300, 200)])  # below and above numpy's temporary elision
    def test_bits_of_the_plain_expressions(self, shape):
        rng = np.random.default_rng(30)
        sq = np.abs(rng.standard_normal(shape)) * 10.0 ** rng.uniform(-300, 300, size=shape)
        sq[0, :3] = [0.0, 5e-324, np.inf]
        X = rng.standard_normal((shape[0], 3))
        Y = rng.standard_normal((shape[1], 3))
        for spec in (KernelSpec("rbf", bandwidth=0.7), KernelSpec("imq", offset=1.3), KernelSpec("riesz", smoothing=1e-3)):
            plain = {
                "rbf": lambda q: np.exp(-q / (2.0 * spec.bandwidth**2)),
                "imq": lambda q: (spec.offset**2 + q) ** (-0.5),
                "riesz": lambda q: -np.sqrt(q + spec.smoothing**2),
            }[spec.family]
            given_sq = sq.copy()
            with np.errstate(over="ignore"):
                assert np.array_equal(eval_matrix(spec, X, Y, sq=given_sq), plain(sq))
            assert np.array_equal(given_sq, sq)  # left as it was
            assert np.array_equal(eval_matrix(spec, X, Y), plain(pairwise_sq_dists(X, Y)))


class TestMedianFromBlocks:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 200),
        m=st.integers(1, 200),
        d=st.integers(1, 250),
        kind=st.sampled_from(["gauss", "grid", "duplicates", "identical", "offset"]),
    )
    @settings(max_examples=150)
    def test_bitwise_equal_to_the_pooled_pdist_median(self, seed, n, m, d, kind):
        if n + m < 2:
            return
        X = awkward_samples(seed, n, d, kind)
        Y = awkward_samples(seed + 1, m, d, kind) if kind != "identical" else X[:1].repeat(m, axis=0)
        blocks = sq_blocks(X, Y)
        for name, block, expect in zip(blocks._fields, blocks, ((X, X), (Y, Y), (X, Y))):
            assert np.array_equal(block, pairwise_sq_dists(*expect)), name
        assert pair_median_bandwidth(X, Y, blocks) == median_bandwidth(np.concatenate([X, Y]))

    @pytest.mark.parametrize("d", [2, 22, 200])
    def test_evaluate_shapes_gather_only_the_bracket(self, monkeypatch, d):
        rng = np.random.default_rng(d)
        X = rng.standard_normal((1000, d))
        Y = rng.standard_normal((1000, d)) * 1.1 + 0.2
        expect = reference_median(np.concatenate([X, Y]))
        blocks = sq_blocks(X, Y)
        calls = []
        gather = kernels._gather_range

        def spy(parts, a, b):
            calls.append((a, b))
            return gather(parts, a, b)

        def no_pdist(*args, **kwargs):
            raise AssertionError("the band path fell back to pdist")

        monkeypatch.setattr(kernels, "_gather_range", spy)
        monkeypatch.setattr(kernels, "pdist", no_pdist)
        assert pair_median_bandwidth(X, Y, blocks) == expect
        assert len(calls) == 1 and np.isfinite(calls[0]).all()

    def test_a_missed_bracket_gathers_everything(self):
        # at 61 rows a stride of 61 samples one column of every block: the
        # distances to two far outliers, which bracket the wrong ranks
        rng = np.random.default_rng(31)
        X = rng.standard_normal((61, 3))
        Y = rng.standard_normal((61, 3))
        X[0] = Y[0] = 50.0
        calls = []
        gather = kernels._gather_range

        def spy(parts, a, b):
            calls.append((a, b))
            return gather(parts, a, b)

        with mock.patch.object(kernels, "_gather_range", spy):
            h = pair_median_bandwidth(X, Y, sq_blocks(X, Y))
        assert h == median_bandwidth(np.concatenate([X, Y]))
        assert calls[1] == (-np.inf, np.inf)

    def test_a_band_past_the_bracket_is_gathered_again(self):
        # points at 0 and 1: every distance is 0 or 1, the bracket ends on a
        # tied value, and the band reaches past it
        rng = np.random.default_rng(32)
        X = rng.integers(0, 2, size=(300, 1)).astype(np.float64)
        Y = rng.integers(0, 2, size=(200, 1)).astype(np.float64)
        calls = []
        gather = kernels._gather_range

        def spy(parts, a, b):
            calls.append((a, b))
            return gather(parts, a, b)

        with mock.patch.object(kernels, "_gather_range", spy):
            h = pair_median_bandwidth(X, Y, sq_blocks(X, Y))
        assert h == median_bandwidth(np.concatenate([X, Y]))
        assert len(calls) == 2 and calls[1][0] < calls[0][0]

    def test_overflowing_norms_leave_it_to_pdist(self):
        X = np.random.default_rng(33).standard_normal((20, 2))
        Y = np.random.default_rng(34).standard_normal((15, 2))
        Y[3, 1] = 1e154
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = sq_blocks(X, Y)
        assert pair_median_bandwidth(X, Y, blocks) == median_bandwidth(np.concatenate([X, Y]))
