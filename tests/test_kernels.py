import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksivi import kernels
from ksivi.kernels import (
    BANDWIDTH_FLOOR,
    KernelSpec,
    bandwidth_from_rule,
    eval_matrix,
    grad1_weights,
    median_bandwidth,
    pairwise_sq_dists,
    sq_blocks,
    weighted_grad1_sum,
)

from helpers import central_difference_gradient

ALL_SPECS = [
    KernelSpec("rbf", 1.3),
    KernelSpec("imq", 0.7),
    # a small offset: the peak 1/c stands far above the tails, so a misplaced diagonal term shows
    KernelSpec("imq", 0.1),
]
SPEC_IDS = ["rbf", "imq", "imq-sharp"]


def k_pair(spec, x, y):
    """Kernel value at one pair: a 1 x 1 Gram matrix."""
    return float(eval_matrix(spec, x[None, :], y[None, :])[0, 0])


RBF = KernelSpec("rbf")


def grad1_pair(spec, x, y):
    """First-argument gradient at one pair: one pair with unit coefficient."""
    X, Y = x[None, :], y[None, :]
    sq = pairwise_sq_dists(X, Y)
    return weighted_grad1_sum(grad1_weights(spec, np.ones((1, 1)), sq, eval_matrix(spec, X, Y, sq=sq)), X, Y)[0]


def reference_g(spec, sq):
    """The scalar g of grad_1 k(x, y) = -(x - y) g(|x - y|^2), written out for each family."""
    if spec.family == "rbf":
        return np.exp(-sq / (2.0 * spec.scale**2)) / spec.scale**2
    return (spec.scale**2 + sq) ** (-1.5)


def same_bits(a, b):
    """Equal shapes and equal bits, so +0.0 and -0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def kernel_closed_form(spec, x, y):
    """The two families' formulas written out for one pair."""
    r2 = float(((x - y) ** 2).sum())
    if spec.family == "rbf":
        return np.exp(-r2 / (2.0 * spec.scale**2))
    return (spec.scale**2 + r2) ** -0.5


class TestEval:
    def test_rbf_at_coincident_points(self):
        x = np.array([0.3, -1.2])
        assert k_pair(KernelSpec("rbf", 2.5), x, x) == 1.0

    def test_rbf_known_value(self):
        # squared distance 2 with unit bandwidth gives exp(-1)
        spec = KernelSpec("rbf", 1.0)
        val = k_pair(spec, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert np.isclose(val, np.exp(-1.0))

    def test_imq_at_coincident_points(self):
        x = np.array([2.0, 5.0])
        assert np.isclose(k_pair(KernelSpec("imq", 1.0), x, x), 1.0)

    def test_riesz_refused(self):
        # only conditionally positive definite, so its discrepancy estimate can go negative
        with pytest.raises(ValueError, match=r"^family must be one of \('rbf', 'imq'\), got 'riesz'$"):
            KernelSpec("riesz")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_matrix(KernelSpec("rbf"), np.zeros((1, 2)), np.zeros((1, 3)))


class TestSpec:
    def test_a_kernel_is_its_family_and_one_scale(self):
        assert [f.name for f in dataclasses.fields(KernelSpec)] == ["family", "scale"]

    def test_two_positive_definite_families(self):
        assert kernels.FAMILIES == ("rbf", "imq")

    @pytest.mark.parametrize("family, name", [("rbf", "bandwidth"), ("imq", "offset")])
    def test_no_scale_is_scale_one(self, family, name):
        assert KernelSpec(family) == KernelSpec(family, 1.0)
        assert kernels.SCALE_NAMES[family] == name
        assert KernelSpec(family, 3.0).scale == 3.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for spec in ALL_SPECS:
            for _ in range(25):
                x, y = rng.standard_normal((2, 4))
                kxy = k_pair(spec, x, y)
                kyx = k_pair(spec, y, x)
                assert np.isclose(kxy, kyx, rtol=1e-14)
                assert 0.0 < kxy <= max(1.0, 1.0 / spec.scale)


class TestGrad1:
    def test_zero_at_coincident_points(self):
        x = np.array([0.5, 1.5, -2.0])
        for spec in ALL_SPECS:
            assert np.array_equal(grad1_pair(spec, x, x), np.zeros(3))

    def test_rbf_known_value(self):
        spec = KernelSpec("rbf", 1.0)
        g = grad1_pair(spec, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert np.allclose(g, [-np.exp(-0.5), 0.0])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, y = rng.standard_normal((2, 3))
            fd = central_difference_gradient(lambda v: k_pair(spec, v, y), x, step=1e-6)
            assert np.allclose(grad1_pair(spec, x, y), fd, atol=1e-7)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
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
        sq = pairwise_sq_dists(X, Y)
        for spec in ALL_SPECS:
            fast = weighted_grad1_sum(grad1_weights(spec, C, sq, eval_matrix(spec, X, Y, sq=sq)), X, Y)
            slow = np.zeros_like(fast)
            for i, j in itertools.product(range(6), range(4)):
                slow[i] += C[i, j] * grad1_pair(spec, X[i], Y[j])
            assert np.allclose(fast, slow, atol=1e-12)


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

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
    def test_only_an_rbf_bandwidth_reads_the_samples(self, monkeypatch, spec):
        # the families without a bandwidth return the spec as it is, with no median formed
        samples = np.random.default_rng(2).standard_normal((30, 2))
        if spec.family == "rbf":
            assert bandwidth_from_rule(spec, samples).scale != spec.scale
        else:
            monkeypatch.setattr(kernels, "median_bandwidth", None)  # a call would raise
            assert bandwidth_from_rule(spec, samples) is spec


def reference_median(blocks):
    """The median bandwidth of the pooled samples of ``blocks``, written directly."""
    xx, yy, xy = blocks
    pairs = np.concatenate([xx[np.triu_indices(xx.shape[0], 1)], yy[np.triu_indices(yy.shape[0], 1)], xy.ravel()])
    return max(float(np.median(np.sqrt(pairs))), BANDWIDTH_FLOOR)


# (batch size, d) of the presets' training batches and of the reference loop's test
TRAINING_SHAPES = [(100, 2), (100, 22), (128, 50), (128, 100), (128, 200), (50, 2), (6, 40), (16, 50)]


class TestSqBlocks:
    @pytest.mark.parametrize("n, d", TRAINING_SHAPES)
    def test_transposed_cross_block_has_the_bits_of_its_own_product(self, n, d):
        # the two-batch estimator reads YX as a C-ordered copy of XY's transpose
        rng = np.random.default_rng(n * d)
        for scale in (0.1, 1.0, 10.0):
            X = rng.standard_normal((n, d)) * scale
            Y = rng.standard_normal((n, d)) * scale + 0.5
            assert np.array_equal(np.ascontiguousarray(sq_blocks(X, Y).xy.T), pairwise_sq_dists(Y, X))

    def test_one_set_has_empty_cross_blocks(self):
        X = np.random.default_rng(3).standard_normal((37, 9))
        blocks = sq_blocks(X)
        assert np.array_equal(blocks.xx, pairwise_sq_dists(X, X))
        assert blocks.yy.shape == (0, 0) and blocks.xy.shape == (37, 0)

    def test_rejects_mismatched_widths(self):
        with pytest.raises(ValueError):
            sq_blocks(np.zeros((3, 2)), np.zeros((3, 4)))


class TestSharedGrad1Weights:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
    @pytest.mark.parametrize("n, d", [(6, 40), (16, 50), (100, 2), (128, 200)])
    def test_both_sides_have_the_bits_of_their_own_sums(self, spec, n, d):
        # one weight matrix per iteration, read off the Gram matrix for rbf, serves
        # both batches of the two-batch estimator: the second through its C-ordered transpose
        rng = np.random.default_rng(n + d)
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, d)) + 0.3
        inner = rng.standard_normal((n, 3)) @ rng.standard_normal((n, 3)).T
        sq = sq_blocks(X, Y)
        weights = grad1_weights(spec, inner, sq.xy, eval_matrix(spec, X, Y, sq=sq.xy))
        sides = [(X, Y, weights, inner, sq.xy), (Y, X, np.ascontiguousarray(weights.T), inner.T, sq.xy.T)]
        for A, B, shared, coeff, sq_ab in sides:
            own = np.ascontiguousarray(coeff * reference_g(spec, sq_ab))  # this side's own weights
            assert same_bits(shared, own)
            assert same_bits(weighted_grad1_sum(shared, A, B), own @ B - A * own.sum(axis=1)[:, None])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
    @pytest.mark.parametrize("n, d", [(6, 40), (16, 50), (100, 2), (128, 200)])
    def test_u_statistic_weights_have_the_bits_of_the_off_diagonal_pairs(self, spec, n, d):
        # the U-statistic hands over its Gram and inner-product matrices with zeroed
        # diagonals; rbf's g is read off that Gram matrix, imq's formed from sq
        rng = np.random.default_rng(3 * n + d)
        X = rng.standard_normal((n, d))
        f = rng.standard_normal((n, 3))
        sq = sq_blocks(X)
        inner = f @ f.T
        expect = inner * reference_g(spec, sq.xx)
        np.fill_diagonal(expect, 0.0)  # the pairs of a point with itself are left out
        gram = eval_matrix(spec, X, X, sq=sq.xx)
        np.fill_diagonal(gram, 0.0)
        np.fill_diagonal(inner, 0.0)
        assert same_bits(grad1_weights(spec, inner, sq.xx, gram), expect)


def awkward_samples(seed, n, d, kind):
    """Sample sets that stress the median: ties, duplicates and cancellation."""
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
    """The median of one sample set, and of one set split in two as training's batches are."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        d=st.integers(1, 250),
        kind=st.sampled_from(["gauss", "grid", "duplicates", "identical", "offset"]),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_bitwise_equal_to_the_numpy_median(self, seed, n, d, kind):
        X = awkward_samples(seed, n, d, kind)
        assert median_bandwidth(X) == reference_median(sq_blocks(X))
        split = n // 2  # the training loop's two-batch layout
        if split >= 1:
            blocks = sq_blocks(X[:split], X[split:])
            assert median_bandwidth(X[:split], X[split:], blocks) == reference_median(blocks)

    # the batches of the presets (2 x 100 at d = 2 and 22, 2 x 128 at d = 200);
    # 199 points give an odd pair count
    @pytest.mark.parametrize("n, d", [(199, 2), (200, 2), (200, 22), (256, 200)])
    def test_training_shapes_match_the_numpy_median(self, n, d):
        X = np.random.default_rng(d).standard_normal((n, d)) * 0.7 + 1.5
        blocks = sq_blocks(X[: n // 2], X[n // 2 :])
        assert median_bandwidth(X[: n // 2], X[n // 2 :], blocks) == reference_median(blocks)

    def test_nan_row_gives_nan(self):
        X = np.random.default_rng(5).standard_normal((40, 3))
        X[7, 1] = np.nan
        with np.errstate(invalid="ignore"):
            blocks = sq_blocks(X[:20], X[20:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(median_bandwidth(X[:20], X[20:], blocks))
            assert np.isnan(median_bandwidth(X))
            assert np.isnan(bandwidth_from_rule(RBF, X[:20], X[20:], blocks).scale)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_inf_row_gives_nan(self, value):
        X = np.random.default_rng(6).standard_normal((40, 3))
        X[11, 0] = value
        X[30] = 0.0  # inf * 0 in the products: NaN entries in the blocks
        with np.errstate(invalid="ignore"):
            blocks = sq_blocks(X[:20], X[20:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(median_bandwidth(X[:20], X[20:], blocks))
            assert np.isnan(median_bandwidth(X))

    def test_overflowing_norms_give_nan(self):
        # 4 max|x|^2 past the largest double: the expansion itself can overflow
        X = np.random.default_rng(8).standard_normal((10, 2))
        X[0] = [1e154, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = sq_blocks(X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(median_bandwidth(X, None, blocks))
            assert np.isnan(median_bandwidth(X))
        X[0] = [0.99e154 / 2.0, 0.0]  # 4 max|x|^2 fits: every value is finite
        blocks = sq_blocks(X)
        assert median_bandwidth(X, None, blocks) == reference_median(blocks) > 1.0

    def test_median_rule_reads_the_blocks(self):
        X = np.random.default_rng(9).standard_normal((64, 4))
        blocks = sq_blocks(X[:32], X[32:])
        with_blocks = bandwidth_from_rule(RBF, X[:32], X[32:], blocks)
        assert with_blocks == bandwidth_from_rule(RBF, X[:32], X[32:])
        # the median pools the samples of both sets
        assert with_blocks.scale == median_bandwidth(X[:32], X[32:]) != median_bandwidth(X[:32])


class TestEvalMatrixInPlace:
    @pytest.mark.parametrize("shape", [(7, 5), (300, 200)])  # below and above numpy's temporary elision
    def test_bits_of_the_plain_expressions(self, shape):
        rng = np.random.default_rng(30)
        sq = np.abs(rng.standard_normal(shape)) * 10.0 ** rng.uniform(-300, 300, size=shape)
        sq[0, :3] = [0.0, 5e-324, np.inf]
        X = rng.standard_normal((shape[0], 3))
        Y = rng.standard_normal((shape[1], 3))
        for spec in (KernelSpec("rbf", 0.7), KernelSpec("imq", 1.3)):
            plain = {
                "rbf": lambda q: np.exp(-q / (2.0 * spec.scale**2)),
                "imq": lambda q: (spec.scale**2 + q) ** (-0.5),
            }[spec.family]
            given_sq = sq.copy()
            with np.errstate(over="ignore"):
                assert np.array_equal(eval_matrix(spec, X, Y, sq=given_sq), plain(sq))
            assert np.array_equal(given_sq, sq)  # left as it was
            assert np.array_equal(eval_matrix(spec, X, Y), plain(pairwise_sq_dists(X, Y)))


def spy_gathers(monkeypatch):
    """Record each gather of the median: ("range", a, b) or ("all",)."""
    calls = []
    gather_range, gather_all = kernels._gather_range, kernels._gather_all

    def spy_range(parts, a, b):
        calls.append(("range", a, b))
        return gather_range(parts, a, b)

    def spy_all(parts):
        calls.append(("all",))
        return gather_all(parts)

    monkeypatch.setattr(kernels, "_gather_range", spy_range)
    monkeypatch.setattr(kernels, "_gather_all", spy_all)
    return calls


class TestMedianFromBlocks:
    """The median of two sample sets pooled, as ``evaluate`` takes it."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 200),
        m=st.integers(1, 200),
        d=st.integers(1, 250),
        kind=st.sampled_from(["gauss", "grid", "duplicates", "identical", "offset"]),
    )
    @settings(max_examples=150)
    def test_bitwise_equal_to_the_pooled_numpy_median(self, seed, n, m, d, kind):
        if n + m < 2:
            return
        X = awkward_samples(seed, n, d, kind)
        Y = awkward_samples(seed + 1, m, d, kind) if kind != "identical" else X[:1].repeat(m, axis=0)
        blocks = sq_blocks(X, Y)
        for name, block, expect in zip(blocks._fields, blocks, ((X, X), (Y, Y), (X, Y))):
            assert np.array_equal(block, pairwise_sq_dists(*expect)), name
        assert median_bandwidth(X, Y, blocks) == reference_median(blocks)

    # 316 points hold 49,770 pairs and 317 hold 50,086, around MEDIAN_GATHER_PAIRS
    @pytest.mark.parametrize("n, m, path", [(158, 158, "all"), (159, 158, "range")])
    def test_the_switch_point_chooses_the_gather(self, monkeypatch, n, m, path):
        assert ((n + m) * (n + m - 1) // 2 <= kernels.MEDIAN_GATHER_PAIRS) == (path == "all")
        rng = np.random.default_rng(n + m)
        X = rng.standard_normal((n, 3))
        Y = rng.standard_normal((m, 3)) + 0.4
        blocks = sq_blocks(X, Y)
        calls = spy_gathers(monkeypatch)
        assert median_bandwidth(X, Y, blocks) == reference_median(blocks)
        assert [call[0] for call in calls] == [path]

    @pytest.mark.parametrize("offset, path", [(-1, "range"), (0, "all"), (1, "all")])
    def test_at_the_switch_point(self, monkeypatch, offset, path):
        # 120 + 80 points hold 19,900 pairs; the constant moves around them
        rng = np.random.default_rng(35)
        X = rng.standard_normal((120, 2))
        Y = rng.standard_normal((80, 2)) * 1.2
        blocks = sq_blocks(X, Y)
        monkeypatch.setattr(kernels, "MEDIAN_GATHER_PAIRS", 19_900 + offset)
        calls = spy_gathers(monkeypatch)
        assert median_bandwidth(X, Y, blocks) == reference_median(blocks)
        assert [call[0] for call in calls] == [path]

    @pytest.mark.parametrize("d", [2, 22, 200])
    def test_evaluate_shapes_gather_only_the_bracket(self, monkeypatch, d):
        rng = np.random.default_rng(d)
        X = rng.standard_normal((1000, d))
        Y = rng.standard_normal((1000, d)) * 1.1 + 0.2
        blocks = sq_blocks(X, Y)
        calls = spy_gathers(monkeypatch)
        assert median_bandwidth(X, Y, blocks) == reference_median(blocks)
        assert len(calls) == 1 and calls[0][0] == "range" and np.isfinite(calls[0][1:]).all()

    def test_a_missed_bracket_gathers_everything(self, monkeypatch):
        # at 61 rows a stride of 61 samples one column of every block: the
        # distances to two far outliers, which bracket the wrong ranks; the
        # 7,381 pairs are bracketed only below the gather's switch point
        rng = np.random.default_rng(31)
        X = rng.standard_normal((61, 3))
        Y = rng.standard_normal((61, 3))
        X[0] = Y[0] = 50.0
        blocks = sq_blocks(X, Y)
        monkeypatch.setattr(kernels, "MEDIAN_GATHER_PAIRS", 0)
        calls = spy_gathers(monkeypatch)
        assert median_bandwidth(X, Y, blocks) == reference_median(blocks)
        assert [call[0] for call in calls] == ["range", "all"]

    def test_ties_at_the_bracket_ends(self, monkeypatch):
        # points at 0 and 1: every distance is 0 or 1, and the bracket starts
        # and ends on tied values
        rng = np.random.default_rng(32)
        X = rng.integers(0, 2, size=(300, 1)).astype(np.float64)
        Y = rng.integers(0, 2, size=(200, 1)).astype(np.float64)
        blocks = sq_blocks(X, Y)
        calls = spy_gathers(monkeypatch)
        assert median_bandwidth(X, Y, blocks) == reference_median(blocks)
        assert [call[0] for call in calls] == ["range"]

    @pytest.mark.parametrize("value", [1e154, np.inf, np.nan])
    def test_overflowing_norms_give_nan(self, value):
        X = np.random.default_rng(33).standard_normal((20, 2))
        Y = np.random.default_rng(34).standard_normal((15, 2))
        Y[3, 1] = value
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = sq_blocks(X, Y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(median_bandwidth(X, Y, blocks))
