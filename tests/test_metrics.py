from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ksivi import metrics
from ksivi.kernels import KernelSpec, pairwise_sq_dists, sq_blocks
from ksivi.metrics import (
    DegenerateSamplesError,
    corr_pairs,
    kl_knn,
    mmd2_ustat,
    mmd2_vstat,
    sliced_wd,
    upper_triangle,
)

from test_evaluate_reference import reference_kl_knn

RBF = KernelSpec("rbf", 1.0)


def gaussian_rbf_cross_term(m1, s1, m2, s2, h=1.0):
    """E k(x, y) for independent 1-D Gaussians under an RBF kernel."""
    var = h**2 + s1**2 + s2**2
    return h / np.sqrt(var) * np.exp(-((m1 - m2) ** 2) / (2.0 * var))


class TestMMD:
    def test_vstat_identical_sets_zero(self):
        X = np.random.default_rng(0).standard_normal((50, 3))
        assert mmd2_vstat(X, X, RBF) == 0.0

    def test_ustat_identical_sets_small_negative_bias(self):
        X = np.random.default_rng(1).standard_normal((200, 2))
        value = mmd2_ustat(X, X, RBF)
        assert value <= 0.0
        assert abs(value) < 0.1

    def test_two_point_masses_closed_form(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[2.0, 0.0]])
        # single points per set: V-statistic is 2 (1 - exp(-||a-b||^2 / 2))
        expect = 2.0 * (1.0 - np.exp(-2.0))
        assert np.isclose(mmd2_vstat(a, b, RBF), expect)

    def test_matches_population_value(self):
        # N(0,1) vs N(1,1): population value from the Gaussian closed form,
        # which the quadrature oracle in the acceptance suite reproduces
        n = 5000
        rng = np.random.default_rng(2)
        X = rng.standard_normal((n, 1))
        Y = rng.standard_normal((n, 1)) + 1.0
        population = (
            gaussian_rbf_cross_term(0, 1, 0, 1)
            + gaussian_rbf_cross_term(1, 1, 1, 1)
            - 2.0 * gaussian_rbf_cross_term(0, 1, 1, 1)
        )
        estimate = mmd2_ustat(X, Y, RBF)
        # rough standard error via independent replicates at smaller n
        reps = [
            mmd2_ustat(
                rng.standard_normal((1000, 1)),
                rng.standard_normal((1000, 1)) + 1.0,
                RBF,
            )
            for _ in range(10)
        ]
        se_n = np.std(reps) * np.sqrt(1000.0 / n)
        assert abs(estimate - population) < 3.0 * se_n

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 2))
        Y = rng.standard_normal((30, 2)) + 0.5
        assert np.isclose(mmd2_ustat(X, Y, RBF), mmd2_ustat(Y, X, RBF), rtol=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            mmd2_ustat(np.zeros((1, 2)), np.zeros((5, 2)), RBF)

    @pytest.mark.parametrize(
        "n, m, d, kernel",
        [
            (70, 50, 3, KernelSpec("rbf", 0.8)),
            (80, 121, 40, KernelSpec("imq", 0.5)),
            (60, 60, 200, KernelSpec("imq")),
            (40, 30, 5, KernelSpec("imq", 0.25)),
        ],
        ids=["rbf-fixed", "imq", "imq-default", "imq-sharp"],
    )
    def test_ustat_matches_the_written_out_sum(self, n, m, d, kernel):
        # evaluate's mmd2 is the rbf at the median; any other kernel is this one call, so it keeps its oracle here
        rng = np.random.default_rng(n + m + d)
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((m, d)) * 1.2 + 0.3

        def gram(A, B):
            sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
            if kernel.family == "rbf":
                return np.exp(-sq / (2.0 * kernel.scale**2))
            return (kernel.scale**2 + sq) ** -0.5

        kxx, kyy = gram(X, X), gram(Y, Y)
        expect = (
            (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
            + (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
            - 2.0 * gram(X, Y).mean()
        )
        value = mmd2_ustat(X, Y, kernel)
        assert np.isclose(value, expect, rtol=1e-9, atol=1e-12)
        assert mmd2_ustat(X, Y, kernel, sq_blocks(X, Y)) == value  # the blocks change no bit


class TestSlicedWD:
    def test_identical_sets_zero(self):
        X = np.random.default_rng(4).standard_normal((100, 3))
        assert sliced_wd(X, X) == 0.0

    def test_one_dimensional_shift(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[1.0], [2.0]])
        assert np.isclose(sliced_wd(X, Y, n_proj=16, seed=0), 1.0)

    def test_matches_dense_projection_oracle(self):
        # at d = 2 the sliced distance is the mean over one angle in [0, pi) (a projection and its
        # negation give the same distance), so the oracle is a midpoint rule over 180 angles,
        # which agrees with 90 and 360 angles to 6 digits
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10_000, 2))
        Y = rng.standard_normal((10_000, 2)) + np.array([1.0, 0.0])
        angles = (np.arange(180) + 0.5) * np.pi / 180
        dirs = np.stack([np.cos(angles), np.sin(angles)])
        dense = np.sqrt(((np.sort(X @ dirs, axis=0) - np.sort(Y @ dirs, axis=0)) ** 2).mean(axis=0)).mean()
        standard = sliced_wd(X, Y, n_proj=128, seed=2)
        assert abs(standard - dense) < 0.1 * dense

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((50, 2))
        Y = rng.standard_normal((50, 2))
        assert sliced_wd(X, Y, seed=3) == sliced_wd(X, Y, seed=3)

    def test_unequal_sizes_subsampled(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((200, 2))
        Y = rng.standard_normal((150, 2))
        value = sliced_wd(X, Y, seed=4)
        assert np.isfinite(value) and value >= 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((80, 2))
        Y = rng.standard_normal((80, 2)) + 0.3
        assert np.isclose(sliced_wd(X, Y, seed=5), sliced_wd(Y, X, seed=5), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sliced_wd(np.zeros((10, 2)), np.zeros((10, 3)))

    @pytest.mark.parametrize("n_proj", [0, -3])
    def test_no_projection_refused_by_name(self, n_proj):
        X = np.random.default_rng(9).standard_normal((10, 2))
        with pytest.raises(ValueError, match=f"^n_proj must be at least 1, got {n_proj}$"):
            sliced_wd(X, X + 1.0, n_proj=n_proj)


class TestKLKNN:
    def test_same_distribution_near_zero(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((10_000, 2))
        Y = rng.standard_normal((10_000, 2))
        assert abs(kl_knn(X, Y)) < 0.05

    def test_shifted_gaussian_analytic_value(self):
        # KL(N(0,1) || N(1,1)) = 0.5 exactly
        rng = np.random.default_rng(10)
        X = rng.standard_normal((10_000, 1))
        Y = rng.standard_normal((10_000, 1)) + 1.0
        assert abs(kl_knn(X, Y) - 0.5) < 0.1

    def test_invariant_under_shared_linear_map(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5000, 2))
        Y = rng.standard_normal((5000, 2)) + np.array([0.5, 0.0])
        A = np.array([[2.0, 0.3], [-0.4, 1.5]])
        before = kl_knn(X, Y)
        after = kl_knn(X @ A.T, Y @ A.T)
        assert abs(before - after) < 0.1

    def test_asymmetric_on_skewed_inputs(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((4000, 1)) * 0.3
        Y = rng.standard_normal((4000, 1)) * 2.0
        assert abs(kl_knn(X, Y) - kl_knn(Y, X)) > 0.3

    def test_duplicate_degeneracy_reported(self):
        X = np.zeros((100, 2))
        Y = np.random.default_rng(13).standard_normal((100, 2))
        with pytest.raises(DegenerateSamplesError):
            kl_knn(X, Y)

    def test_neighbor_count_validation(self):
        X = np.random.default_rng(14).standard_normal((5, 2))
        with pytest.raises(ValueError, match="^need more samples than neighbors on both sides$"):
            kl_knn(X, X, k=5)

    @pytest.mark.parametrize("k", [0, -2])
    def test_no_neighbor_refused_by_name(self, k):
        X = np.random.default_rng(14).standard_normal((5, 2))
        with pytest.raises(ValueError, match=f"^k must be at least 1, got {k}$"):
            kl_knn(X, X + 1.0, k=k)


def knn_samples(seed, n, d, kind):
    """Sample sets for the neighbour distances: ties, duplicates and cancellation."""
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        return rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3)
    if kind == "grid":  # small integers: many exactly tied distances
        return rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    if kind == "duplicates":  # a few repeated rows give exact zeros
        X = rng.standard_normal((n, d))
        X[rng.integers(0, n, size=max(1, n // 20))] = X[0]
        return X
    # far from the origin relative to the spread: the expansion cancels
    spread = 10.0 ** rng.uniform(-6, 0)
    return rng.uniform(-5, 5) * 10.0 ** rng.uniform(0, 3) + spread * rng.standard_normal((n, d))


def outcome(fn):
    """The value, or the message of a DegenerateSamplesError."""
    try:
        return fn()
    except DegenerateSamplesError as err:
        return str(err)


class TestKLKNNFromBlocks:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 300),
        m=st.integers(4, 120),
        d=st.integers(1, 250),
        k=st.sampled_from([1, 3]),
        kind=st.sampled_from(["gauss", "grid", "duplicates", "offset"]),
    )
    @settings(max_examples=150)
    def test_bitwise_equal_to_the_numpy_definition(self, seed, n, m, d, k, kind):
        X = knn_samples(seed, n, d, kind)
        Y = knn_samples(seed + 1, m, d, kind) + (0.5 if kind == "gauss" else 0.0)
        blocks = sq_blocks(X, Y)
        from_blocks = outcome(lambda: kl_knn(X, Y, k=k, sq=(blocks.xx, blocks.xy)))
        assert from_blocks == outcome(lambda: reference_kl_knn(X, Y, k=k, sq=(blocks.xx, blocks.xy)))
        # without the blocks, the full ones are built
        full = (pairwise_sq_dists(X, X), pairwise_sq_dists(X, Y))
        assert outcome(lambda: kl_knn(X, Y, k=k)) == outcome(lambda: reference_kl_knn(X, Y, k, full))

    @pytest.mark.parametrize("seed", range(3))
    def test_without_blocks_the_bits_of_evaluates_blocks(self, seed):
        # at d = 2, products of a few rows round otherwise than the whole ones
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((300, 2))
        Y = rng.standard_normal((300, 2)) + 0.5
        b = sq_blocks(X, Y)
        for k in (1, 3):
            assert kl_knn(X, Y, k) == kl_knn(X, Y, k, sq=(b.xx, b.xy))

    def test_sub_blocks_of_a_larger_matrix(self):
        # the noise floor reads np.ix_ sub-blocks of one YY matrix
        rng = np.random.default_rng(20)
        Y = rng.standard_normal((301, 30)) * 2.0 + 1.0
        a, b = np.split(rng.permutation(301), [150])
        yy = pairwise_sq_dists(Y, Y)
        for k in (1, 3):
            sq = (yy[np.ix_(a, a)], yy[np.ix_(a, b)])
            assert kl_knn(Y[a], Y[b], k=k, sq=sq) == reference_kl_knn(Y[a], Y[b], k=k, sq=sq)

    @pytest.mark.parametrize("d", [2, 8, 200])
    def test_given_blocks_are_read_at_every_d(self, d):
        X = np.random.default_rng(d).standard_normal((50, d))
        blocks = sq_blocks(X, X + 0.1)

        def no_builds(*args):
            raise AssertionError("kl_knn built distances it was given")

        with mock.patch.object(metrics, "pairwise_sq_dists", no_builds):
            value = kl_knn(X, X + 0.1, sq=(blocks.xx, blocks.xy))
        assert value == reference_kl_knn(X, X + 0.1, sq=(blocks.xx, blocks.xy))

    def test_overflowing_norms_refused_by_name(self):
        # one far row: 4 max|x|^2 is past the largest double
        X = np.random.default_rng(21).standard_normal((30, 12))
        X[0, 0] = 1e154
        Y = np.random.default_rng(22).standard_normal((30, 12))
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = sq_blocks(X, Y)
        for sq in ((blocks.xx, blocks.xy), None):
            with pytest.raises(ValueError, match="^squared norms overflow the distance expansion$"):
                kl_knn(X, Y, sq=sq)
        # at 1e153 the expansion fits, but its error bound is far above the
        # spread of the other 29 rows: their neighbours count as duplicates
        X[0, 0] = 1e153
        with pytest.raises(DegenerateSamplesError, match="^29 of 30 within-set neighbor distances collapsed"):
            kl_knn(X, Y)

    def test_tied_distances(self):
        # distinct corners of the 10-cube: a row ties with about six others at distance 1
        codes = np.random.default_rng(23).choice(1024, size=600, replace=False)
        X = ((codes[:, None] >> np.arange(10)) & 1).astype(np.float64)
        Y = X[::-1] + 0.5
        blocks = sq_blocks(X, Y)
        sq = (blocks.xx, blocks.xy)
        assert kl_knn(X, Y, sq=sq) == reference_kl_knn(X, Y, sq=sq)

    def test_degenerate_samples_still_refused(self):
        # 3 of 100 rows repeat another one at d = 200: their expansion values
        # are a few ulps, below the error bound, and the clamp count refuses
        # the estimate
        rng = np.random.default_rng(24)
        X = rng.standard_normal((100, 200))
        X[[10, 20, 30]] = X[[11, 21, 31]]
        Y = rng.standard_normal((100, 200))
        blocks = sq_blocks(X, Y)
        with pytest.raises(DegenerateSamplesError, match="^6 of 100 within-set neighbor distances collapsed"):
            kl_knn(X, Y, sq=(blocks.xx, blocks.xy))
        with pytest.raises(DegenerateSamplesError, match="^6 of 100 within-set neighbor distances collapsed"):
            kl_knn(X, Y)

    def test_collapsed_cross_set_distances_refused(self):
        # the planted case of test_distances_vs_scipy.test_planted_near_ties:
        # at 1e3 from the origin, every point's Y-neighbours sit about 1e-5
        # away, below the expansion's error bound, so every nu reads 0
        rng = np.random.default_rng(25)

        def planted(centres, scale):
            D = scale * rng.standard_normal(centres.shape)
            return np.concatenate([centres + D, centres - (1.0 + 1e-9) * D])

        C = 1e3 + rng.standard_normal((100, 20))
        X = np.concatenate([C, planted(C, 1e-3)])
        Y = planted(X, 1e-5)
        with pytest.raises(DegenerateSamplesError, match=r"^300 of 300 cross-set \(X into Y\) neighbor distances"):
            kl_knn(X, Y)

    @pytest.mark.parametrize("shared,refused", [(2, False), (3, True)])
    def test_cross_set_collapse_threshold(self, shared, refused):
        # rows of X repeated in Y: their nu is 0; more than 1% of 200 refuses
        rng = np.random.default_rng(26)
        X = rng.standard_normal((200, 3))
        Y = rng.standard_normal((150, 3))
        Y[:shared] = X[:shared]
        if refused:
            with pytest.raises(DegenerateSamplesError, match=r"^3 of 200 cross-set \(X into Y\) neighbor distances"):
                kl_knn(X, Y)
        else:
            assert np.isfinite(kl_knn(X, Y))


class TestCorrPairs:
    def test_duplicated_coordinate(self):
        rng = np.random.default_rng(15)
        base = rng.standard_normal(100)
        X = np.stack([base, base, rng.standard_normal(100)], axis=1)
        corr = corr_pairs(X)
        assert np.isclose(corr[0, 1], 1.0)

    def test_negated_coordinate(self):
        rng = np.random.default_rng(16)
        base = rng.standard_normal(100)
        X = np.stack([base, -base], axis=1)
        assert np.isclose(corr_pairs(X)[0, 1], -1.0)

    def test_known_correlation(self):
        rng = np.random.default_rng(17)
        n = 10_000
        u = rng.standard_normal(n)
        v = 0.9 * u + np.sqrt(1.0 - 0.81) * rng.standard_normal(n)
        corr = corr_pairs(np.stack([u, v], axis=1))
        assert abs(corr[0, 1] - 0.9) < 0.02

    def test_zero_variance_rejected(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        with pytest.raises(ValueError, match="variance"):
            corr_pairs(X)

    def test_values_bounded(self):
        X = np.random.default_rng(18).standard_normal((50, 4))
        corr = corr_pairs(X)
        assert np.all(corr <= 1.0) and np.all(corr >= -1.0)

    def test_upper_triangle_order(self):
        mat = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(upper_triangle(mat), [1.0, 2.0, 5.0])


class TestPermutationInvariance:
    def test_all_metrics(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((60, 2))
        Y = rng.standard_normal((60, 2)) + 0.2
        perm = rng.permutation(60)
        assert np.isclose(mmd2_ustat(X[perm], Y, RBF), mmd2_ustat(X, Y, RBF), rtol=1e-10)
        assert np.isclose(sliced_wd(X[perm], Y, seed=6), sliced_wd(X, Y, seed=6), rtol=1e-10)
        assert np.isclose(kl_knn(X[perm], Y), kl_knn(X, Y), rtol=1e-10)
        assert np.allclose(corr_pairs(X[perm]), corr_pairs(X), rtol=1e-10)
