"""The median and neighbour distances against scipy's, within the expansion's rounding bound.

Every distance in the package is the square root of a value of the BLAS
expansion ``|x|^2 + |y|^2 - 2 x.y`` (``kernels.pairwise_sq_dists``).  scipy's
``pdist`` and ``cKDTree`` sum ``(x_i - y_i)^2`` instead, which is accurate to a
few ulps of the distance itself; they are the oracle here.  The tolerance is
derived, not fitted.

Let u = eps / 2 be the unit roundoff, M = max |x|^2 over all the samples and
g(k) = k u / (1 - k u).

1. The expansion.  It computes fl(fl(a + b) - c) with a = fl(|x|^2),
   b = fl(|y|^2) and c = 2 fl(x.y); the doubling is exact.  A d-term sum of
   products, in any order and with or without fused multiply-adds, is within
   g(d) sum_i |x_i y_i| <= g(d) |x| |y| <= g(d) M of the exact sum.  So a, b
   and c are off by at most g(d) M, g(d) M and 2 g(d) M.  The sum a + b is at
   most about 2M and the difference at most about 4M, so their two roundings
   add 2uM and 4uM.  In all, 4 g(d) M + 6 u M, which is (2d + 3) eps M to first
   order; ``kernels.expansion_error`` rounds it up to (2d + 4) eps M.  The
   clamp at 0 only moves a value towards the exact one.

2. The oracles.  Each difference x_i - y_i rounds once and its square once,
   and the sum of d nonnegative terms adds g(d - 1) relative to the total;
   the returned root rounds once more, and squaring it back doubles that.
   So the oracle's distance t satisfies |t^2 - |x - y|^2| <= g(d + 4) |x - y|^2
   <= 4 g(d + 4) M, which (2d + 10) eps M covers.

3. Order statistics.  The k-th smallest of a list is 1-Lipschitz in the
   largest entrywise change, so the middle values of the median and each
   row's k-th neighbour differ from the oracle's by at most
   (2d + 4 + 2d + 10) eps M = (4d + 14) eps M in their squares.  ``kl_knn``
   also reads a k-th value at or below its floor, (2d + 4) eps M, as 0,
   which adds that much: (6d + 18) eps M.

4. From squares to distances.  |sqrt(s) - t| = |s - t^2| / (sqrt(s) + t), so a
   bound B on the squares bounds the distances by min(sqrt(B), B / t).  The
   package's own square root and the median's mean of two values add two
   roundings, 2u t.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from ksivi import metrics
from ksivi.kernels import median_bandwidth, sq_blocks

EPS = np.finfo(np.float64).eps


def samples(seed, n, d, kind):
    """Gaussian points, small-integer points with tied distances, or repeated rows."""
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        return rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3)
    if kind == "grid":
        return rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    base = rng.standard_normal((max(1, n // 3), d))  # duplicates: exact zeros
    return base[rng.integers(0, base.shape[0], size=n)]


def square_bound(per_d, offset, *sample_sets):
    """(per_d d + offset) eps M, with M the largest squared norm."""
    d = sample_sets[0].shape[1]
    return (per_d * d + offset) * EPS * max((S**2).sum(axis=1).max() for S in sample_sets)


def distance_tolerance(bound, t):
    """min(sqrt(B), B / t) for the squares' bound B, plus two roundings of t (step 4)."""
    return bound / np.maximum(t, np.sqrt(bound)) + EPS * t


KINDS = ["gauss", "grid", "duplicates"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [2, 22, 200])
@pytest.mark.parametrize("seed", [0, 1])
class TestWithinTheRoundingBound:
    def test_median(self, seed, d, kind):
        X = samples(seed, 301, d, kind)  # 45,150 pairs: two middle values
        ref = np.sort(pdist(X))
        lo = ref[ref.size // 2 - 1]
        assert lo > 0
        tol = distance_tolerance(square_bound(4, 14, X), lo)
        assert abs(median_bandwidth(X) - np.median(ref)) <= tol

    def test_pooled_median(self, seed, d, kind):
        X = samples(seed, 200, d, kind)
        Y = samples(seed + 1, 151, d, kind)
        ref = np.sort(pdist(np.concatenate([X, Y])))  # 61,425 pairs: one middle value
        mid = ref[ref.size // 2]
        assert mid > 0
        tol = distance_tolerance(square_bound(4, 14, X, Y), mid)
        assert abs(median_bandwidth(X, Y, sq_blocks(X, Y)) - mid) <= tol

    @pytest.mark.parametrize("k", [1, 3])
    def test_neighbour_distances(self, seed, d, kind, k):
        X = samples(seed, 300, d, kind)
        Y = samples(seed + 1, 250, d, kind)
        ref_rho = cKDTree(X).query(X, k=[k + 1])[0][:, 0]  # self sits at distance 0
        ref_nu = cKDTree(Y).query(X, k=[k])[0][:, 0]
        bound = square_bound(6, 18, X, Y)
        blocks = sq_blocks(X, Y)
        for sq in ((blocks.xx, blocks.xy), None):
            rho, nu = metrics._neighbour_dists(X, Y, k, sq)
            assert np.all(np.abs(rho - ref_rho) <= distance_tolerance(bound, ref_rho))
            assert np.all(np.abs(nu - ref_nu) <= distance_tolerance(bound, ref_nu))
            # a duplicate is 0 exactly: its expansion value is within the floor
            assert np.all(rho[ref_rho == 0.0] == 0.0) and np.all(nu[ref_nu == 0.0] == 0.0)


def test_planted_near_ties():
    # every point has two neighbours at c + D and c - (1 + 1e-9) D, the first
    # nearer; far from the origin the expansion's rounding orders them at
    # random, but whichever it takes is within the bound of cKDTree's
    rng = np.random.default_rng(25)

    def planted(centres, scale):
        D = scale * rng.standard_normal(centres.shape)
        return np.concatenate([centres + D, centres - (1.0 + 1e-9) * D])

    C = 1e3 + rng.standard_normal((100, 20))
    X = np.concatenate([C, planted(C, 1e-3)])  # within X, around each centre
    Y = planted(X, 1e-5)  # from X into Y, around every point
    rho, nu = metrics._neighbour_dists(X, Y, 1)
    ref_rho = cKDTree(X).query(X, k=[2])[0][:, 0]
    ref_nu = cKDTree(Y).query(X, k=[1])[0][:, 0]
    bound = square_bound(6, 18, X, Y)
    assert np.all(np.abs(rho - ref_rho) <= distance_tolerance(bound, ref_rho))
    assert np.all(np.abs(nu - ref_nu) <= distance_tolerance(bound, ref_nu))
