"""Sample-based discrepancy estimators used for evaluation.

Maximum mean discrepancy (unbiased U-statistic and plug-in V-statistic),
sliced Wasserstein distance over random projections, a nearest-neighbor KL
divergence estimate, and pairwise Pearson correlations.

``evaluate`` computes its squared distances once (``kernels.sq_blocks``) and
hands them to ``mmd2_ustat`` and ``kl_knn``.  The MMD evaluates its Gram
matrices on the blocks, with the same bits as without them, and the neighbour
estimate takes each row's k-th smallest value of them.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelSpec, SqBlocks, c_ordered, eval_matrix, expansion_error, pairwise_sq_dists

DISTANCE_CLAMP = 1e-12
KNN_PARTITION_ROWS = 128


class DegenerateSamplesError(ValueError):
    """Raised when too many nearest-neighbor distances hit the clamp."""


def _check_sample_set(X, name, min_rows=2):
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < min_rows:
        raise ValueError(f"{name} must be a 2-D array with at least {min_rows} rows")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite entries")
    return X


def _check_pair_dims(X, Y):
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"sample dimensions differ: {X.shape[1]} vs {Y.shape[1]}")


def _check_sample_sets(X, Y, min_rows=2):
    """Both sample sets checked, C-ordered (``kernels.c_ordered``) and of one dimension."""
    X, Y = (_check_sample_set(S, name, min_rows) for S, name in zip(c_ordered(X, Y), "XY"))
    _check_pair_dims(X, Y)
    return X, Y


def _off_diagonal_mean(gram: np.ndarray) -> float:
    n = gram.shape[0]
    return (gram.sum() - np.trace(gram)) / (n * (n - 1))


def mmd2_ustat(X, Y, kernel: KernelSpec, sq: SqBlocks | None = None) -> float:
    """Unbiased squared maximum mean discrepancy.

    ``sq``, if given, is ``kernels.sq_blocks(X, Y)`` in any memory order,
    with the bits of the value without it.  One Gram matrix is alive at a time.
    """
    X, Y = _check_sample_sets(X, Y)
    xx, yy, xy = (None, None, None) if sq is None else (np.ascontiguousarray(block) for block in sq)
    within_x = _off_diagonal_mean(eval_matrix(kernel, X, X, xx))
    within_y = _off_diagonal_mean(eval_matrix(kernel, Y, Y, yy))
    return float(within_x + within_y - 2.0 * eval_matrix(kernel, X, Y, xy).mean())


def mmd2_vstat(X, Y, kernel: KernelSpec) -> float:
    """Plug-in squared maximum mean discrepancy; exactly zero for X == Y."""
    X, Y = _check_sample_sets(X, Y, min_rows=1)
    return float(
        eval_matrix(kernel, X, X).mean()
        + eval_matrix(kernel, Y, Y).mean()
        - 2.0 * eval_matrix(kernel, X, Y).mean()
    )


def sliced_wd(X, Y, n_proj: int = 128, seed: int = 0) -> float:
    """Average order-2 Wasserstein distance over random 1-D projections.

    Unequal sample counts are resolved by seeded subsampling of the larger
    set, so the sorted-coupling formula applies directly.
    """
    if n_proj < 1:
        raise ValueError(f"n_proj must be at least 1, got {n_proj}")
    X, Y = _check_sample_sets(X, Y)
    rng = np.random.default_rng(seed)
    if X.shape[0] != Y.shape[0]:
        n = min(X.shape[0], Y.shape[0])
        if X.shape[0] > n:
            X = X[rng.choice(X.shape[0], size=n, replace=False)]
        else:
            Y = Y[rng.choice(Y.shape[0], size=n, replace=False)]
    dirs = rng.standard_normal((n_proj, X.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj_x = np.sort(X @ dirs.T, axis=0)
    proj_y = np.sort(Y @ dirs.T, axis=0)
    w2 = np.sqrt(((proj_x - proj_y) ** 2).mean(axis=0))
    return float(w2.mean())


def _neighbour_dists(X: np.ndarray, Y: np.ndarray, k: int, sq=None) -> np.ndarray:
    """Each row of X's k-th neighbour distance within X (itself left out) and into Y.

    Rows ``(rho, nu)`` of a (2, n) array: the square roots of each row's k-th
    smallest squared distance, read from ``sq`` or, without it, from products
    of ``KNN_PARTITION_ROWS`` rows of X at a time against X and Y.  Values at
    or below ``kernels.expansion_error`` are read as 0: the expansion cannot
    tell them from a duplicate.
    """
    floor = expansion_error(X, Y)
    if np.isnan(floor):
        raise ValueError("squared norms overflow the distance expansion")
    kth_sq = np.empty((2, X.shape[0]))
    for start in range(0, X.shape[0], KNN_PARTITION_ROWS):  # a partition copies what it sorts
        rows = slice(start, start + KNN_PARTITION_ROWS)
        if sq is None:
            blocks = (pairwise_sq_dists(X[rows], X), pairwise_sq_dists(X[rows], Y))
        else:
            blocks = (sq[0][rows], sq[1][rows])
        for out, block, kth in zip(kth_sq, blocks, (k + 1, k)):  # within X, self sits at distance 0
            # a row minimum is ten times faster than a partition at rank 0
            out[rows] = block.min(axis=1) if kth == 1 else np.partition(block, kth - 1, axis=1)[:, kth - 1]
    kth_sq[kth_sq <= floor] = 0.0
    return np.sqrt(kth_sq, out=kth_sq)


def kl_knn(X, Y, k: int = 1, sq: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Nearest-neighbor estimate of KL(q || p) from X ~ q and Y ~ p.

    Uses the ratio of the k-th neighbor distance into Y to the k-th neighbor
    distance within X.  Distances are clamped below; if more than 1% of the
    within-set distances, or of the cross-set ones from X into Y, hit the
    clamp, the samples are effectively degenerate and the estimate is
    refused.  Squared distances at or below
    ``kernels.expansion_error`` count as 0, so duplicates, and clusters whose
    spread the expansion cannot resolve, are refused alike.  Samples whose
    squared norms overflow the expansion are refused.

    ``sq``, if given, is ``(pairwise_sq_dists(X, X), pairwise_sq_dists(X, Y))``
    or sub-blocks of larger ones.  Without it the distances are built a few
    rows at a time, in memory linear in the sample counts; a product of a few
    rows need not round like the whole one, so the two can differ in the last
    bits.
    """
    X, Y = _check_sample_sets(X, Y)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n, m = X.shape[0], Y.shape[0]
    if n <= k or m <= k:
        raise ValueError("need more samples than neighbors on both sides")
    rho, nu = _neighbour_dists(X, Y, k, sq)
    for dists, which in ((rho, "within-set"), (nu, "cross-set (X into Y)")):
        clamped = dists < DISTANCE_CLAMP
        if clamped.mean() > 0.01:
            raise DegenerateSamplesError(
                f"{int(clamped.sum())} of {n} {which} neighbor distances collapsed; "
                "samples contain too many duplicates for a neighbor-ratio estimate"
            )
    rho = np.maximum(rho, DISTANCE_CLAMP)
    nu = np.maximum(nu, DISTANCE_CLAMP)
    return float((X.shape[1] / n) * np.log(nu / rho).sum() + np.log(m / (n - 1.0)))


def corr_pairs(X) -> np.ndarray:
    """Sample Pearson correlation matrix; requires two or more coordinates, each varying."""
    X = _check_sample_set(X, "X", min_rows=3)
    if X.shape[1] < 2:
        raise ValueError(f"needs at least 2 coordinates to correlate, got {X.shape[1]}")
    stds = X.std(axis=0)
    if np.any(stds == 0.0):
        bad = int(np.flatnonzero(stds == 0.0)[0])
        raise ValueError(f"coordinate {bad} has zero variance")
    corr = np.corrcoef(X.T)
    return np.clip(corr, -1.0, 1.0)


def upper_triangle(matrix: np.ndarray) -> np.ndarray:
    """Strictly-upper-triangular entries in row-major pair order."""
    matrix = np.asarray(matrix)
    idx = np.triu_indices(matrix.shape[0], k=1)
    return matrix[idx]
