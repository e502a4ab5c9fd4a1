"""Sample-based discrepancy estimators used for evaluation.

Maximum mean discrepancy (unbiased U-statistic and plug-in V-statistic),
sliced Wasserstein distance over random projections, a nearest-neighbor KL
divergence estimate, and pairwise Pearson correlations.

``evaluate`` computes its squared distances once (``kernels.sq_blocks``) and
hands them to ``mmd2_ustat`` and ``kl_knn``, which give the same bits with or
without them.  The MMD evaluates its Gram matrices on the blocks.  The
neighbour estimate takes each row's k-th smallest expansion value and
recomputes exactly only the points within the rounding band of it, in
cKDTree's summation order; at low d it leaves the neighbours to cKDTree.

scipy loads only when ``cKDTree`` is first called (``kl_knn`` at low d, or a
fallback): importing ``scipy.spatial`` takes about 0.3 s and 30 MB.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelSpec, SqBlocks, eval_matrix, rounding_slack

DISTANCE_CLAMP = 1e-12

# Up to this dimension ``kl_knn`` leaves the neighbours to cKDTree, which
# prunes there; above it the tree visits most points and the blocks win.
KNN_TREE_MAX_DIM = 8
KNN_PARTITION_ROWS = 128


def cKDTree(data: np.ndarray):
    """``scipy.spatial.cKDTree(data)``, with scipy imported on the first call."""
    from scipy.spatial import cKDTree as tree

    return tree(data)


class DegenerateSamplesError(ValueError):
    """Raised when too many nearest-neighbor distances hit the clamp."""


def _check_sample_set(X, name, min_rows=2):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < min_rows:
        raise ValueError(f"{name} must be a 2-D array with at least {min_rows} rows")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite entries")
    return X


def _check_pair_dims(X, Y):
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"sample dimensions differ: {X.shape[1]} vs {Y.shape[1]}")


def _off_diagonal_mean(gram: np.ndarray) -> float:
    n = gram.shape[0]
    return (gram.sum() - np.trace(gram)) / (n * (n - 1))


def mmd2_ustat(X, Y, kernel: KernelSpec, sq: SqBlocks | None = None) -> float:
    """Unbiased squared maximum mean discrepancy.

    ``sq``, if given, is ``kernels.sq_blocks(X, Y)``; the value has the same
    bits either way.  One Gram matrix is alive at a time.
    """
    X = _check_sample_set(X, "X")
    Y = _check_sample_set(Y, "Y")
    _check_pair_dims(X, Y)
    xx, yy, xy = (None, None, None) if sq is None else sq
    within_x = _off_diagonal_mean(eval_matrix(kernel, X, X, xx))
    within_y = _off_diagonal_mean(eval_matrix(kernel, Y, Y, yy))
    return float(within_x + within_y - 2.0 * eval_matrix(kernel, X, Y, xy).mean())


def mmd2_vstat(X, Y, kernel: KernelSpec) -> float:
    """Plug-in squared maximum mean discrepancy; exactly zero for X == Y."""
    X = _check_sample_set(X, "X", min_rows=1)
    Y = _check_sample_set(Y, "Y", min_rows=1)
    _check_pair_dims(X, Y)
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
    X = _check_sample_set(X, "X")
    Y = _check_sample_set(Y, "Y")
    _check_pair_dims(X, Y)
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


def _ckdtree_sq_dists(diff: np.ndarray) -> np.ndarray:
    """Row sums of ``diff**2`` in cKDTree's order, so their roots have its bits.

    Four interleaved accumulators, each summed in order, are added as
    ``((a0 + a1) + a2) + a3``; then the ``d mod 4`` tail follows in order.
    ``diff`` is overwritten with its squares.
    """
    d = diff.shape[1]
    lanes = d - d % 4
    squares = np.multiply(diff, diff, out=diff)
    total = np.zeros(diff.shape[0])
    if lanes:
        a0, a1, a2, a3 = (np.cumsum(squares[:, j:lanes:4], axis=1)[:, -1] for j in range(4))
        total = ((a0 + a1) + a2) + a3
    for j in range(lanes, d):
        total = total + squares[:, j]
    return total


def _kth_from_sq(A: np.ndarray, B: np.ndarray, sq: np.ndarray, kth: int, slack: float) -> np.ndarray | None:
    """cKDTree's ``kth`` smallest distance from each row of A to the rows of B.

    ``sq`` holds the expansion ``|a|^2 + |b|^2 - 2 a.b``.  Per row, every
    point whose expansion is at most the row's ``kth`` smallest plus
    ``slack`` is recomputed exactly; no other point can rank among the
    ``kth`` nearest.  None when that band holds more than ``kth + 1`` points
    per row on average (duplicates, ties), which the tree then takes.
    """
    n = A.shape[0]
    cut = np.empty(n)
    for start in range(0, n, KNN_PARTITION_ROWS):  # a partition copies what it sorts
        block = sq[start : start + KNN_PARTITION_ROWS]
        # a row minimum is ten times faster than a partition at rank 0
        cut[start : start + KNN_PARTITION_ROWS] = (
            block.min(axis=1) if kth == 1 else np.partition(block, kth - 1, axis=1)[:, kth - 1]
        )
    cut += slack
    rows, cols = np.divmod(np.flatnonzero(sq <= cut[:, None]), sq.shape[1])  # ``np.nonzero`` is 7x slower
    if rows.size > n * (kth + 1):
        return None
    exact = _ckdtree_sq_dists(A[rows] - B[cols])
    order = np.lexsort((exact, rows))  # by row, then by distance
    first = np.searchsorted(rows, np.arange(n))  # the rows come in order
    return np.sqrt(exact[order][first + kth - 1])


def kl_knn(X, Y, k: int = 1, sq: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Nearest-neighbor estimate of KL(q || p) from X ~ q and Y ~ p.

    Uses the ratio of the k-th neighbor distance into Y to the k-th neighbor
    distance within X.  Distances are clamped below; if more than 1% of the
    within-set distances hit the clamp the sample set is effectively
    degenerate and the estimate is refused.

    ``sq``, if given, is ``(pairwise_sq_dists(X, X), pairwise_sq_dists(X, Y))``
    or sub-blocks of larger ones, and the neighbour distances come from it
    with cKDTree's bits.  It is read only above ``KNN_TREE_MAX_DIM``: on
    1000 + 1000 Gaussian points (2-core Xeon VM, one thread) the two tree
    queries took 1.7 ms at d = 2, 3.3 at d = 4, 14 at d = 8, 24 at d = 12,
    46 at d = 22 and 240 at d = 200; the same two from the blocks took 8 to
    15 ms at every d, once the blocks are built.  Samples whose
    squared norms overflow, and rows with too wide a band, go to the tree.
    """
    X = _check_sample_set(X, "X")
    Y = _check_sample_set(Y, "Y")
    _check_pair_dims(X, Y)
    n, m = X.shape[0], Y.shape[0]
    if k < 1 or n <= k or m <= k:
        raise ValueError("need more samples than neighbors on both sides")
    d = X.shape[1]
    rho = nu = None
    slack = None if sq is None or d <= KNN_TREE_MAX_DIM else rounding_slack(X, Y)
    if slack is not None:
        # cKDTree's squared sum is within (d + 36) eps M of |x - y|^2 and the
        # expansion within (2d + 4) eps M, so the band must reach (6d + 80) eps M
        # above the cut; twice the median's band does, at every d
        rho = _kth_from_sq(X, X, sq[0], k + 1, 2.0 * slack)  # self sits at distance 0
        nu = _kth_from_sq(X, Y, sq[1], k, 2.0 * slack)
    if rho is None or nu is None:
        rho = cKDTree(X).query(X, k=k + 1)[0][:, k]
        nu = cKDTree(Y).query(X, k=k)[0]
        nu = nu[:, k - 1] if k > 1 else np.atleast_1d(nu).reshape(n)
    clamped = rho < DISTANCE_CLAMP
    if clamped.mean() > 0.01:
        raise DegenerateSamplesError(
            f"{int(clamped.sum())} of {n} within-set neighbor distances collapsed; "
            "samples contain too many duplicates for a neighbor-ratio estimate"
        )
    rho = np.maximum(rho, DISTANCE_CLAMP)
    nu = np.maximum(nu, DISTANCE_CLAMP)
    return float((d / n) * np.log(nu / rho).sum() + np.log(m / (n - 1.0)))


def corr_pairs(X) -> np.ndarray:
    """Sample Pearson correlation matrix; requires every coordinate to vary."""
    X = _check_sample_set(X, "X", min_rows=3)
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
