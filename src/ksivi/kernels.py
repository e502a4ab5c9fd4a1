"""Positive-definite kernels with analytic first-argument gradients.

Three families: Gaussian RBF ``exp(-||x-y||^2 / (2 h^2))``, inverse
multiquadric ``(c^2 + ||x-y||^2)^(-1/2)``, and the smoothed Riesz kernel
``-sqrt(||x-y||^2 + eps^2)`` (the smoothing removes the gradient singularity
at coincident points).  Every family's first-argument gradient has the shape
``-(x - y) * g(r^2)`` for a scalar pair weight ``g``, which is what the
batched training code exploits.

A training iteration computes its squared distances once, with BLAS, in
``pooled_sq_dists``; the bandwidth, the Gram matrix and both kernel-gradient
sums read that one matrix.  Each of its blocks comes from its own matrix
product, because a block of a larger product need not round like the product
on its own.

The median bandwidth is defined by ``np.median(pdist(samples))``, and the
training path reproduces those bits from the squared distances.  The BLAS
expansion ``|x|^2 + |y|^2 - 2 x.y`` differs from pdist's value squared by at
most about ``(d + c) eps max|x|^2``, so the true middle order statistics lie
within that band of the expansion's middle order statistics.  Only the pairs
inside the band are recomputed exactly, in pdist's accumulation order; every
pair below the band ranks lower and every pair above it ranks higher, so the
middle values of the recomputed band are pdist's middle values.
``evaluate`` has no distance matrix to reuse and calls ``median_bandwidth``
without one.  pdist is the cheaper route there only at low d: on 2000 points
(2-core Xeon VM, one thread) it took 47 ms with the median at d = 2 against
70 ms for ``pooled_sq_dists`` and the band median, but 292 ms against 89 at d = 200.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import pdist

FAMILIES = ("rbf", "imq", "riesz")

BANDWIDTH_FLOOR = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    family: str = "rbf"
    bandwidth: float = 1.0  # rbf h
    offset: float = 1.0  # imq c
    smoothing: float = 1e-8  # riesz eps

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if self.bandwidth <= 0 or self.offset <= 0 or self.smoothing <= 0:
            raise ValueError("kernel parameters must be positive")

    def with_bandwidth(self, h: float) -> "KernelSpec":
        return replace(self, bandwidth=float(h))


def pairwise_sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n, m)."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError(f"incompatible sample shapes {X.shape} and {Y.shape}")
    sq = (X**2).sum(axis=1)[:, None] + (Y**2).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(sq, 0.0)


def pooled_sq_dists(blocks) -> np.ndarray:
    """Squared distances between the rows of ``np.concatenate(blocks)``.

    Block (a, b) is its own matrix product, so it has the bits of
    ``pairwise_sq_dists(blocks[a], blocks[b])``.
    """
    blocks = [np.asarray(B, dtype=np.float64) for B in blocks]
    norms = np.concatenate([(B**2).sum(axis=1) for B in blocks])
    edges = np.cumsum([0] + [B.shape[0] for B in blocks])
    sq = np.add.outer(norms, norms)
    for A, a0, a1 in zip(blocks, edges[:-1], edges[1:]):
        for B, b0, b1 in zip(blocks, edges[:-1], edges[1:]):
            sq[a0:a1, b0:b1] -= 2.0 * (A @ B.T)
    return np.maximum(sq, 0.0, out=sq)


def eval_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, sq: np.ndarray | None = None) -> np.ndarray:
    """Kernel Gram matrix k(x_i, y_j), shape (n, m).

    ``sq``, if given, is ``pairwise_sq_dists(X, Y)`` computed already.
    """
    if sq is None:
        sq = pairwise_sq_dists(X, Y)
    if spec.family == "rbf":
        return np.exp(-sq / (2.0 * spec.bandwidth**2))
    if spec.family == "imq":
        return (spec.offset**2 + sq) ** (-0.5)
    return -np.sqrt(sq + spec.smoothing**2)


def grad1_coeff(spec: KernelSpec, sq: np.ndarray) -> np.ndarray:
    """Scalar weight g with grad_1 k(x, y) = -(x - y) * g(||x-y||^2)."""
    if spec.family == "rbf":
        return np.exp(-sq / (2.0 * spec.bandwidth**2)) / spec.bandwidth**2
    if spec.family == "imq":
        return (spec.offset**2 + sq) ** (-1.5)
    return (sq + spec.smoothing**2) ** (-0.5)


def weighted_grad1_sum(
    spec: KernelSpec, X: np.ndarray, Y: np.ndarray, coeff: np.ndarray, sq: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise sums ``sum_j coeff_ij * grad_1 k(x_i, y_j)``, shape (n, d).

    Used by both gradient estimators, where ``coeff`` carries the inner
    products of the score residual vectors.  ``sq``, if given, is
    ``pairwise_sq_dists(X, Y)`` computed already.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if sq is None:
        sq = pairwise_sq_dists(X, Y)
    G = np.asarray(coeff, dtype=np.float64) * grad1_coeff(spec, sq)
    return G @ Y - X * G.sum(axis=1)[:, None]


def diag_values(spec: KernelSpec, n: int) -> np.ndarray:
    """k(x, x) for each of n points (constant within every family)."""
    if spec.family == "rbf":
        return np.ones(n)
    if spec.family == "imq":
        return np.full(n, 1.0 / spec.offset)
    return np.full(n, -spec.smoothing)


def _median_from_sq(samples: np.ndarray, sq: np.ndarray) -> float | None:
    """``np.median(pdist(samples))`` from ``sq``, or None to leave it to pdist.

    None when the samples are not all finite (pdist's NaN and inf rules then
    apply) or when the band holds more pairs than there are samples, where
    recomputing it would cost about as much as pdist.
    """
    n, d = samples.shape
    norm_max = float(np.einsum("ij,ij->i", samples, samples).max())
    if not np.isfinite(8.0 * norm_max):  # also keeps every |x - y|^2 finite
        return None
    # With M = max |x|^2, the expansion is within (2d + 4) eps M of |x - y|^2
    # and pdist's value squared within (2d + 10) eps M.  The band must reach
    # both errors on each side of the middle values: (8d + 28) eps M, here
    # with a factor of two to spare.
    slack = 16.0 * (d + 4) * np.finfo(np.float64).eps * norm_max
    idx = np.arange(n)
    upper = sq[idx[:, None] < idx]  # the pairs in pdist's order
    hi = upper.size // 2
    lo = (upper.size - 1) // 2
    part = np.partition(upper, hi)
    t_hi = part[hi]
    t_lo = part[:hi].max() if lo < hi else t_hi
    below = np.count_nonzero(upper < t_lo - slack)
    band = np.flatnonzero((upper >= t_lo - slack) & (upper <= t_hi + slack))
    if band.size > n:
        return None
    row_start = np.cumsum(n - 1 - idx) - (n - 1 - idx)  # position of pair (i, i + 1)
    rows = np.searchsorted(row_start, band, side="right") - 1
    cols = band - row_start[rows] + rows + 1
    diff = samples[rows] - samples[cols]
    exact = np.sqrt(np.cumsum(diff * diff, axis=1)[:, -1])  # pdist's summation order
    ranks = [lo - below, hi - below]
    return np.mean(np.partition(exact, ranks)[ranks])


def median_bandwidth(samples: np.ndarray, sq: np.ndarray | None = None) -> float:
    """Median of pairwise Euclidean distances, clamped away from zero.

    ``sq``, if given, is ``pooled_sq_dists`` (or ``pairwise_sq_dists``) of
    ``samples`` against themselves; the result has the same bits either way.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("median bandwidth needs at least two samples")
    med = None if sq is None else _median_from_sq(samples, sq)
    if med is None:
        med = np.median(pdist(samples))
    return max(float(med), BANDWIDTH_FLOOR)


def bandwidth_from_rule(rule: str, samples: np.ndarray, sq: np.ndarray | None = None) -> float:
    """Resolve a bandwidth policy name on the current sample batch.

    ``sq`` is passed on to ``median_bandwidth``.
    """
    med = median_bandwidth(samples, sq)
    if rule == "median":
        return med
    if rule == "median_sq_over_log_n":
        n = samples.shape[0]
        return max(med / np.sqrt(max(np.log(n), 1.0)), BANDWIDTH_FLOOR)
    raise ValueError(f"unknown bandwidth rule {rule!r}")
