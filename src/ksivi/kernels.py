"""Positive-definite kernels with analytic first-argument gradients.

Two families: Gaussian RBF ``exp(-||x-y||^2 / (2 h^2))`` and inverse
multiquadric ``(c^2 + ||x-y||^2)^(-1/2)``.  Both are positive definite, so the
squared discrepancy that the estimators estimate is a squared RKHS norm,
never negative.  Each family's first-argument gradient has the shape
``-(x - y) * g(r^2)`` for a scalar pair weight ``g``, which is what the
batched training code exploits.

A kernel is its family and the one parameter that family reads, its scale
(rbf h, imq c), named in ``SCALE_NAMES``; it is 1 unless the code sets it.
This is the one module that branches on a family: ``bandwidth_from_rule``
sets an rbf kernel's bandwidth to the median of the samples (Garreau et al.
2017) and leaves imq's offset as it is, and ``grad1_weights`` is the one
place the kernel-gradient pair weights are formed.  A config names a kernel
by its family alone: imq reads offset 1, and an rbf bandwidth comes from the
samples.

Squared distances have one definition, the BLAS expansion
``|x|^2 + |y|^2 - 2 x.y`` of ``pairwise_sq_dists``; every median and
neighbour distance is the square root of one of its values.
``expansion_error`` bounds how far a value can be from the exact one.

Arrays are C-ordered from the entry point on: each public function here
and in ``metrics`` makes its samples C-ordered (a no-op in the pipeline),
through ``c_ordered`` where two sets meet in a product, and
``grad1_weights`` and ``weighted_grad1_sum`` hold the weight matrix in C
order, so no product or row sum rounds by the memory order of the caller's
arrays.

Squared distances have one layout, ``SqBlocks``: within X, within Y and from
X to Y, each its own product, because a block of a larger product need not
round like the product on its own; each set's squared norms are summed once
and shared by its two blocks.  A training iteration builds them once from
its two batches (the U-statistic's one batch has empty YY and XY), and
``evaluate`` once from its two sample sets.  ``median_bandwidth``, the Gram
matrix, the kernel-gradient pair weights, the MMD and the neighbour
distances read them.  Both estimators form their pair weights once per
iteration from the Gram matrix they already hold (the rbf kernel's g is the
Gram matrix over h^2), and the two-batch estimator's second batch reads
their C-ordered transpose.

The median's pairs are XX's and YY's upper triangles and all of XY.  At the
training sizes it gathers them all; at 1000 + 1000 points it brackets the
middle ranks first, which took 17 to 18 ms at d = 2, 22 and 200 (2-core Xeon
VM, one thread), against 40 to 68 ms for ``np.median`` over every pair
gathered with boolean masks; the blocks cost 28 to 45 ms and are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# each family and the name of its scale, the one parameter it reads
SCALE_NAMES = {"rbf": "bandwidth", "imq": "offset"}
FAMILIES = tuple(SCALE_NAMES)

BANDWIDTH_FLOOR = 1e-8

# Every 61st pair of the blocks brackets their median: at 1000 + 1000 points
# that is about 33,000 values, and the bracket holds about 4% of the pairs.
MEDIAN_SAMPLE_STRIDE = 61

# Up to this many pairs the median gathers them all at once.  At 19,900 to
# 79,800 pairs (2-core Xeon VM, one thread) that took about half the time of
# the bracket below; from about 100,000 pairs the bracket was faster.
MEDIAN_GATHER_PAIRS = 50_000


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family and ``scale``, the one parameter it reads (rbf h, imq c)."""

    family: str = "rbf"
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")


def c_ordered(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """X and Y as C-ordered float64 arrays, and as one array if Y is X: numpy
    forms ``X @ X.T`` as a symmetric product, with bits of its own, only over one array."""
    X_c = np.ascontiguousarray(X, dtype=np.float64)
    return X_c, X_c if Y is X else np.ascontiguousarray(Y, dtype=np.float64)


def sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of a C-ordered X, as ``pairwise_sq_dists`` sums them."""
    return (X**2).sum(axis=1)


def pairwise_sq_dists(X: np.ndarray, Y: np.ndarray, norms: tuple | None = None) -> np.ndarray:
    """Squared Euclidean distances, shape (n, m).

    ``norms``, if given, is ``(sq_norms(X), sq_norms(Y))`` of the C-ordered sets.
    """
    X, Y = c_ordered(X, Y)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError(f"incompatible sample shapes {X.shape} and {Y.shape}")
    x_norms, y_norms = (sq_norms(X), sq_norms(Y)) if norms is None else norms
    sq = x_norms[:, None] + y_norms[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(sq, 0.0, out=sq)


class SqBlocks(NamedTuple):
    """Squared distances within X, within Y and from X to Y."""

    xx: np.ndarray
    yy: np.ndarray
    xy: np.ndarray


def sq_blocks(X: np.ndarray, Y: np.ndarray | None = None) -> SqBlocks:
    """The squared distances of X and Y as three blocks, each its own ``pairwise_sq_dists``.

    Each set's squared norms are summed once and shared by its two blocks.
    Without Y they are those of X alone: YY and XY are empty.
    """
    if Y is None:
        X = np.ascontiguousarray(X, dtype=np.float64)
        Y = X[:0]
    X, Y = c_ordered(X, Y)
    nx, ny = sq_norms(X), sq_norms(Y)
    return SqBlocks(
        pairwise_sq_dists(X, X, (nx, nx)), pairwise_sq_dists(Y, Y, (ny, ny)), pairwise_sq_dists(X, Y, (nx, ny))
    )


def eval_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, sq: np.ndarray | None = None) -> np.ndarray:
    """Kernel Gram matrix k(x_i, y_j), shape (n, m).

    ``sq``, if given, is ``pairwise_sq_dists(X, Y)`` computed already; it is
    left as it is.  The kernel is evaluated in one buffer, in place, with the
    bits of the plain expressions (``np.exp(-sq / (2 h^2))`` and so on).
    """
    out = None
    if sq is None:
        sq = out = pairwise_sq_dists(X, Y)
    if spec.family == "rbf":
        out = np.negative(sq, out=out)
        out /= 2.0 * spec.scale**2
        return np.exp(out, out=out)
    out = np.add(spec.scale**2, sq, out=out)
    out **= -0.5
    return out


def grad1_weights(spec: KernelSpec, coeff: np.ndarray, sq: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """The pair weights ``coeff_ij * g(sq_ij)``, C-ordered, where grad_1 k(x, y) = -(x - y) g(|x - y|^2).

    ``gram`` is ``eval_matrix(spec, X, Y, sq)``: the rbf kernel reads g as
    ``gram / h^2``, the bits of ``exp(-sq / (2 h^2)) / h^2`` without a second
    exponential; imq forms g from ``sq``.  C-ordered whatever the
    order of the inputs: ``weighted_grad1_sum``'s row sums round in memory order.
    """
    g = np.empty(np.shape(coeff))
    if spec.family == "rbf":
        np.divide(gram, spec.scale**2, out=g)
    else:
        np.add(spec.scale**2, sq, out=g)
        g **= -1.5
    return np.multiply(coeff, g, out=g)


def weighted_grad1_sum(weights: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row sums ``sum_j weights_ij (y_j - x_i)``, shape (n, d).

    With ``weights = grad1_weights(spec, coeff, sq, gram)`` these are
    ``sum_j coeff_ij grad_1 k(x_i, y_j)``, the kernel-gradient term of both
    estimators, where ``coeff`` carries the inner products of the score
    residual vectors.  Every input is made C-ordered here.
    """
    X, Y = c_ordered(X, Y)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    return weights @ Y - X * weights.sum(axis=1)[:, None]


def expansion_error(*sample_sets: np.ndarray) -> float:
    """The most by which ``pairwise_sq_dists`` can miss |x - y|^2: (2d + 4) eps max |x|^2.

    Each of |x|^2, |y|^2 and x.y is a d-term sum, and the expansion adds three
    roundings of values up to 4 max |x|^2; the tests that check the distances
    against an independent summation derive the bound.  NaN when a sample is
    not finite, or when 4 max |x|^2 overflows, so that the expansion may too.
    """
    sets = [np.ascontiguousarray(S, dtype=np.float64) for S in sample_sets]
    norm_max = np.max([np.einsum("ij,ij->i", S, S).max() for S in sets])  # NaN stays NaN
    if not norm_max <= np.finfo(np.float64).max / 4.0:  # NaN fails too
        return np.nan
    d = sets[0].shape[1]
    return (2 * d + 4) * np.finfo(np.float64).eps * norm_max


def _root_median(values: np.ndarray, lo: int, hi: int) -> float:
    """The mean of the square roots of order statistics ``lo`` and ``hi = lo`` or ``lo + 1``.

    For the two middle ranks that is ``np.median(np.sqrt(values))``, bit for
    bit.  One rank and a max: two ranks in one ``np.partition`` cost several
    times more.
    """
    part = np.partition(values, hi)
    t_lo = part[:hi].max() if lo < hi else part[hi]
    return float((np.sqrt(t_lo) + np.sqrt(part[hi])) / 2.0)


def _gather_range(parts, a: float, b: float):
    """Count the pairs below ``a``; gather the values in [a, b]."""
    below = 0
    found = []
    for sq, upper in parts:
        low = sq < a
        inside = (sq >= a) & (sq <= b)
        if upper is not None:
            low &= upper
            inside &= upper
        below += np.count_nonzero(low)
        found.append(sq[inside])
    return below, np.concatenate(found)


def _gather_all(parts) -> np.ndarray:
    """Every pair's value, once."""
    return np.concatenate([sq.ravel() if upper is None else sq[upper] for sq, upper in parts])


def median_bandwidth(X: np.ndarray, Y: np.ndarray | None = None, blocks: SqBlocks | None = None) -> float:
    """Median of the distances between the pooled samples of X and Y, clamped away from zero.

    The pairs are XX's and YY's upper triangles and all of XY in ``blocks``,
    which is ``sq_blocks(X, Y)``, built here when not given; without Y they
    are the pairs within X.  The value has the bits of
    ``np.median(np.sqrt(pairs))``.  Up to ``MEDIAN_GATHER_PAIRS`` pairs are
    gathered at once.  Above it, a strided sample of the blocks brackets the
    two middle ranks, and one pass over the blocks counts the pairs below the
    bracket and gathers those inside it; everything is gathered only if the
    bracket misses them.  NaN when a sample is not finite or their squared
    norms overflow (see ``expansion_error``).
    """
    sets = [np.ascontiguousarray(X, dtype=np.float64)] if Y is None else c_ordered(X, Y)
    if any(S.ndim != 2 for S in sets) or sum(S.shape[0] for S in sets) < 2:
        raise ValueError("median bandwidth needs at least two samples")
    if np.isnan(expansion_error(*sets)):
        return np.nan
    if blocks is None:
        blocks = sq_blocks(*sets)
    n, m = blocks.xx.shape[0], blocks.yy.shape[0]
    parts = (
        (blocks.xx, np.arange(n)[:, None] < np.arange(n)),
        (blocks.yy, np.arange(m)[:, None] < np.arange(m)),
        (blocks.xy, None),
    )
    total = n * (n - 1) // 2 + m * (m - 1) // 2 + n * m
    hi = total // 2
    lo = (total - 1) // 2
    if total <= MEDIAN_GATHER_PAIRS:
        return max(_root_median(_gather_all(parts), lo, hi), BANDWIDTH_FLOOR)
    # a full block holds each triangle pair twice, so it is sampled half as often
    sample = np.concatenate([sq.ravel()[:: MEDIAN_SAMPLE_STRIDE * (1 if upper is None else 2)] for sq, upper in parts])
    reach = 4.0 * np.sqrt(sample.size) + 1.0  # about 8 standard deviations of the sample rank
    centre = sample.size * hi / total
    ranks = [max(int(centre - reach), 0), min(int(centre + reach), sample.size - 1)]
    a, b = np.partition(sample, ranks)[ranks]
    below, found = _gather_range(parts, a, b)
    if not below <= lo <= hi < below + found.size:
        below, found = 0, _gather_all(parts)
    return max(_root_median(found, lo - below, hi - below), BANDWIDTH_FLOOR)


def bandwidth_from_rule(
    spec: KernelSpec, X: np.ndarray, Y: np.ndarray | None = None, blocks: SqBlocks | None = None
) -> KernelSpec:
    """``spec`` at the median bandwidth of the current samples, X and Y pooled.

    Only the rbf kernel has a bandwidth: the other families come back as
    they are, and no median is formed.  ``blocks`` is passed on to
    ``median_bandwidth``.  The median is NaN at non-finite samples, and the
    NaN estimate that follows is how training reports their divergence, at
    the iteration that drew them.
    """
    if spec.family != "rbf":
        return spec
    return replace(spec, scale=median_bandwidth(X, Y, blocks))
