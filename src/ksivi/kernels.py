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

``evaluate`` builds three blocks once, in ``sq_blocks``: within X, within Y
and from X to Y, each its own product; there is no YX block and no pooled
matrix.  The bandwidth, the MMD and the neighbour distances all read them.
``pair_median_bandwidth`` takes pdist's median of the pooled samples from XX's
and YY's upper triangles and all of XY without gathering every pair: a
strided sample brackets the two middle ranks, one pass over the blocks counts
the pairs below the bracket and gathers those inside it, and the band
argument runs on that gather.  On 1000 + 1000 points (2-core Xeon VM, one
thread) it took 13 to 16 ms at d = 2, 22 and 200, against 50, 76 and 282 ms
for pdist and ``np.median``; the blocks cost 30, 28 and 51 ms and are shared.

scipy loads only when ``pdist`` is first called, for the fallbacks above:
importing ``scipy.spatial`` takes about 0.3 s and 30 MB, which most runs
never need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

FAMILIES = ("rbf", "imq", "riesz")

BANDWIDTH_FLOOR = 1e-8

# Every 61st pair of the blocks brackets their median: at 1000 + 1000 points
# that is about 33,000 values, and the bracket holds about 4% of the pairs.
MEDIAN_SAMPLE_STRIDE = 61


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


def pdist(samples: np.ndarray) -> np.ndarray:
    """``scipy.spatial.distance.pdist``, with scipy imported on the first call."""
    from scipy.spatial.distance import pdist as scipy_pdist

    return scipy_pdist(samples)


def pairwise_sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n, m)."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError(f"incompatible sample shapes {X.shape} and {Y.shape}")
    sq = (X**2).sum(axis=1)[:, None] + (Y**2).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(sq, 0.0, out=sq)


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


class SqBlocks(NamedTuple):
    """Squared distances within X, within Y and from X to Y."""

    xx: np.ndarray
    yy: np.ndarray
    xy: np.ndarray


def sq_blocks(X: np.ndarray, Y: np.ndarray) -> SqBlocks:
    """The three blocks of ``pooled_sq_dists((X, Y))`` that are not transposes.

    Each is its own ``pairwise_sq_dists``, so it has that call's bits.
    """
    return SqBlocks(pairwise_sq_dists(X, X), pairwise_sq_dists(Y, Y), pairwise_sq_dists(X, Y))


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
        out /= 2.0 * spec.bandwidth**2
        return np.exp(out, out=out)
    if spec.family == "imq":
        out = np.add(spec.offset**2, sq, out=out)
        out **= -0.5
        return out
    out = np.add(sq, spec.smoothing**2, out=out)
    np.sqrt(out, out=out)
    return np.negative(out, out=out)


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


def rounding_slack(*sample_sets: np.ndarray) -> float | None:
    """Band half-width for the pdist median: 16 (d + 4) eps max |x|^2.

    With M = max |x|^2, the expansion is within (2d + 4) eps M of |x - y|^2
    and pdist's value squared within (2d + 10) eps M.  The band must reach
    both errors on each side of the middle values: (8d + 28) eps M, here with
    a factor of two to spare.  None when the samples are not all finite, or
    when ``8 M`` overflows (pdist's NaN and inf rules then apply).
    """
    norm_max = float(np.max([np.einsum("ij,ij->i", S, S).max() for S in sample_sets]))  # NaN stays NaN
    if not np.isfinite(8.0 * norm_max):  # also keeps every |x - y|^2 finite
        return None
    d = sample_sets[0].shape[1]
    return 16.0 * (d + 4) * np.finfo(np.float64).eps * norm_max


def _pdist_values(A: np.ndarray, B: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """pdist's distances between ``A[rows]`` and ``B[cols]``, in its summation order."""
    diff = A[rows] - B[cols]
    return np.sqrt(np.cumsum(diff * diff, axis=1)[:, -1])  # ``np.sum`` does not match


def _middle_values(values: np.ndarray, lo: int, hi: int) -> tuple[float, float]:
    """Order statistics ``lo`` and ``hi = lo`` or ``lo + 1`` of ``values``.

    One rank and a max: two ranks in one ``np.partition`` cost several times more.
    """
    part = np.partition(values, hi)
    return (part[:hi].max() if lo < hi else part[hi]), part[hi]


def _median_from_sq(samples: np.ndarray, sq: np.ndarray) -> float | None:
    """``np.median(pdist(samples))`` from ``sq``, or None to leave it to pdist.

    None when ``rounding_slack`` is, or when the band holds more pairs than
    there are samples, where recomputing it would cost about as much as pdist.
    """
    n, d = samples.shape
    slack = rounding_slack(samples)
    if slack is None:
        return None
    idx = np.arange(n)
    upper = sq[idx[:, None] < idx]  # the pairs in pdist's order
    hi = upper.size // 2
    lo = (upper.size - 1) // 2
    t_lo, t_hi = _middle_values(upper, lo, hi)
    below = np.count_nonzero(upper < t_lo - slack)
    band = np.flatnonzero((upper >= t_lo - slack) & (upper <= t_hi + slack))
    if band.size > n:
        return None
    row_start = np.cumsum(n - 1 - idx) - (n - 1 - idx)  # position of pair (i, i + 1)
    rows = np.searchsorted(row_start, band, side="right") - 1
    cols = band - row_start[rows] + rows + 1
    exact = _pdist_values(samples, samples, rows, cols)
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


def _gather_range(parts, a: float, b: float):
    """Count the pairs below ``a``; gather the flat positions and values in [a, b]."""
    below = 0
    found = []
    for _, _, sq, upper in parts:
        low = sq < a
        inside = (sq >= a) & (sq <= b)
        if upper is not None:
            low &= upper
            inside &= upper
        below += np.count_nonzero(low)
        flat = np.flatnonzero(inside)
        found.append((flat, sq.ravel()[flat]))
    return below, found


def _median_from_blocks(X: np.ndarray, Y: np.ndarray, blocks: SqBlocks) -> float | None:
    """``np.median(pdist(np.concatenate([X, Y])))`` from the three blocks, or None.

    The pairs are XX's and YY's upper triangles and all of XY.  A strided
    sample of the blocks brackets the two middle ranks; only the pairs inside
    the bracket are gathered, and everything is gathered only if the bracket
    misses them.  The rest is ``_median_from_sq``'s band argument, and None
    has its reasons: samples that ``rounding_slack`` refuses, or a band of
    more pairs than there are samples.
    """
    n, m = X.shape[0], Y.shape[0]
    slack = rounding_slack(X, Y)
    if slack is None:
        return None
    parts = (
        (X, X, blocks.xx, np.arange(n)[:, None] < np.arange(n)),
        (Y, Y, blocks.yy, np.arange(m)[:, None] < np.arange(m)),
        (X, Y, blocks.xy, None),
    )
    total = n * (n - 1) // 2 + m * (m - 1) // 2 + n * m
    hi = total // 2
    lo = (total - 1) // 2
    # a full block holds each triangle pair twice, so it is sampled half as often
    sample = np.concatenate(
        [sq.ravel()[:: MEDIAN_SAMPLE_STRIDE * (1 if upper is None else 2)] for _, _, sq, upper in parts]
    )
    reach = 4.0 * np.sqrt(sample.size) + 1.0  # about 8 standard deviations of the sample rank
    centre = sample.size * hi / total
    ranks = [max(int(centre - reach), 0), min(int(centre + reach), sample.size - 1)]
    a, b = np.partition(sample, ranks)[ranks]
    below, found = _gather_range(parts, a, b)
    if not below <= lo <= hi < below + sum(v.size for _, v in found):
        a, b = -np.inf, np.inf
        below, found = _gather_range(parts, a, b)
    t_lo, t_hi = _middle_values(np.concatenate([v for _, v in found]), lo - below, hi - below)
    if t_lo - slack < a or t_hi + slack > b:  # the band reaches past the bracket
        below, found = _gather_range(parts, t_lo - slack, t_hi + slack)
    else:
        band = []
        for flat, v in found:
            below += np.count_nonzero(v < t_lo - slack)
            keep = (v >= t_lo - slack) & (v <= t_hi + slack)
            band.append((flat[keep], v[keep]))
        found = band
    if sum(flat.size for flat, _ in found) > n + m:
        return None
    exact = np.concatenate(
        [_pdist_values(A, B, *np.divmod(flat, sq.shape[1])) for (A, B, sq, _), (flat, _) in zip(parts, found)]
    )
    ranks = [lo - below, hi - below]
    return np.mean(np.partition(exact, ranks)[ranks])


def pair_median_bandwidth(X: np.ndarray, Y: np.ndarray, blocks: SqBlocks) -> float:
    """``median_bandwidth(np.concatenate([X, Y]))``, with its bits, from ``sq_blocks(X, Y)``.

    Nothing as large as the pooled pair list is allocated unless the samples
    leave it to pdist (see ``_median_from_blocks``).
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    med = _median_from_blocks(X, Y, blocks)
    if med is None:
        return median_bandwidth(np.concatenate([X, Y]))
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
