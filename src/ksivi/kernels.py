"""Positive-definite kernels with analytic first-argument gradients.

Three families: Gaussian RBF ``exp(-||x-y||^2 / (2 h^2))``, inverse
multiquadric ``(c^2 + ||x-y||^2)^(-1/2)``, and the smoothed Riesz kernel
``-sqrt(||x-y||^2 + eps^2)`` (the smoothing removes the gradient singularity
at coincident points).  Every family's first-argument gradient has the shape
``-(x - y) * g(r^2)`` for a scalar pair weight ``g``, which is what the
batched training code exploits.
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


def eval_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kernel Gram matrix k(x_i, y_j), shape (n, m)."""
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


def weighted_grad1_sum(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Row-wise sums ``sum_j coeff_ij * grad_1 k(x_i, y_j)``, shape (n, d).

    Used by both gradient estimators, where ``coeff`` carries the inner
    products of the score residual vectors.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
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


def median_bandwidth(samples: np.ndarray) -> float:
    """Median of pairwise Euclidean distances, clamped away from zero."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("median bandwidth needs at least two samples")
    return max(float(np.median(pdist(samples))), BANDWIDTH_FLOOR)


def bandwidth_from_rule(rule: str, samples: np.ndarray) -> float:
    """Resolve a bandwidth policy name on the current sample batch."""
    med = median_bandwidth(samples)
    if rule == "median":
        return med
    if rule == "median_sq_over_log_n":
        n = samples.shape[0]
        return max(med / np.sqrt(max(np.log(n), 1.0)), BANDWIDTH_FLOOR)
    raise ValueError(f"unknown bandwidth rule {rule!r}")
