"""The training loop against the one it replaced, bit for bit.

The reference below is the loop before it shared one squared-distance matrix
per iteration and updated Adam in place: the median bandwidth written
directly in numpy, the estimator computing its distances once per kernel
call, each kernel-gradient sum forming its own pair weights from its own
distances (the second batch's from the YX product), and a functional Adam
step.  Each is copied unchanged apart from its name, except the median, which takes the square roots of the expansion's
values with each pair of batches its own product.  The estimator keeps its
own batch-pair check, which ``estimators`` no longer has.
"""

from dataclasses import replace

import numpy as np
import pytest

from ksivi import kernels
from ksivi.estimators import _pullback, _residuals
from ksivi.family import SampleBatch, SIVParams, siv_init, siv_sample_batch
from ksivi.kernels import BANDWIDTH_FLOOR, KernelSpec, c_ordered, eval_matrix, pairwise_sq_dists
from ksivi.nets import NetArch
from ksivi.optim import BETA1, BETA2, EPS, AdamState
from ksivi.targets import Banana, Tempered, diagonal_gaussian
from ksivi.train import TRACE_FIELDS, TrainConfig, TrainingDivergence, anneal_beta, train


def reference_grad1_coeff(spec: KernelSpec, sq: np.ndarray) -> np.ndarray:
    """Scalar weight g with grad_1 k(x, y) = -(x - y) * g(||x-y||^2)."""
    if spec.family == "rbf":
        return np.exp(-sq / (2.0 * spec.scale**2)) / spec.scale**2
    if spec.family == "imq":
        return (spec.scale**2 + sq) ** (-1.5)


def reference_weighted_grad1_sum(
    spec: KernelSpec, X: np.ndarray, Y: np.ndarray, coeff: np.ndarray, sq: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise sums ``sum_j coeff_ij * grad_1 k(x_i, y_j)``, shape (n, d).

    Used by both gradient estimators, where ``coeff`` carries the inner
    products of the score residual vectors.  ``sq``, if given, is
    ``pairwise_sq_dists(X, Y)`` computed already.
    """
    X, Y = c_ordered(X, Y)
    if sq is None:
        sq = pairwise_sq_dists(X, Y)
    # C-ordered whatever the order of coeff and sq: its row sums round in memory order
    G = np.multiply(coeff, reference_grad1_coeff(spec, sq), out=np.empty(np.shape(coeff)))
    return G @ Y - X * G.sum(axis=1)[:, None]


def reference_median_bandwidth(batches) -> float:
    """Median of pairwise Euclidean distances, clamped away from zero.

    NaN when a sample is not finite or 4 max |x|^2 overflows.
    """
    samples = np.concatenate(batches)
    if not np.isfinite(4.0 * (samples**2).sum(axis=1).max()):
        return np.nan

    def expansion(A, B):  # each pair of batches its own product
        return (A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :] - 2.0 * (A @ B.T)

    sq = np.maximum(np.block([[expansion(A, B) for B in batches] for A in batches]), 0.0)
    med = np.median(np.sqrt(sq[np.triu_indices(samples.shape[0], 1)]))
    return max(float(med), BANDWIDTH_FLOOR)


def reference_resolve_kernel(config: TrainConfig, batches) -> KernelSpec:
    """The configured kernel, an rbf one at the median bandwidth of this iteration's sample batches."""
    spec = KernelSpec(config.kernel_family)
    if spec.family != "rbf":
        return spec
    return replace(spec, scale=reference_median_bandwidth(batches))


ESTIMATOR_KINDS = ("vanilla", "ustat")


def _as_batch_pair(batches, kind):
    if kind == "vanilla":
        if not (isinstance(batches, (tuple, list)) and len(batches) == 2):
            raise ValueError("the two-batch estimator needs a pair of sample batches")
        return batches[0], batches[1]
    if kind == "ustat":
        if isinstance(batches, SampleBatch):
            return batches, None
        raise ValueError("the U-statistic estimator needs a single sample batch")
    raise ValueError(f"unknown estimator kind {kind!r}; expected one of {ESTIMATOR_KINDS}")


def reference_value_and_grad(params, target, kernel, batches, kind="vanilla"):
    """Estimate the objective and its exact flat gradient in one pass.

    ``batches``: two equal-size batches (``"vanilla"``) or one (``"ustat"``).
    """
    b1, b2 = _as_batch_pair(batches, kind)
    f1, hvp1 = _residuals(b1, params, target)
    if kind == "vanilla":
        n = len(b1)
        if len(b2) != n:
            raise ValueError("the two batches must have equal size")
        f2, hvp2 = _residuals(b2, params, target)
        gram = eval_matrix(kernel, b1.x, b2.x)
        inner = f1 @ f2.T
        value = float((gram * inner).mean())
        scale = 1.0 / (n * n)
        v1 = scale * (gram @ f2)
        v2 = scale * (gram.T @ f1)
        u1 = scale * reference_weighted_grad1_sum(kernel, b1.x, b2.x, inner)
        u2 = scale * reference_weighted_grad1_sum(kernel, b2.x, b1.x, inner.T)
        grad = _pullback(params, b1, v1, u1, hvp1)
        grad += _pullback(params, b2, v2, u2, hvp2)
        return value, grad

    n = len(b1)
    if n < 2:
        raise ValueError("the U-statistic estimator needs at least two samples")
    gram = eval_matrix(kernel, b1.x, b1.x)
    inner = f1 @ f1.T
    np.fill_diagonal(gram, 0.0)
    off_inner = inner.copy()
    np.fill_diagonal(off_inner, 0.0)
    scale = 1.0 / (n * (n - 1))
    value = float((gram * inner).sum() * scale)
    v1 = 2.0 * scale * (gram @ f1)
    u1 = 2.0 * scale * reference_weighted_grad1_sum(kernel, b1.x, b1.x, off_inner)
    grad = _pullback(params, b1, v1, u1, hvp1)
    return value, grad


def reference_adam_step(
    state: AdamState,
    params: np.ndarray,
    grad: np.ndarray,
    lr: float,
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected update; returns fresh state and parameter arrays."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("parameter, gradient, and moment lengths disagree")
    step = state.step + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grad
    v = BETA2 * state.v + (1.0 - BETA2) * grad**2
    m_hat = m / (1.0 - BETA1**step)
    v_hat = v / (1.0 - BETA2**step)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return AdamState(m, v, step), new_params


def reference_train(config: TrainConfig, target, init: SIVParams, iteration_hook=None):
    """Run the configured number of iterations from ``init``.

    Returns the final parameters and the trace, a row per iteration.
    ``iteration_hook``, if given, is called as ``hook(iteration, params)``
    after every update.
    """
    rng = np.random.default_rng(config.seed)
    params = init.copy()
    flat = params.to_flat()
    adam = AdamState.init(flat.size)
    rows = []
    arch = init.net.arch

    for t in range(config.iterations):
        beta = anneal_beta(t, config.anneal_start, config.anneal_iterations)
        if config.estimator == "vanilla":
            b1 = siv_sample_batch(params, config.batch_size, rng)
            b2 = siv_sample_batch(params, config.batch_size, rng)
            kernel = reference_resolve_kernel(config, (b1.x, b2.x))
            batches = (b1, b2)
        else:
            b1 = siv_sample_batch(params, config.batch_size, rng)
            kernel = reference_resolve_kernel(config, (b1.x,))
            batches = b1
        value, grad = reference_value_and_grad(params, Tempered(target, beta), kernel, batches, config.estimator)
        if not np.isfinite(value):
            raise TrainingDivergence(t, params, f"loss estimate is {value}")
        if not np.all(np.isfinite(grad)):
            bad = int(np.flatnonzero(~np.isfinite(grad))[0])
            raise TrainingDivergence(t, params, f"gradient coordinate {bad} is non-finite")
        adam, flat = reference_adam_step(adam, flat, grad, config.learning_rate)
        params = SIVParams.from_flat(arch, flat)
        rows.append((value, kernel.scale, beta, float(np.linalg.norm(grad))))
        if iteration_hook is not None:
            iteration_hook(t, params)
    return params, np.array(rows, dtype=[(name, np.float64) for name in TRACE_FIELDS])


# (target, network widths, batch size): d = 2 at the toy batch size and at
# sizes whose 2n x 2n product rounds its cross block differently from an
# n x n one; d = 40 and 50 where small batches do the same.
SHAPES = {
    "banana-100": (Banana(), (3, 16, 2), 100),
    "banana-50": (Banana(), (3, 16, 2), 50),
    "gauss40-6": (diagonal_gaussian(np.zeros(40), np.full(40, 2.0)), (5, 12, 40), 6),
    "gauss50-16": (diagonal_gaussian(np.full(50, 0.5), np.ones(50)), (4, 8, 50), 16),
}

CONFIGS = {
    "median": {},
    "imq": {"kernel_family": "imq"},
    "anneal": {"anneal_start": 0.2, "anneal_iterations": 6},
    # the longest ramp a 12-iteration run allows: beta reaches 1 at the last iteration
    "anneal-full": {"anneal_start": 0.2, "anneal_iterations": 11},
    "imq-anneal": {"kernel_family": "imq", "anneal_start": 0.2, "anneal_iterations": 6},
}


def run_both(shape, estimator, overrides, iterations=12):
    target, widths, batch = SHAPES[shape]
    config = TrainConfig(
        iterations=iterations,
        batch_size=batch,
        learning_rate=3e-2,
        estimator=estimator,
        seed=19,
        **overrides,
    )
    init = siv_init(NetArch(widths), seed=23, rho_init=-0.5)
    return train(config, target, init), reference_train(config, target, init)


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("estimator", ["vanilla", "ustat"])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_bitwise_equal_params_and_trace(self, shape, estimator, config):
        (params, trace), (ref_params, ref_trace) = run_both(shape, estimator, CONFIGS[config])
        assert np.array_equal(params.to_flat(), ref_params.to_flat())
        assert trace.dtype == ref_trace.dtype and trace.shape == ref_trace.shape == (12,)
        assert trace.tobytes() == ref_trace.tobytes()


class TestOneDistanceMatrixPerIteration:
    @pytest.mark.parametrize("estimator", ["vanilla", "ustat"])
    @pytest.mark.parametrize("config", ["median", "imq", "anneal"])
    def test_counts(self, monkeypatch, estimator, config):
        calls = {"blocks": 0, "pairwise": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr("ksivi.train.sq_blocks", counted("blocks", kernels.sq_blocks))
        monkeypatch.setattr("ksivi.estimators.sq_blocks", counted("blocks", kernels.sq_blocks))
        monkeypatch.setattr("ksivi.kernels.pairwise_sq_dists", counted("pairwise", kernels.pairwise_sq_dists))
        target, widths, batch = SHAPES["banana-100"]
        config = TrainConfig(
            iterations=15, batch_size=batch, learning_rate=1e-2, estimator=estimator, seed=3, **CONFIGS[config]
        )
        train(config, target, siv_init(NetArch(widths), seed=4))
        # one set of blocks per iteration, and no distances outside it
        assert calls == {"blocks": 15, "pairwise": 3 * 15}
