"""The training loop against the one it replaced, bit for bit.

The reference below is the loop before it shared one squared-distance matrix
per iteration and updated Adam in place: the median bandwidth written
directly in numpy, the estimator computing its distances once per kernel
call, each kernel-gradient sum forming its own pair weights from its own
distances (the second batch's from the YX product), and a functional Adam
step.  Each is copied unchanged apart from its name, except the median, which takes the square roots of the expansion's
values with each pair of batches its own product.  The estimator keeps its
own batch-pair check and regularizer value, which ``estimators`` no longer has.
"""

import time

import numpy as np
import pytest

from ksivi import kernels
from ksivi.estimators import _pullback, _residuals
from ksivi.family import SampleBatch, SIVParams, siv_init, siv_sample_batch
from ksivi.kernels import BANDWIDTH_FLOOR, KernelSpec, c_ordered, diag_values, eval_matrix, pairwise_sq_dists
from ksivi.nets import NetArch
from ksivi.optim import AdamState, clip_gradient
from ksivi.targets import Banana, Tempered, diagonal_gaussian
from ksivi.train import LossTrace, TrainConfig, TrainingDivergence, anneal_beta, train


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


def reference_bandwidth_from_rule(rule: str, batches) -> float:
    """Resolve a bandwidth policy name on the current sample batches."""
    med = reference_median_bandwidth(batches)
    if rule == "median":
        return med
    if rule == "median_sq_over_log_n":
        n = sum(B.shape[0] for B in batches)
        return max(med / np.sqrt(max(np.log(n), 1.0)), BANDWIDTH_FLOOR)
    raise ValueError(f"unknown bandwidth rule {rule!r}")


def reference_resolve_kernel(config: TrainConfig, batches) -> KernelSpec:
    """Apply the bandwidth policy for this iteration's sample batches."""
    spec = config.kernel
    if spec.family != "rbf" or config.bandwidth_rule == "fixed":
        return spec
    return spec.with_bandwidth(reference_bandwidth_from_rule(config.bandwidth_rule, batches))


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


def _regularizer_value(kernel, f_blocks, reg_weight):
    n_total = sum(f.shape[0] for f in f_blocks)
    total = 0.0
    for f in f_blocks:
        total += float((diag_values(kernel, f.shape[0]) * (f**2).sum(axis=1)).sum())
    return reg_weight * total / n_total


def reference_value_and_grad(params, target, kernel, batches, kind="vanilla", reg_weight=0.0):
    """Estimate the objective and its exact flat gradient in one pass.

    ``batches``: two equal-size batches (``"vanilla"``) or one (``"ustat"``).
    ``reg_weight`` adds ``reg_weight * mean k(x, x) ||f||^2`` over all samples.
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
        if reg_weight > 0.0:
            value += _regularizer_value(kernel, (f1, f2), reg_weight)
            coeff = reg_weight / n  # 2 / (2n) from the pooled mean of ||f||^2
            v1 = v1 + coeff * diag_values(kernel, n)[:, None] * f1
            v2 = v2 + coeff * diag_values(kernel, n)[:, None] * f2
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
    if reg_weight > 0.0:
        value += _regularizer_value(kernel, (f1,), reg_weight)
        v1 = v1 + (2.0 * reg_weight / n) * diag_values(kernel, n)[:, None] * f1
    grad = _pullback(params, b1, v1, u1, hvp1)
    return value, grad


def reference_adam_step(
    state: AdamState,
    params: np.ndarray,
    grad: np.ndarray,
    lr: float,
    clip_norm: float | None = None,
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected update; returns fresh state and parameter arrays."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("parameter, gradient, and moment lengths disagree")
    grad = clip_gradient(grad, clip_norm)
    step = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad**2
    m_hat = m / (1.0 - state.beta1**step)
    v_hat = v / (1.0 - state.beta2**step)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return AdamState(m, v, step, state.beta1, state.beta2, state.eps), new_params


def reference_train(config: TrainConfig, target, init: SIVParams, iteration_hook=None):
    """Run the configured number of iterations from ``init``.

    Returns the final parameters and the loss trace.  ``iteration_hook``, if
    given, is called as ``hook(iteration, params)`` after every update.
    """
    rng = np.random.default_rng(config.seed)
    params = init.copy()
    flat = params.to_flat()
    adam = AdamState.init(flat.size)
    trace = LossTrace()
    arch = init.net.arch
    started = time.perf_counter()

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
        value, grad = reference_value_and_grad(
            params, Tempered(target, beta), kernel, batches, config.estimator, config.reg_weight
        )
        if not np.isfinite(value):
            raise TrainingDivergence(t, params, f"loss estimate is {value}")
        if not np.all(np.isfinite(grad)):
            bad = int(np.flatnonzero(~np.isfinite(grad))[0])
            raise TrainingDivergence(t, params, f"gradient coordinate {bad} is non-finite")
        adam, flat = reference_adam_step(adam, flat, grad, config.learning_rate, config.clip_norm)
        params = SIVParams.from_flat(arch, flat)
        if t % config.log_every == 0:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            trace.append(t, value, kernel.scale, beta, float(np.linalg.norm(grad)), elapsed_ms)
        if iteration_hook is not None:
            iteration_hook(t, params)
    return params, trace


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
    "median_sq_over_log_n": {"bandwidth_rule": "median_sq_over_log_n"},
    "fixed": {"bandwidth_rule": "fixed", "kernel": KernelSpec("rbf", 0.8)},
    "imq": {"kernel": KernelSpec("imq", 0.7)},
    "imq-sharp": {"kernel": KernelSpec("imq", 0.1)},
    "reg-clip-anneal": {"reg_weight": 0.3, "clip_norm": 0.05, "anneal_start": 0.2, "anneal_iterations": 6},
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
        assert trace.ksd2 == ref_trace.ksd2
        assert trace.scale == ref_trace.scale
        assert trace.grad_norm == ref_trace.grad_norm
        assert trace.beta_temp == ref_trace.beta_temp


class TestOneDistanceMatrixPerIteration:
    @pytest.mark.parametrize("estimator", ["vanilla", "ustat"])
    @pytest.mark.parametrize("config", ["median", "fixed", "imq"])
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
