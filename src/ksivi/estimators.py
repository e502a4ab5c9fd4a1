"""Squared kernel Stein discrepancy estimators and their exact gradients.

The population objective pairs two independent draws (x, z), (x', z') of the
hierarchical family and averages ``k(x, x') <f, f'>`` where
``f = s_p(x) - s_cond(x) = s_p(x) + xi/sigma`` is the score residual.
``value_and_grad`` is the one entry point.  It computes either of two
unbiased Monte Carlo versions together with its gradient: a two-batch
estimator averaging over all N^2 cross pairs, and a single-batch U-statistic
excluding the diagonal.

Gradients are exact derivatives of the Monte Carlo expressions under frozen
base randomness (z, xi).  For each pair term ``k(x_i, x_j) <f_i, f_j>`` the
chain rule routes four contributions through the reparameterization
``x = mu(z) + sigma * xi`` with ``sigma = exp(rho)``:

* kernel sensitivity: ``<f_i, f_j> * grad_1 k`` pulled back through x on both
  sides,
* residual sensitivity: ``k * f_j`` hitting ``f_i`` (and symmetrically),
  where ``df/dx`` is the target's Hessian and the explicit sigma dependence
  of ``xi / sigma`` contributes ``-v * xi / sigma`` to the rho gradient.

Rather than looping over pairs, the per-sample upstream vectors are
aggregated with matrix products first and pulled back once per sample: a
single batched network backward pass plus one batched Hessian-vector product
per batch.  The pullback writes a batch's gradient into one fresh flat vector
through its layer views (``nets.layer_views``): the network's backward pass
fills the weight and bias views, and the rho gradient fills the tail.  The
score and the Hessian-vector operator of a batch come from one
``target.score_and_hvp`` call, so a target that shares work between them
(logistic regression reuses its logits and sigmoid) does it once per batch.
A caller may hand over a workspace, one row per batch of at least
``target.work_size(n)`` values; batch i's target arrays then live in row i
(see ``targets``), so the caller owns them and the estimator allocates none.
Each operator is used before ``value_and_grad`` returns, and the rows may be
reused by the next call.
The kernel bandwidth is treated as a constant here; dynamic bandwidth
selection happens in the training loop before the estimator runs.  The
training loop also hands over the iteration's squared distances
(``kernels.sq_blocks`` of the batches): XY feeds the two-batch Gram matrix
and both kernel-gradient sums, the second through a C-ordered copy of its
transpose, and XX the U-statistic's; without them the estimator builds the
same blocks itself.  Tempering
comes in through the target: the training loop passes
``targets.Tempered(target, beta)``, whose score and Hessian carry the factor
beta, so the estimator has no temperature of its own.
"""

from __future__ import annotations

import numpy as np

from .family import SampleBatch, f_vectors
from .kernels import diag_values, eval_matrix, sq_blocks, weighted_grad1_sum
from .nets import layer_views, net_vjp_batch_sum

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


def _residuals(batch, params, target, work=None):
    """Residuals ``f`` at the batch and the operator ``V -> H(x) V`` there."""
    score, hvp = target.score_and_hvp(batch.x, work)
    return f_vectors(batch, params, target, score=score), hvp


def _pullback(params, batch, f_upstream, x_upstream, hvp):
    """Flat gradient of ``sum_i <x_upstream_i, x_i> + <f_upstream_i, f_i>``.

    ``x_i`` and ``f_i`` are functions of the parameters under frozen base
    randomness.  The target enters through its Hessian operator ``hvp`` at
    the batch: the x-sensitivity of ``f = s_p(x) + xi/sigma`` is ``H(x)``.
    The result is a fresh vector in the layout of ``params.flat``.
    """
    sigma = params.sigma
    total_x = x_upstream + hvp(f_upstream)
    grad = np.empty(params.flat.size)
    net_vjp_batch_sum(params.net, batch.tape, total_x, out=grad)
    _, g_rho = layer_views(params.arch, grad)
    np.subtract(sigma * (total_x * batch.xi).sum(axis=0), (f_upstream * batch.xi).sum(axis=0) / sigma, out=g_rho)
    return grad


def value_and_grad(params, target, kernel, batches, kind="vanilla", reg_weight=0.0, sq=None, work=None):
    """Estimate the objective and its exact flat gradient in one pass.

    ``batches``: two equal-size batches (``"vanilla"``) or one (``"ustat"``).
    ``reg_weight`` adds ``reg_weight * mean k(x, x) ||f||^2`` over all samples.
    ``sq``: ``sq_blocks`` of the batches' samples, if already computed.
    ``work``: the caller's workspace, one row per batch (see the module docstring).
    """
    b1, b2 = _as_batch_pair(batches, kind)
    if sq is None:
        sq = sq_blocks(b1.x, None if b2 is None else b2.x)
    work = (None, None) if work is None else work
    f1, hvp1 = _residuals(b1, params, target, work[0])
    if kind == "vanilla":
        n = len(b1)
        if len(b2) != n:
            raise ValueError("the two batches must have equal size")
        f2, hvp2 = _residuals(b2, params, target, work[1])
        gram = eval_matrix(kernel, b1.x, b2.x, sq=sq.xy)
        inner = f1 @ f2.T
        value = float((gram * inner).mean())
        scale = 1.0 / (n * n)
        v1 = scale * (gram @ f2)
        v2 = scale * (gram.T @ f1)
        u1 = scale * weighted_grad1_sum(kernel, b1.x, b2.x, inner, sq=sq.xy)
        # a C-ordered copy: the row sums over a transposed view round differently
        u2 = scale * weighted_grad1_sum(kernel, b2.x, b1.x, inner.T, sq=np.ascontiguousarray(sq.xy.T))
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
    gram = eval_matrix(kernel, b1.x, b1.x, sq=sq.xx)
    inner = f1 @ f1.T
    np.fill_diagonal(gram, 0.0)
    off_inner = inner.copy()
    np.fill_diagonal(off_inner, 0.0)
    scale = 1.0 / (n * (n - 1))
    value = float((gram * inner).sum() * scale)
    v1 = 2.0 * scale * (gram @ f1)
    u1 = 2.0 * scale * weighted_grad1_sum(kernel, b1.x, b1.x, off_inner, sq=sq.xx)
    if reg_weight > 0.0:
        value += _regularizer_value(kernel, (f1,), reg_weight)
        v1 = v1 + (2.0 * reg_weight / n) * diag_values(kernel, n)[:, None] * f1
    grad = _pullback(params, b1, v1, u1, hvp1)
    return value, grad
