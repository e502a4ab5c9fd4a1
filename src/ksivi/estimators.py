"""Squared kernel Stein discrepancy estimators and their exact gradients.

The population objective pairs two independent draws (x, z), (x', z') of the
hierarchical family and averages ``k(x, x') <f, f'>`` where
``f = s_p(x) - s_cond(x) = s_p(x) + xi/sigma`` is the score residual.
``value_and_grad(params, target, kernel, b1, b2=None, ...)`` is the one entry
point and the one body of two unbiased Monte Carlo versions: given two batches
it averages over all N^2 cross pairs, and given ``b2=None`` it is the
U-statistic over the off-diagonal pairs of ``b1`` (Liu, Lee & Jordan 2016).
They differ only in the pairs summed (the U-statistic zeroes the diagonals of
its Gram and inner-product matrices) and the normalisation (1/N^2, against
1/(N(N-1)) with each pair counted twice); the chain rule below is shared.

Gradients are exact derivatives of the Monte Carlo expressions under frozen
base randomness (z, xi).  For each pair term ``k(x_i, x_j) <f_i, f_j>`` the
chain rule routes four contributions through the reparameterization
``x = mu(z) + sigma * xi`` with ``sigma = exp(rho)``:

* kernel sensitivity: ``<f_i, f_j> * grad_1 k`` pulled back through x on both
  sides,
* residual sensitivity: ``k * f_j`` hitting ``f_i`` (and symmetrically),
  where ``df/dx`` is the target's Hessian and the explicit sigma dependence
  of ``xi / sigma`` contributes ``-v * xi / sigma`` to the rho gradient.

Rather than looping over pairs, one loop over the batches aggregates each
batch's upstream vectors (v, u) with matrix products and pulls them back
once: a single batched network backward pass plus one batched
Hessian-vector product per batch, summed into one flat gradient.
The pullback writes through the layer views (``nets.layer_views``): the
network's backward pass fills the weight and bias views, and the rho gradient
fills the tail.  A batch's score and Hessian-vector operator come from one
``target.score_and_hvp`` call: one pass of the target over the batch.
A caller may hand over a workspace, one row per batch of at least
``target.work_size(n)`` values; batch i's target arrays then live in row i
(see ``targets``), so the caller owns them and the estimator allocates none.
Each operator is used before ``value_and_grad`` returns, and the rows may be
reused by the next call.  Likewise a caller may hand over a gradient block,
one row of ``params.flat.size`` per batch: batch i's pullback is written to
row i, the second row is added into the first, and the first row is the
gradient returned, valid until the caller reuses the block.
The kernel bandwidth is a constant here; the training loop resolves it
before the estimator runs, and hands over the iteration's squared distances
(``kernels.sq_blocks`` of the batches): XY feeds the two-batch Gram matrix
and the pair weights of both kernel-gradient sums, and XX the U-statistic's;
without them the estimator builds the same blocks itself.  Both versions
form their pair weights ``<f_i, f_j> g(|x_i - x_j|^2)`` once per call with
``kernels.grad1_weights`` from their own Gram matrix (the U-statistic's with
its zeroed diagonal), and ``kernels.weighted_grad1_sum`` sums them; the
two-batch version's second batch takes their transpose, which the sum makes
C-ordered where it enters.
Tempering comes in through the target (``targets.Tempered``), so the
estimator has no temperature of its own.
"""

from __future__ import annotations

import numpy as np

from .family import f_vectors
from .kernels import eval_matrix, grad1_weights, sq_blocks, weighted_grad1_sum
from .nets import layer_views, net_vjp_batch_sum

def _residuals(batch, params, target, work=None):
    """Residuals ``f`` at the batch and the operator ``V -> H(x) V`` there."""
    score, hvp = target.score_and_hvp(batch.x, work)
    return f_vectors(batch, params, score), hvp


def _pullback(params, batch, f_upstream, x_upstream, hvp, out=None):
    """Flat gradient of ``sum_i <x_upstream_i, x_i> + <f_upstream_i, f_i>``.

    ``x_i`` and ``f_i`` are functions of the parameters under frozen base
    randomness.  The target enters through its Hessian operator ``hvp`` at
    the batch: the x-sensitivity of ``f = s_p(x) + xi/sigma`` is ``H(x)``.
    The result is written to ``out`` (a fresh vector by default) in the
    layout of ``params.flat``, and returned.
    """
    sigma = params.sigma
    total_x = x_upstream + hvp(f_upstream)
    grad = np.empty(params.flat.size) if out is None else out
    net_vjp_batch_sum(params.net, batch.tape, total_x, out=grad)
    _, g_rho = layer_views(params.arch, grad)
    np.subtract(sigma * (total_x * batch.xi).sum(axis=0), (f_upstream * batch.xi).sum(axis=0) / sigma, out=g_rho)
    return grad


def value_and_grad(params, target, kernel, b1, b2=None, sq=None, work=None, out=None):
    """Estimate the objective and its exact flat gradient in one pass.

    ``b1``, ``b2``: two equal-size batches, or ``b2=None`` for the U-statistic on ``b1``.
    ``sq``: ``sq_blocks`` of the batches' samples, if already computed.
    ``work``: the caller's workspace, one row per batch (see the module docstring).
    ``out``: the caller's gradient block, a row of ``params.flat.size`` per
    batch; the gradient is then its first row (see the module docstring).
    """
    n = len(b1)
    if b2 is None and n < 2:
        raise ValueError("the U-statistic estimator needs at least two samples")
    if b2 is not None and len(b2) != n:
        raise ValueError("the two batches must have equal size")
    batches = (b1,) if b2 is None else (b1, b2)
    if sq is None:
        sq = sq_blocks(b1.x, None if b2 is None else b2.x)
    work = (None, None) if work is None else work
    out = (None, None) if out is None else out
    f, hvps = zip(*(_residuals(batch, params, target, w) for batch, w in zip(batches, work)))
    if b2 is None:  # off-diagonal pairs within the one batch, each counted twice
        gram = eval_matrix(kernel, b1.x, b1.x, sq=sq.xx)
        np.fill_diagonal(gram, 0.0)
        inner = f[0] @ f[0].T
        scale = 1.0 / (n * (n - 1))
        value = float((gram * inner).sum() * scale)
        np.fill_diagonal(inner, 0.0)
        scale = 2.0 * scale
        sides = [(gram, grad1_weights(kernel, inner, sq.xx, gram))]
    else:  # all cross pairs
        gram = eval_matrix(kernel, b1.x, b2.x, sq=sq.xy)
        inner = f[0] @ f[1].T
        value = float((gram * inner).mean())
        scale = 1.0 / (n * n)
        weights = grad1_weights(kernel, inner, sq.xy, gram)
        sides = [(gram, weights), (gram.T, weights.T)]  # the sum makes the transpose C-ordered
    grad = None
    # each batch against the other one (the U-statistic: against itself)
    for batch, other, f_other, hvp, (gram_b, weights_b), out_b in zip(
        batches, batches[::-1], f[::-1], hvps, sides, out
    ):
        v = scale * (gram_b @ f_other)
        u = scale * weighted_grad1_sum(weights_b, batch.x, other.x)
        part = _pullback(params, batch, v, u, hvp, out_b)
        grad = part if grad is None else np.add(grad, part, out=grad)
    return value, grad
