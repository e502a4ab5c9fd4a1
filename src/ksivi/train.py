"""Training loop: stochastic gradient descent on the squared discrepancy.

Each iteration draws a fresh batch ``b1`` from the current variational
family, and a second one ``b2`` for the two-batch estimator (``"vanilla"``;
the U-statistic, ``"ustat"``, has ``b2 = None``; no other module reads the
name).  It computes their squared distances once (``kernels.sq_blocks``),
sets an rbf kernel's bandwidth to the median of those samples from the
blocks with ``kernels.bandwidth_from_rule`` (held constant while
differentiating; imq keeps its configured offset), calls
``estimators.value_and_grad`` on ``b1, b2`` and the target tempered to the
current annealing temperature (``targets.Tempered``) with the same blocks,
and applies an Adam update.  At temperature 1 the target goes in bare:
``Tempered`` would only multiply by 1.0, which changes no bit, and copy the
score and every Hessian-vector product to do it.  The median bandwidth is ``np.median`` of the square roots
of the pooled samples' pair distances (see ``kernels``); samples that are not
finite give a NaN bandwidth, and so a non-finite loss.  Adam updates the
parameter buffer (``SIVParams.flat``) in place, so the next draw sees the
step through the buffer's views; a snapshot is taken only for an error.

The loop owns two blocks for the whole run, each a row per batch.  The
workspace rows hold ``target.work_size(batch_size)`` values, in which the
target keeps its per-batch arrays (logistic regression: its (rows, batch)
logits and weights).  The gradient rows hold a parameter vector each, into
which the estimator writes the batches' pullbacks and their sum; at
cd-dim200 a row is 546 KB, above glibc's default threshold for serving an
allocation with fresh pages.  Each iteration's estimator call reuses both, so
an iteration allocates none of these arrays.  The loop records a loss trace
and aborts with a diagnostic snapshot if anything goes non-finite.  The
trace's ``scale`` is the iteration's ``KernelSpec.scale``: the resolved rbf
bandwidth, or the configured imq offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import value_and_grad
from .family import SIVParams, siv_sample_batch
from .kernels import KernelSpec, bandwidth_from_rule, sq_blocks
from .nets import net_jacobian_frobenius
from .optim import AdamState, adam_step
from .targets import Tempered

ESTIMATOR_KINDS = ("vanilla", "ustat")  # two batches, or the U-statistic on one


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    batch_size: int
    learning_rate: float
    estimator: str = "vanilla"
    # an rbf kernel's scale is replaced by the median bandwidth of the batches at every iteration
    kernel: KernelSpec = field(default_factory=KernelSpec)
    anneal_start: float = 1.0  # 1.0, with anneal_iterations 0, disables annealing
    anneal_iterations: int = 0
    seed: int = 0
    log_every: int = 1

    def __post_init__(self):
        # each message opens with the field it rejects; configio names the key by it
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(f"estimator must be one of {ESTIMATOR_KINDS}, got {self.estimator!r}")
        if not 0.0 < self.anneal_start <= 1.0:
            raise ValueError("anneal_start must lie in (0, 1]")
        if self.anneal_start < 1.0 and self.anneal_iterations <= 0:
            raise ValueError(f"anneal_iterations must be positive for a ramp from {self.anneal_start}")
        if self.anneal_start == 1.0 and self.anneal_iterations > 0:
            raise ValueError(f"anneal_start must lie below 1 for a ramp of {self.anneal_iterations} iterations")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")


@dataclass
class LossTrace:
    """Per-logged-iteration training records.

    ``ksd2`` is the estimator's value at the iteration: the unbiased squared
    kernel Stein discrepancy estimate of the batches, the objective alone.
    """

    iterations: list[int] = field(default_factory=list)
    ksd2: list[float] = field(default_factory=list)
    scale: list[float] = field(default_factory=list)  # the kernel's, as the iteration resolved it
    beta_temp: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)

    def append(self, iteration, value, scale, beta, gnorm):
        if self.iterations and iteration <= self.iterations[-1]:
            raise ValueError("trace iterations must be strictly increasing")
        self.iterations.append(int(iteration))
        self.ksd2.append(float(value))
        self.scale.append(float(scale))
        self.beta_temp.append(float(beta))
        self.grad_norm.append(float(gnorm))

    def __len__(self):
        return len(self.iterations)


class TrainingDivergence(RuntimeError):
    """Raised when the loss or gradient turns non-finite."""

    def __init__(self, iteration: int, params: SIVParams, detail: str):
        super().__init__(f"training diverged at iteration {iteration}: {detail}")
        self.iteration = iteration
        self.params = params


def anneal_beta(iteration: int, start: float = 1.0, anneal_iterations: int = 0) -> float:
    """Linear temperature ramp from ``start`` to 1, then constant 1."""
    if iteration < 0:
        raise ValueError("iteration must be nonnegative")
    if start >= 1.0 or anneal_iterations <= 0:
        return 1.0
    return min(1.0, start + (1.0 - start) * iteration / anneal_iterations)


def train(config: TrainConfig, target, init: SIVParams, iteration_hook=None):
    """Run the configured number of iterations from ``init``.

    Returns the final parameters and the loss trace.  ``iteration_hook``, if
    given, is called as ``hook(iteration, params)`` after every update with
    the live parameters, which hold until the next update: a hook that keeps
    them copies them itself.
    """
    rng = np.random.default_rng(config.seed)
    params = init.copy()  # its buffer is the one Adam steps
    adam = AdamState.init(params.flat.size)
    trace = LossTrace()
    two_batch = config.estimator == "vanilla"
    work = np.empty((1 + two_batch, target.work_size(config.batch_size)))  # one block for the run
    grad_rows = np.empty((1 + two_batch, params.flat.size))  # and one for the batches' pullbacks

    for t in range(config.iterations):
        beta = anneal_beta(t, config.anneal_start, config.anneal_iterations)
        b1 = siv_sample_batch(params, config.batch_size, rng)
        b2 = siv_sample_batch(params, config.batch_size, rng) if two_batch else None
        y = None if b2 is None else b2.x
        sq = sq_blocks(b1.x, y)
        kernel = bandwidth_from_rule(config.kernel, b1.x, y, sq)
        tempered = target if beta == 1.0 else Tempered(target, beta)  # 1.0 * x is x
        value, grad = value_and_grad(params, tempered, kernel, b1, b2, sq, work, grad_rows)
        if not np.isfinite(value):
            raise TrainingDivergence(t, params.copy(), f"loss estimate is {value}")
        if not np.all(np.isfinite(grad)):
            bad = int(np.flatnonzero(~np.isfinite(grad))[0])
            raise TrainingDivergence(t, params.copy(), f"gradient coordinate {bad} is non-finite")
        adam_step(adam, params.flat, grad, config.learning_rate)
        if t % config.log_every == 0:
            trace.append(t, value, kernel.scale, beta, float(np.linalg.norm(grad)))
        if iteration_hook is not None:
            iteration_hook(t, params)
    return params, trace


def smoothness_diagnostic(params: SIVParams, n_probes: int, rng: np.random.Generator) -> dict:
    """Mean/max Frobenius norm of the mean network's parameter Jacobian.

    Probes are mixing draws; the summary tracks how smooth the learned mean
    map stays over the region the family actually samples from.
    """
    if n_probes < 1:
        raise ValueError("need at least one probe")
    norms = net_jacobian_frobenius(params.net, rng.standard_normal((n_probes, params.d_z)))
    return {
        "n_probes": int(n_probes),
        "mean_jacobian_norm": float(norms.mean()),
        "max_jacobian_norm": float(norms.max()),
    }
