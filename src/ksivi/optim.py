"""Adam with bias correction over flat parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    work: np.ndarray = field(init=False, repr=False)  # two scratch rows

    def __post_init__(self):
        self.work = np.empty((2,) + np.shape(self.m))

    @classmethod
    def init(cls, n_params: int) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, lr: float) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected update of ``state`` and ``params`` in place; returns both.

    The operations round as in ``params - lr * m_hat / (sqrt(v_hat) + eps)``
    with ``m = beta1 m + (1 - beta1) g`` and ``v = beta2 v + (1 - beta2) g^2``.
    ``grad`` is left unchanged.
    """
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("parameter, gradient, and moment lengths disagree")
    state.step += 1
    step_size, denom = state.work
    np.multiply(grad, 1.0 - state.beta1, out=denom)
    state.m *= state.beta1
    state.m += denom
    np.square(grad, out=denom)
    denom *= 1.0 - state.beta2
    state.v *= state.beta2
    state.v += denom
    np.divide(state.v, 1.0 - state.beta2**state.step, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    np.divide(state.m, 1.0 - state.beta1**state.step, out=step_size)
    step_size *= lr
    step_size /= denom
    params -= step_size
    return state, params
