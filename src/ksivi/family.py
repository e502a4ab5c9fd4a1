"""Semi-implicit variational family.

A standard Gaussian mixing draw z feeds a rectifier network giving the
conditional mean; a learned per-coordinate log-scale rho gives the diagonal
Gaussian conditional layer.  Samples use the reparameterization
``x = mu(z) + sigma * xi`` with ``sigma = exp(rho)``, so sigma is positive by
construction and gradients pass through sampling.  The conditional score at a
reparameterized draw is simply ``-xi / sigma``.

The parameter theta is one float64 vector, ``SIVParams.flat``: the network's
weights and biases and rho are views of it (layout in ``nets.layer_views``),
so the optimizer steps theta in place and the next draw sees the step.
``to_flat``, ``copy`` and ``from_flat`` give independent copies.

Every draw is a batch: ``reparameterize`` builds one from base draws (z, xi),
``siv_sample_batch`` draws those first, and ``f_vectors`` gives the score
residuals the discrepancy estimators consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nets import ForwardTape, NetArch, NetParams, layer_views, net_forward_batch, net_init


@dataclass
class SIVParams:
    """Full variational parameter: network weights plus log-scales.

    ``flat`` holds all of it; ``net`` and ``rho`` are views of ``flat``.
    The constructor takes ``flat`` over as is, without a copy.
    """

    arch: NetArch
    flat: np.ndarray
    net: NetParams = field(init=False, repr=False)
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        size = self.arch.n_params + self.arch.d_out
        if self.flat.dtype != np.float64 or self.flat.shape != (size,):
            raise ValueError(f"flat parameters are {self.flat.dtype} {self.flat.shape}, expected float64 ({size},)")
        self.net, self.rho = layer_views(self.arch, self.flat)

    @property
    def dim(self) -> int:
        return self.arch.d_out

    @property
    def d_z(self) -> int:
        return self.arch.d_in

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.rho)

    def copy(self) -> "SIVParams":
        return self.from_flat(self.arch, self.flat)

    def to_flat(self) -> np.ndarray:
        """A copy of ``flat``."""
        return self.flat.copy()

    @classmethod
    def from_flat(cls, arch: NetArch, flat: np.ndarray) -> "SIVParams":
        """Parameters over a float64 copy of ``flat``."""
        return cls(arch, np.array(flat, dtype=np.float64))


def siv_init(arch: NetArch, seed: int, rho_init: float | np.ndarray = 0.0) -> SIVParams:
    """Initialize the network from ``seed`` and the log-scales to a constant."""
    params = SIVParams(arch, np.empty(arch.n_params + arch.d_out))
    net_init(arch, seed, out=params.flat)
    params.rho[:] = rho_init
    return params


@dataclass
class SampleBatch:
    """A batch of reparameterized draws with the forward tape retained."""

    z: np.ndarray  # (n, d_z)
    xi: np.ndarray  # (n, d)
    x: np.ndarray  # (n, d)
    tape: ForwardTape

    def __len__(self) -> int:
        return self.z.shape[0]


def siv_sample_batch(params: SIVParams, n: int, rng: np.random.Generator) -> SampleBatch:
    """Draw n reparameterized samples; mixing draws come before noise draws."""
    if n < 1:
        raise ValueError("batch size must be at least 1")
    z = rng.standard_normal((n, params.d_z))
    xi = rng.standard_normal((n, params.dim))
    return reparameterize(params, z, xi)


def reparameterize(params: SIVParams, z: np.ndarray, xi: np.ndarray) -> SampleBatch:
    """Build a sample batch from base draws (z, xi) under ``params``.

    ``siv_sample_batch`` passes fresh draws; frozen ones give common random
    numbers, e.g. for finite-difference checks of the gradient estimators.
    """
    z = np.asarray(z, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    mu, tape = net_forward_batch(params.net, z)
    return SampleBatch(z, xi, mu + params.sigma * xi, tape)


def f_vectors(batch: SampleBatch, params: SIVParams, score: np.ndarray) -> np.ndarray:
    """Score residuals ``s_p(x) + xi / sigma``, shape (n, d), from ``score = s_p(batch.x)``.

    This is the difference between the target score and the conditional
    score ``-xi / sigma``, the quantity every discrepancy estimator consumes.
    A tempered objective comes in through the score (``targets.Tempered``).
    """
    return score + batch.xi / params.sigma
