"""Shared oracles for the test suite: finite differences and quadrature,
plus zero-network parameters to build known families from."""

from __future__ import annotations

import numpy as np

from ksivi.family import SIVParams


def zero_params(arch, rho=0.0):
    """Parameters with every weight and bias zero and log-scales ``rho``."""
    params = SIVParams.from_flat(arch, np.zeros(arch.n_params + arch.d_out))
    params.rho[:] = rho
    return params


def central_difference_gradient(fn, x, step=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return grad


def central_difference_jacobian(fn, x, step=1e-6):
    """Central finite-difference Jacobian of a vector function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        cols.append((np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2.0 * step))
    return np.stack(cols, axis=-1)


def relative_error(approx, exact, floor=1e-10):
    """Componentwise |a - e| / max(|a|, |e|, floor)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(approx), np.abs(exact)), floor)
    return np.abs(approx - exact) / denom


def gauss_hermite_expectation_2d(fn, n_nodes=201):
    """E[fn(u, v)] for independent standard normal u, v by tensorized quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    weights = weights / np.sqrt(2.0 * np.pi)
    u = nodes[:, None]
    v = nodes[None, :]
    vals = fn(u, v)
    return float((weights[:, None] * weights[None, :] * vals).sum())
