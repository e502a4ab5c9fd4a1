"""Shared oracles for the test suite: finite differences and quadrature,
zero-network parameters to build known families from, and the synthetic blr
rows as a data file."""

from __future__ import annotations

import numpy as np

from ksivi.family import SIVParams
from ksivi.targets import make_waveform_dataset


def zero_params(arch, rho=0.0):
    """Parameters with every weight and bias zero and log-scales ``rho``."""
    params = SIVParams.from_flat(arch, np.zeros(arch.n_params + arch.d_out))
    params.rho[:] = rho
    return params


def write_waveform_csv(path, n_rows, seed):
    """``make_waveform_dataset``'s rows as a ``target.data_path`` CSV: a header line, then ``%.17g`` values."""
    features, labels = make_waveform_dataset(n_rows=n_rows, seed=seed)
    header = ",".join([f"x{i + 1}" for i in range(21)] + ["y"])
    np.savetxt(path, np.column_stack([features, labels]), delimiter=",", header=header, comments="", fmt="%.17g")
    return features, labels


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
