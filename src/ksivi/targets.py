"""Target posterior zoo.

Every target exposes an unnormalized log-density, its analytic score
(gradient of the log-density), and Hessian-vector products, all vectorized
over a leading batch axis.  Normalizing constants are dropped throughout;
only score, Hessian-vector products, and log-density differences are ever
consumed downstream.

The discrepancy estimators need the score and Hessian-vector products at the
same batch, so ``score_and_hvp`` returns the score together with an operator
``V -> H(x) V`` bound to those points.  Logistic regression overrides it: one
logits product and one sigmoid serve both.  Its plain ``score`` keeps no
sigmoid for an operator, so it runs logits, sigmoid and residual in one
(rows, n) buffer.

Buffers: targets are stateless and never write their inputs; the Langevin
samplers pass their reused state buffers straight in.  The large passes (the
BLR logits, the diffusion residuals) run as in-place ufunc chains on arrays
the call itself allocated, in the same operation order as the plain
expressions, so the bits do not depend on the buffering.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .runio import read_csv_rows


def _as_batch(x, dim):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"batch has shape {x.shape}, expected (n, {dim})")
    return x


class TargetModel:
    """Interface: unnormalized log-density with analytic derivatives.

    Subclasses implement ``_logp``, ``_score``, ``_hvp`` on (n, d) batches;
    the public methods take (n, d) batches only (a point is a batch of one)
    and return ``(n,)`` log-densities or ``(n, d)`` vectors.
    ``score_and_hvp`` gives the score and a Hessian-vector operator at one
    batch.  ``sample_exact`` is optional.
    """

    dim: int

    def logp(self, x):
        return self._logp(_as_batch(x, self.dim))

    def score(self, x):
        return self._score(_as_batch(x, self.dim))

    def hvp(self, x, v):
        X = _as_batch(x, self.dim)
        V = _as_batch(v, self.dim)
        if X.shape[0] != V.shape[0]:
            raise ValueError("batch sizes of points and directions differ")
        return self._hvp(X, V)

    def score_and_hvp(self, x):
        """Score at a batch and the operator ``V -> H(x) V`` at the same points.

        Targets whose score and Hessian share work override this so that the
        work is done once per batch.
        """
        X = _as_batch(x, self.dim)
        return self.score(X), lambda V: self.hvp(X, V)

    def sample_exact(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no exact sampler")

    def _logp(self, X):
        raise NotImplementedError

    def _score(self, X):
        raise NotImplementedError

    def _hvp(self, X, V):
        raise NotImplementedError


class GaussianMixture(TargetModel):
    """Finite Gaussian mixture with full covariances and an exact sampler."""

    def __init__(self, weights, means, covs):
        weights = np.asarray(weights, dtype=np.float64)
        means = np.asarray(means, dtype=np.float64)
        covs = np.asarray(covs, dtype=np.float64)
        if weights.ndim != 1 or np.any(weights <= 0):
            raise ValueError("mixture weights must be positive")
        if not np.isclose(weights.sum(), 1.0):
            raise ValueError("mixture weights must sum to 1")
        if means.ndim != 2 or covs.ndim != 3 or means.shape[0] != weights.size:
            raise ValueError("inconsistent mixture component shapes")
        self.weights = weights
        self.means = means
        self.covs = covs
        self.dim = means.shape[1]
        self._chols = np.stack([np.linalg.cholesky(c) for c in covs])
        self._precs = np.stack([np.linalg.inv(c) for c in covs])
        self._logdets = np.array([2.0 * np.log(np.diag(ch)).sum() for ch in self._chols])
        self._logw = np.log(weights)

    def _component_logps(self, X):
        # (n, m): log w_m - 0.5 logdet_m - 0.5 (x-mu_m)^T prec_m (x-mu_m)
        out = np.empty((X.shape[0], self.weights.size))
        for m in range(self.weights.size):
            diff = X - self.means[m]
            quad = np.einsum("ni,ij,nj->n", diff, self._precs[m], diff)
            out[:, m] = self._logw[m] - 0.5 * self._logdets[m] - 0.5 * quad
        return out

    def _logp(self, X):
        comp = self._component_logps(X)
        peak = comp.max(axis=1, keepdims=True)
        return (peak[:, 0] + np.log(np.exp(comp - peak).sum(axis=1)))

    def _responsibilities(self, X):
        comp = self._component_logps(X)
        comp -= comp.max(axis=1, keepdims=True)
        r = np.exp(comp)
        r /= r.sum(axis=1, keepdims=True)
        return r

    def _pulls(self, X):
        # component scores prec_m (mu_m - x), shape (m, n, d)
        return np.stack([(self.means[m] - X) @ self._precs[m] for m in range(self.weights.size)])

    def _score(self, X):
        r = self._responsibilities(X)
        pulls = self._pulls(X)
        return np.einsum("nm,mnd->nd", r, pulls)

    def _hvp(self, X, V):
        r = self._responsibilities(X)
        pulls = self._pulls(X)
        score = np.einsum("nm,mnd->nd", r, pulls)
        out = np.zeros_like(V)
        for m in range(self.weights.size):
            av = (pulls[m] * V).sum(axis=1)
            out += r[:, m : m + 1] * (pulls[m] * av[:, None] - V @ self._precs[m])
        sv = (score * V).sum(axis=1)
        return out - score * sv[:, None]

    def sample_exact(self, n, rng):
        comp = rng.choice(self.weights.size, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        out = np.empty((n, self.dim))
        for m in range(self.weights.size):
            sel = comp == m
            out[sel] = self.means[m] + eps[sel] @ self._chols[m].T
        return out


def diagonal_gaussian(mean, variances) -> GaussianMixture:
    """Single Gaussian with diagonal covariance, as a one-component mixture."""
    mean = np.asarray(mean, dtype=np.float64)
    return GaussianMixture([1.0], [mean], [np.diag(np.asarray(variances, dtype=np.float64))])


def multimodal_target() -> GaussianMixture:
    """Two unit-covariance modes at (-2, 0) and (2, 0)."""
    return GaussianMixture([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], [np.eye(2), np.eye(2)])


def xshaped_target() -> GaussianMixture:
    """Two strongly correlated zero-mean components forming an X."""
    c1 = np.array([[2.0, 1.8], [1.8, 2.0]])
    c2 = np.array([[2.0, -1.8], [-1.8, 2.0]])
    return GaussianMixture([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]], [c1, c2])


class Banana(TargetModel):
    """Curved 2-D density: x = (v1, v1^2 + v2 + 1) with correlated Gaussian v.

    The change of variables v(x) = (x1, x2 - x1^2 - 1) has unit Jacobian
    determinant, so log p(x) = -0.5 v(x)^T Sigma^{-1} v(x) up to a constant.
    """

    dim = 2

    def __init__(self, cov=((1.0, 0.9), (0.9, 1.0))):
        self.cov = np.asarray(cov, dtype=np.float64)
        self._prec = np.linalg.inv(self.cov)
        self._chol = np.linalg.cholesky(self.cov)

    def _pullback(self, X):
        v = np.stack([X[:, 0], X[:, 1] - X[:, 0] ** 2 - 1.0], axis=1)
        grad_v = -(v @ self._prec)
        return v, grad_v

    def _logp(self, X):
        v, _ = self._pullback(X)
        return -0.5 * np.einsum("ni,ij,nj->n", v, self._prec, v)

    def _score(self, X):
        _, gv = self._pullback(X)
        return np.stack([gv[:, 0] - 2.0 * X[:, 0] * gv[:, 1], gv[:, 1]], axis=1)

    def _hvp(self, X, V):
        _, gv = self._pullback(X)
        x1 = X[:, 0]
        # J v with J = [[1, 0], [-2 x1, 1]]
        t = np.stack([V[:, 0], -2.0 * x1 * V[:, 0] + V[:, 1]], axis=1)
        u = -(t @ self._prec)
        out = np.stack([u[:, 0] - 2.0 * x1 * u[:, 1], u[:, 1]], axis=1)
        out[:, 0] += -2.0 * gv[:, 1] * V[:, 0]
        return out

    def sample_exact(self, n, rng):
        v = rng.standard_normal((n, 2)) @ self._chol.T
        return np.stack([v[:, 0], v[:, 0] ** 2 + v[:, 1] + 1.0], axis=1)


class StudentTProduct(TargetModel):
    """Product of independent Student-t axes with per-axis scale."""

    def __init__(self, nu=2.0, width=1.0, dim=2):
        self.dim = int(dim)
        self.nu = np.broadcast_to(np.asarray(nu, dtype=np.float64), (self.dim,)).copy()
        self.width = np.broadcast_to(np.asarray(width, dtype=np.float64), (self.dim,)).copy()
        if np.any(self.nu <= 0) or np.any(self.width <= 0):
            raise ValueError("degrees of freedom and scale must be positive")

    def _logp(self, X):
        return (-(self.nu + 1.0) / 2.0 * np.log1p(X**2 / (self.nu * self.width**2))).sum(axis=1)

    def _score(self, X):
        return -(self.nu + 1.0) * X / (self.nu * self.width**2 + X**2)

    def _hvp(self, X, V):
        denom = self.nu * self.width**2 + X**2
        diag = -(self.nu + 1.0) * (self.nu * self.width**2 - X**2) / denom**2
        return diag * V

    def sample_exact(self, n, rng):
        return rng.standard_t(self.nu, size=(n, self.dim)) * self.width


class LogisticRegression(TargetModel):
    """Bayesian logistic regression posterior over coefficients.

    ``design`` rows are covariates with a leading intercept 1; ``labels`` are
    binary.  The prior is an isotropic Gaussian with precision ``alpha``.
    """

    def __init__(self, design, labels, alpha=0.01):
        design = np.asarray(design, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if design.ndim != 2 or design.shape[0] == 0:
            raise ValueError("design matrix must be a nonempty 2-D array")
        if labels.shape != (design.shape[0],):
            raise ValueError("label count does not match design rows")
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise ValueError("labels must be binary")
        if not np.all(design[:, 0] == 1.0):
            raise ValueError("design rows must start with an intercept 1")
        self.design = design
        self.labels = labels
        self.alpha = float(alpha)
        self.dim = design.shape[1]
        self.n_rows = design.shape[0]

    def _logits(self, B):
        return self.design @ B.T  # (n_rows, n)

    def _logp(self, B):
        T = self._logits(B)
        ll = self.labels[:, None] * T
        ll -= np.logaddexp(0.0, T, out=T)
        return ll.sum(axis=0) - 0.5 * self.alpha * (B**2).sum(axis=1)

    def _score_from(self, B, s, residual):
        """Score from the sigmoid ``s`` of the logits; ``labels - s`` is written to ``residual``."""
        np.subtract(self.labels[:, None], s, out=residual)
        return (self.design.T @ residual).T - self.alpha * B

    def score_and_hvp(self, x):
        B = _as_batch(x, self.dim)
        T = self._logits(B)
        s = _sigmoid(T)  # its own array: the operator holds it
        score = self._score_from(B, s, residual=T)

        def hvp(V):
            w = np.subtract(1.0, s)
            w *= s
            w *= self.design @ V.T
            return -(self.design.T @ w).T - self.alpha * V

        return score, hvp

    def _score(self, B):
        # one (n_rows, n) buffer: logits, then sigmoid, then residual
        T = self._logits(B)
        return self._score_from(B, _sigmoid(T, out=T), residual=T)

    def _hvp(self, B, V):
        return self.score_and_hvp(B)[1](V)


_SIGMOID_BLOCK = 2**15  # elements of t per scratch block


def _sigmoid(t, out=None):
    """Logistic function without overflow: ``exp(min(t, 0)) / (1 + exp(-|t|))``.

    Both exponents are at most 0.  The result goes to ``out`` (``t`` itself
    may be passed) or a fresh array.  The numerator of each block of leading
    rows is formed in one small scratch array, so no temporary the size of
    ``t`` is made.
    """
    out = np.empty_like(t) if out is None else out
    rows = max(1, _SIGMOID_BLOCK // max(1, t[:1].size))
    scratch = np.empty((min(rows, len(t)),) + t.shape[1:])
    for i in range(0, len(t), rows):
        tb, ob = t[i : i + rows], out[i : i + rows]
        num = np.minimum(tb, 0.0, out=scratch[: len(tb)])
        np.exp(num, out=num)
        np.abs(tb, out=ob)
        np.negative(ob, out=ob)
        np.exp(ob, out=ob)
        ob += 1.0
        np.divide(num, ob, out=ob)
    return out


def load_blr_dataset(path, alpha=0.01) -> LogisticRegression:
    """Load a CSV of 21 feature columns plus a binary label column.

    A header line on top and blank lines are skipped.  An intercept 1 is
    prepended to every row.
    """
    with open(path) as fh:
        with suppress(ValueError):  # a header row fails to parse and stays skipped
            [float(c) for c in fh.readline().split(",")]
            fh.seek(0)
        try:
            data = read_csv_rows(fh, ndmin=2)
        except ValueError as err:  # no rows, or a ragged or non-numeric one
            raise ValueError(f"{path}: {err}") from None
    if data.shape[1] != 22:
        raise ValueError(f"{path}: {data.shape[1]} columns, expected 22")
    features, labels = data[:, :-1], data[:, -1]
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError(f"{path}: labels must be 0 or 1")
    design = np.concatenate([np.ones((features.shape[0], 1)), features], axis=1)
    return LogisticRegression(design, labels, alpha=alpha)


def make_waveform_dataset(n_rows=1000, seed=0):
    """Synthetic 21-feature waveform classification data with binary labels.

    Rows are random convex combinations of two of three triangular base
    shapes (peaks at positions 6, 10, 14) plus unit Gaussian noise; the
    shape-pair class using the first two bases maps to label 1, the other two
    classes to label 0.  This stands in for the classic waveform benchmark so
    experiments are self-contained; a real dataset with the same CSV layout
    can be dropped in instead.
    """
    rng = np.random.default_rng(seed)
    grid = np.arange(21, dtype=np.float64)
    bases = np.stack([np.maximum(6.0 - np.abs(grid - p), 0.0) for p in (6.0, 10.0, 14.0)])
    pairs = [(0, 1), (0, 2), (1, 2)]
    cls = rng.integers(0, 3, size=n_rows)
    u = rng.uniform(size=n_rows)
    noise = rng.standard_normal((n_rows, 21))
    features = np.empty((n_rows, 21))
    for c, (a, b) in enumerate(pairs):
        sel = cls == c
        features[sel] = u[sel, None] * bases[a] + (1.0 - u[sel, None]) * bases[b]
    features += noise
    labels = (cls == 0).astype(np.float64)
    return features, labels


def save_blr_dataset(path, features, labels) -> None:
    data = np.concatenate([features, labels[:, None]], axis=1)
    header = ",".join([f"x{i + 1}" for i in range(features.shape[1])] + ["y"])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


class ConditionedDiffusion(TargetModel):
    """Posterior over a discretized double-well diffusion path.

    The latent path follows dx = drift * x (1 - x^2) dt + dw from x_0 = 0,
    discretized by Euler-Maruyama into ``n_steps`` states; noisy observations
    of every ``obs_stride``-th state tie the path down.  The log-density sums
    Gaussian transition residuals and observation residuals; its Hessian is
    tridiagonal plus a diagonal observation part, so Hessian-vector products
    are a few elementwise stencil operations.
    """

    def __init__(self, obs_indices, observations, n_steps=100, dt=0.01, drift=10.0, obs_noise=0.1):
        self.dim = int(n_steps)
        self.dt = float(dt)
        self.drift = float(drift)
        self.obs_noise = float(obs_noise)
        self.obs_indices = np.asarray(obs_indices, dtype=np.int64)
        self.observations = np.asarray(observations, dtype=np.float64)
        if self.obs_indices.shape != self.observations.shape or self.obs_indices.ndim != 1:
            raise ValueError("observation indices and values must be equal-length vectors")
        if np.any(self.obs_indices < 1) or np.any(self.obs_indices > self.dim):
            raise ValueError(f"observation indices must lie in [1, {self.dim}]")

    def _with_origin(self, X):
        return np.concatenate([np.zeros((X.shape[0], 1)), X], axis=1)

    def _residuals(self, X):
        full = self._with_origin(X)
        prev = full[:, :-1]
        # b = drift * prev * (1 - prev^2) * dt; the residual is next - prev - b
        b = np.square(prev)
        np.subtract(1.0, b, out=b)
        r = np.multiply(self.drift, prev)
        b *= r
        b *= self.dt
        np.subtract(full[:, 1:], prev, out=r)
        r -= b
        return r

    def _logp(self, X):
        r = self._residuals(X)
        out = -np.square(r, out=r).sum(axis=1) / (2.0 * self.dt)
        obs_diff = np.subtract(self.observations[None, :], X[:, self.obs_indices - 1])
        return out - np.square(obs_diff, out=obs_diff).sum(axis=1) / (2.0 * self.obs_noise**2)

    def _drift_slope(self, x):
        # derivative of x + drift * x (1 - x^2) dt with respect to x
        c = np.square(x)
        c *= 3.0
        np.subtract(1.0, c, out=c)
        c *= self.drift
        c *= self.dt
        c += 1.0
        return c

    def _score(self, X):
        r = self._residuals(X)
        # -r / dt, plus r[:, 1:] * c / dt on all but the last state
        coupling = self._drift_slope(X[:, :-1])
        coupling *= r[:, 1:]
        coupling /= self.dt
        s = np.negative(r, out=r)
        s /= self.dt
        s[:, :-1] += coupling
        s[:, self.obs_indices - 1] += (self.observations[None, :] - X[:, self.obs_indices - 1]) / self.obs_noise**2
        return s

    def _hvp(self, X, V):
        r = self._residuals(X)
        c = self._drift_slope(X[:, :-1])
        dr = V.copy()
        dr[:, 1:] -= c * V[:, :-1]
        out = -dr / self.dt
        dc = -6.0 * self.drift * X[:, :-1] * self.dt * V[:, :-1]
        out[:, :-1] += (dr[:, 1:] * c + r[:, 1:] * dc) / self.dt
        out[:, self.obs_indices - 1] -= V[:, self.obs_indices - 1] / self.obs_noise**2
        return out


def euler_maruyama_path(increments, dt=0.01, drift=10.0):
    """Integrate the double-well SDE from 0 given Brownian increments."""
    increments = np.asarray(increments, dtype=np.float64)
    path = np.empty(increments.size)
    x = 0.0
    for k in range(increments.size):
        x = x + drift * x * (1.0 - x**2) * dt + increments[k]
        path[k] = x
    return path


def generate_cd_observations(seed, n_steps=100, dt=0.01, drift=10.0, obs_stride=5, obs_noise=0.1):
    """Simulate one latent path and perturb every ``obs_stride``-th state.

    Returns (indices, observations, path); indices are 1-based state
    positions.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    increments = rng.standard_normal(n_steps) * np.sqrt(dt)
    path = euler_maruyama_path(increments, dt=dt, drift=drift)
    indices = np.arange(obs_stride, n_steps + 1, obs_stride, dtype=np.int64)
    observations = path[indices - 1] + obs_noise * rng.standard_normal(indices.size)
    return indices, observations, path


def save_cd_observations(path, indices, observations) -> None:
    data = np.column_stack([indices, observations])
    np.savetxt(path, data, delimiter=",", header="index,value", comments="", fmt=["%d", "%.17g"])


def load_cd_observations(path):
    """Read the ``index,value`` CSV that ``save_cd_observations`` writes; blank lines are skipped."""
    with open(path) as fh:
        if fh.readline().rstrip("\n") != "index,value":
            raise ValueError(f"{path}: expected 'index,value' header")
        try:
            data = read_csv_rows(fh, dtype=[("index", np.int64), ("value", np.float64)], ndmin=1)
        except ValueError as err:  # no rows, a row without two fields, or an index that is not an integer
            raise ValueError(f"{path}: {err}") from None
    return np.ascontiguousarray(data["index"]), np.ascontiguousarray(data["value"])


class Tempered(TargetModel):
    """Base target raised to an inverse temperature in (0, 1]."""

    def __init__(self, base: TargetModel, beta: float):
        if not 0.0 < beta <= 1.0:
            raise ValueError("inverse temperature must lie in (0, 1]")
        self.base = base
        self.beta = float(beta)
        self.dim = base.dim

    def _logp(self, X):
        return self.beta * self.base._logp(X)

    def _score(self, X):
        return self.beta * self.base._score(X)

    def _hvp(self, X, V):
        return self.beta * self.base._hvp(X, V)

    def score_and_hvp(self, x):
        score, hvp = self.base.score_and_hvp(x)
        return self.beta * score, lambda V: self.beta * hvp(V)
