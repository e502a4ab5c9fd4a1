"""Target posterior zoo.

Every target exposes an unnormalized log-density, its analytic score
(gradient of the log-density), and Hessian-vector products, all vectorized
over a leading batch axis.  Normalizing constants are dropped throughout;
only score, Hessian-vector products, and log-density differences are ever
consumed downstream.

Each target's derivatives have one body, ``_score_and_hvp``: one pass over a
batch gives the score and the operator ``V -> H(x) V`` at those points, so
the work they share is done once per batch.  ``score``, ``score_and_hvp``
and ``hvp`` run it; logistic regression and the conditioned diffusion keep a
leaner ``_score`` for the Langevin samplers, which need the score alone, and
the diffusion a ``_logp_and_score`` that shares its residuals between the two.

Layout: every public method makes its batch a C-ordered float64 array
(``_as_batch``, a no-op for the batches of training and the samplers), and
every operator its direction.  From there on every array is
row-major: no pass handles memory order, and a Fortran-ordered or strided
batch gets the bits of its C-ordered copy, though a row sum rounds in
memory order.

Buffers: targets are stateless and never write their inputs; the Langevin
samplers pass their reused state buffers straight in.  The large passes (the
BLR logits, the diffusion residuals) run as in-place ufunc chains, in the
same operation order as the plain expressions, so the bits do not depend on
the buffering; the BLR passes walk their logits a block of data rows at a
time (see ``LogisticRegression``).

Workspace: ``score(x, work)``, ``logp_and_score(x, work)`` and
``score_and_hvp(x, work)`` may be handed a caller-owned flat float64 buffer
of at least ``work_size(n)`` values for a batch of n points; a shorter one is
refused.  Training hands over one per batch; the Langevin samplers hand over
one per run, sized for one block of particles, and call the target on each
block of a step in turn (see ``samplers``).  The target then keeps its
per-batch arrays there instead of allocating them (logistic regression: two
(rows, n) arrays; the diffusion: three (n, d) arrays and two (n,
observations) ones).  The score, or the operator, that it
returns may live in or read those arrays, so it is valid only until the
caller reuses that buffer; two operators in use at once need two buffers.
Without ``work`` every call allocates, and its results stay valid for good.
A returned score is the caller's to overwrite.

The diffusion's passes run over ``X.ravel()`` as one contiguous array, where
the previous state of entry i is entry i - 1.  Two columns come out wrong and
are rewritten, n entries each: residual column 0, whose previous state is the
origin, becomes ``X[:, 0]``, the residual from a previous state of 0 in bits;
and the coupling terms of the last column, which no residual follows, become
-0.0, which the score's last column then adds without a change to any bit.
The pass also evaluates the drift at those entries, so a path whose last
state is near float64 overflow may raise an overflow warning that the
allocating pass did not.
"""

from __future__ import annotations

import itertools
import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .runio import read_csv_rows


def _as_batch(x, dim):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"batch has shape {x.shape}, expected (n, {dim})")
    return x


class TargetModel:
    """Interface: unnormalized log-density with analytic derivatives.

    Subclasses implement ``_logp`` and ``_score_and_hvp`` on (n, d) batches
    and may keep a leaner ``_score`` or a shared ``_logp_and_score``.  The
    public methods take (n, d) batches only (a point is a batch of one) and
    return ``(n,)`` log-densities or ``(n, d)`` vectors; ``score``,
    ``logp_and_score`` and ``score_and_hvp`` keep their arrays in ``work`` if
    given (see the module docstring), and ``work_size`` is how many values of
    ``work`` they need.  ``sample_exact`` is optional.
    """

    dim: int

    def logp(self, x):
        return self._logp(_as_batch(x, self.dim))

    def score(self, x, work=None):
        return self._score(_as_batch(x, self.dim), work)

    def logp_and_score(self, x, work=None):
        """Log-density and score at a batch, as one pass where the target shares work between them."""
        return self._logp_and_score(_as_batch(x, self.dim), work)

    def score_and_hvp(self, x, work=None):
        """Score at a batch and the operator ``V -> H(x) V`` at the same points."""
        return self._score_and_hvp(_as_batch(x, self.dim), work)

    def hvp(self, x, v):
        X = _as_batch(x, self.dim)
        V = _as_batch(v, self.dim)
        if X.shape[0] != V.shape[0]:
            raise ValueError("batch sizes of points and directions differ")
        return self._score_and_hvp(X)[1](V)

    def work_size(self, n: int) -> int:
        """Values of ``work`` that the passes need at a batch of ``n`` points."""
        return 0

    def sample_exact(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no exact sampler")

    def _logp(self, X):
        raise NotImplementedError

    def _score(self, X, work=None):
        return self._score_and_hvp(X, work)[0]

    def _logp_and_score(self, X, work=None):
        return self._logp(X), self._score(X, work)

    def _score_and_hvp(self, X, work=None):
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
            quad = ((diff @ self._precs[m]) * diff).sum(axis=1)  # a row rounds alike at every batch width
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

    def _score_and_hvp(self, X, work=None):
        r = self._responsibilities(X)
        # component scores prec_m (mu_m - x), shape (m, n, d)
        pulls = np.stack([(self.means[m] - X) @ self._precs[m] for m in range(self.weights.size)])
        score = np.einsum("nm,mnd->nd", r, pulls)

        def hvp(V):
            V = np.ascontiguousarray(V, dtype=np.float64)
            out = np.zeros_like(V)
            for m in range(self.weights.size):
                av = (pulls[m] * V).sum(axis=1)
                out += r[:, m : m + 1] * (pulls[m] * av[:, None] - V @ self._precs[m])
            sv = (score * V).sum(axis=1)
            return out - score * sv[:, None]

        return score, hvp

    def sample_exact(self, n, rng):
        comp = rng.choice(self.weights.size, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        out = np.empty((n, self.dim))
        for m in range(self.weights.size):
            sel = comp == m
            out[sel] = self.means[m] + eps[sel] @ self._chols[m].T
        return out


def diagonal_gaussian(mean, variances) -> GaussianMixture:
    """Single Gaussian with diagonal covariance, as a one-component mixture.

    A fixture of known moments for the tests, not a config target.
    """
    return GaussianMixture([1.0], [mean], [np.diag(variances)])


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

    def __init__(self):
        self.cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        self._prec = np.linalg.inv(self.cov)
        self._chol = np.linalg.cholesky(self.cov)

    def _pullback(self, X):
        return np.stack([X[:, 0], X[:, 1] - X[:, 0] ** 2 - 1.0], axis=1)  # v(x)

    def _logp(self, X):
        v = self._pullback(X)
        return -0.5 * ((v @ self._prec) * v).sum(axis=1)  # a row rounds alike at every batch width

    def _score_and_hvp(self, X, work=None):
        gv = -(self._pullback(X) @ self._prec)
        x1 = X[:, 0]

        def hvp(V):
            V = np.ascontiguousarray(V, dtype=np.float64)
            # J v with J = [[1, 0], [-2 x1, 1]]
            t = np.stack([V[:, 0], -2.0 * x1 * V[:, 0] + V[:, 1]], axis=1)
            u = -(t @ self._prec)
            out = np.stack([u[:, 0] - 2.0 * x1 * u[:, 1], u[:, 1]], axis=1)
            out[:, 0] += -2.0 * gv[:, 1] * V[:, 0]
            return out

        return np.stack([gv[:, 0] - 2.0 * x1 * gv[:, 1], gv[:, 1]], axis=1), hvp

    def sample_exact(self, n, rng):
        v = rng.standard_normal((n, 2)) @ self._chol.T
        return np.stack([v[:, 0], v[:, 0] ** 2 + v[:, 1] + 1.0], axis=1)


class StudentTProduct(TargetModel):
    """Product of independent Student-t axes with per-axis scale."""

    def __init__(self, nu=2.0, width=1.0, dim=2):
        self.dim = int(dim)
        self.nu = np.broadcast_to(np.asarray(nu, dtype=np.float64), (self.dim,)).copy()
        self.width = np.broadcast_to(np.asarray(width, dtype=np.float64), (self.dim,)).copy()
        if np.any(self.nu <= 0):
            raise ValueError(f"nu must be positive, got {nu}")
        if np.any(self.width <= 0):
            raise ValueError(f"width must be positive, got {width}")

    def _logp(self, X):
        return (-(self.nu + 1.0) / 2.0 * np.log1p(X**2 / (self.nu * self.width**2))).sum(axis=1)

    def _score_and_hvp(self, X, work=None):
        denom = self.nu * self.width**2 + X**2

        def hvp(V):  # the Hessian is diagonal
            V = np.ascontiguousarray(V, dtype=np.float64)
            return -(self.nu + 1.0) * (self.nu * self.width**2 - X**2) / denom**2 * V

        return -(self.nu + 1.0) * X / denom, hvp

    def sample_exact(self, n, rng):
        return rng.standard_t(self.nu, size=(n, self.dim)) * self.width


# Logits per block of data rows that a logistic regression pass walks.  At 1,000
# points on the 1,000-row preset data (one BLAS thread, shared 2-core Xeon VM,
# medians of ten interleaved rounds), ``score`` took 6.1 ms at 2^15 (32 rows),
# 5.6 at 2^16, 5.5 at 2^17 (131 rows), 6.0 at 2^18 and 5.7 as one whole block.
_ROW_BLOCK = 2**17


class LogisticRegression(TargetModel):
    """Bayesian logistic regression posterior over coefficients.

    ``design`` rows are covariates with a leading intercept 1; ``labels`` are
    binary.  The prior is an isotropic Gaussian with precision ``alpha``.

    Row walk: the passes take the logits of a batch of n points a block of
    ``max(1, _ROW_BLOCK // n)`` data rows at a time (131 at 1,000 points), so
    that a block's elementwise passes run while it sits in cache: loop tiling
    (Wolf & Lam 1991), as the samplers walk their particles.

    The score's pass writes each block of the (rows, n) logits into its rows of
    the array ``s`` as ``design[rows] @ (-B).T``, which rounds as
    ``-(design @ B.T)[rows]`` does, so ``exp(-t)`` costs no negation pass; the
    logistic function ``1 / (1 + exp(-t))`` (exactly 0 below t = -709.78, where
    the exponential overflows) follows in place, and ``labels - s`` goes to the
    block's rows of ``residual``.  ``design.T @ residual`` then runs once over
    every row: splitting its summed axis would move bits.  The workspace holds
    the two (rows, n) arrays: ``score`` passes its first as both ``s`` and
    ``residual``; ``score_and_hvp`` keeps ``s`` in the first and the residual,
    then the weight ``s (1 - s)``, in the second, and its operator writes
    ``design @ V.T`` over ``s``.  Under OpenBLAS a block of rows rounds as the
    whole product does at the batches the presets run (1,000 particles,
    training batches of 100; ``test_row_blocks_round_as_the_whole_product``),
    but not at every width: at a batch from about 150 points up that is not a
    multiple of 8, the last n mod 8 points take other last bits.

    ``logp`` sums ``-softplus(z)`` over the rows, with the label's sign folded
    into the design: y t - log(1 + e^t) = -log(1 + e^z) for z = (1 - 2 y) t,
    and softplus(z) = max(z, 0) + log1p(exp(-|z|)) never overflows.  It takes
    two arrays of one block, its own, and sums a block's rows, then the blocks
    in row order.
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

    @classmethod
    def from_features(cls, features, labels, alpha=0.01) -> "LogisticRegression":
        """The posterior whose design is ``features`` with an intercept 1 prepended to every row."""
        return cls(np.concatenate([np.ones((len(features), 1)), features], axis=1), labels, alpha=alpha)

    def _row_blocks(self, n):
        """Slices of ``max(1, _ROW_BLOCK // n)`` data rows covering the design, in row order."""
        rows = max(1, _ROW_BLOCK // max(n, 1))
        return [slice(i, min(i + rows, self.n_rows)) for i in range(0, self.n_rows, rows)]

    def _logp(self, B):
        signed = self.design * (1.0 - 2.0 * self.labels)[:, None]  # a row with label 1 negated
        blocks = self._row_blocks(len(B))
        Z, U = np.empty((2, blocks[0].stop, len(B)))  # one block's z, and its log1p(exp(-|z|))
        total = np.zeros(len(B))
        for b in blocks:
            z = np.matmul(signed[b], B.T, out=Z[: b.stop - b.start])
            u = np.copysign(z, -1.0, out=U[: len(z)])
            np.exp(u, out=u)
            np.log1p(u, out=u)
            np.maximum(z, 0.0, out=z)
            z += u
            total += z.sum(axis=0)
        return -total - 0.5 * self.alpha * (B**2).sum(axis=1)

    def _score_pass(self, B, s, residual):
        """Score at ``B``; the (rows, n) arrays ``s`` and ``residual`` (which may be
        ``s``) take the logistic function of the logits and ``labels - s``."""
        neg = np.negative(B)
        with np.errstate(over="ignore"):
            for b in self._row_blocks(len(B)):
                t = np.matmul(self.design[b], neg.T, out=s[b])
                np.exp(t, out=t)
                t += 1.0
                np.reciprocal(t, out=t)
                np.subtract(self.labels[b, None], t, out=residual[b])
        return (self.design.T @ residual).T - self.alpha * B

    def work_size(self, n):
        return 2 * self.n_rows * n

    def _score_and_hvp(self, B, work=None):
        S, W = _work_arrays(work, (self.n_rows, B.shape[0]), (self.n_rows, B.shape[0]))
        score = self._score_pass(B, S, W)
        np.subtract(1.0, S, out=W)
        W *= S

        def hvp(V):
            V = np.ascontiguousarray(V, dtype=np.float64)
            U = np.matmul(self.design, V.T, out=S)
            U *= W
            return -(self.design.T @ U).T - self.alpha * V

        return score, hvp

    def _score(self, B, work=None):
        S = _work_arrays(work, (self.n_rows, B.shape[0]), (self.n_rows, B.shape[0]))[0]
        return self._score_pass(B, S, S)


def _work_arrays(work, *shapes):
    """Arrays of ``shapes``, one after another from the front of the flat buffer
    ``work``, or in one fresh buffer without it."""
    ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
    if work is None:
        work = np.empty(ends[-1])
    elif work.size < ends[-1]:
        raise ValueError(f"workspace holds {work.size} values; this batch needs {ends[-1]}")
    return [np.reshape(work[end - math.prod(shape) : end], shape, copy=False) for shape, end in zip(shapes, ends)]


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
    return LogisticRegression.from_features(data[:, :-1], data[:, -1], alpha=alpha)


def make_waveform_dataset(n_rows=1000, seed=0):
    """Synthetic 21-feature waveform classification data with binary labels.

    Rows are random convex combinations of two of three triangular base
    shapes (peaks at positions 6, 10, 14) plus unit Gaussian noise; the
    shape-pair class using the first two bases maps to label 1, the other two
    classes to label 0.  This stands in for the classic waveform benchmark:
    ``target.synthetic_rows`` and ``target.data_seed`` build it in memory on
    every run.  A real dataset takes its place through ``target.data_path``,
    a CSV of the 21 features and the label per row (``load_blr_dataset``).
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


class ConditionedDiffusion(TargetModel):
    """Posterior over a discretized double-well diffusion path.

    The latent path follows dx = drift * x (1 - x^2) dt + dw from x_0 = 0,
    discretized by Euler-Maruyama into ``n_steps`` states; noisy observations
    of every ``obs_stride``-th state tie the path down.  The constructor draws
    the path's increments and then the observation noise, of scale
    ``obs_noise``, from one ``default_rng(obs_seed)``, so the four arguments
    fix the target.  ``path`` keeps the latent path, and ``obs_indices`` the
    1-based positions of the observed states, ``obs_stride``,
    ``2 obs_stride``, ... up to ``n_steps``, each once.  A stride past the
    last state would observe nothing and is refused.

    The log-density sums Gaussian transition residuals and observation
    residuals; its Hessian is tridiagonal plus a diagonal observation part,
    so Hessian-vector products are a few elementwise stencil operations.
    """

    drift = 10.0
    obs_noise = 0.1

    def __init__(self, obs_seed, n_steps, dt, obs_stride):
        if n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {n_steps}")
        if obs_stride < 1:
            raise ValueError(f"obs_stride must be at least 1, got {obs_stride}")
        if dt <= 0:  # a step of 0 divides by zero, and a negative one takes its square root
            raise ValueError(f"dt must be positive, got {dt}")
        if obs_stride > n_steps:
            raise ValueError(f"obs_stride {obs_stride} exceeds the {n_steps} states of the path, so none is observed")
        self.dim = int(n_steps)
        self.dt = float(dt)
        rng = np.random.default_rng(obs_seed)
        self.path = euler_maruyama_path(rng.standard_normal(n_steps) * np.sqrt(dt), dt=dt, drift=self.drift)
        self.obs_indices = idx = np.arange(obs_stride, n_steps + 1, obs_stride, dtype=np.int64)
        self.observations = self.path[idx - 1] + self.obs_noise * rng.standard_normal(idx.size)

    def work_size(self, n):
        return n * (3 * self.dim + 2 * self.obs_indices.size)

    def _arrays(self, n, work):
        """Three (n, d) arrays and two (n, observations) ones of ``work``, or fresh ones without it."""
        d, m = self.dim, self.obs_indices.size
        return _work_arrays(work, (n, d), (n, d), (n, d), (n, m), (n, m))

    def _residuals(self, X, r, t):
        """Transition residuals of the paths ``X`` into ``r``, with ``t`` as scratch."""
        x, res, b = X.reshape(-1), r.reshape(-1)[1:], t.reshape(-1)[1:]
        prev = x[:-1]
        # b = drift * prev * (1 - prev^2) * dt; the residual is next - prev - b
        np.square(prev, out=b)
        np.subtract(1.0, b, out=b)
        np.multiply(self.drift, prev, out=res)
        b *= res
        b *= self.dt
        np.subtract(x[1:], prev, out=res)
        res -= b
        r[:, 0] = X[:, 0]  # each path starts from the origin, not from the row above
        return r

    def _slopes(self, X, c):
        """Derivative of x + drift * x (1 - x^2) dt at every state into ``c``."""
        np.square(X, out=c)
        c *= 3.0
        np.subtract(1.0, c, out=c)
        c *= self.drift
        c *= self.dt
        c += 1.0
        return c

    def _obs_residuals(self, X, o):
        """``observations - X[:, obs_indices - 1]`` into ``o``."""
        np.take(X, self.obs_indices - 1, axis=1, out=o, mode="clip")  # the indices lie in [1, dim]
        return np.subtract(self.observations, o, out=o)

    def _score_from(self, X, r, slopes, coupling, out, o1, o2):
        """Score from the residuals ``r`` and the drift ``slopes``; ``coupling`` (which
        may be ``slopes``) and ``o1``, ``o2`` are written over, and ``out`` (which may
        be ``r``) takes the score."""
        # -r / dt, plus r[:, 1:] * c / dt on all but the last state
        np.multiply(slopes.reshape(-1)[:-1], r.reshape(-1)[1:], out=coupling.reshape(-1)[:-1])
        coupling[:, -1] = -0.0  # x + -0.0 is x, so the last column keeps its bits
        coupling /= self.dt
        s = np.negative(r, out=out)
        s /= self.dt
        s += coupling
        # s[:, idx] += (observations - X[:, idx]) / obs_noise^2, without temporaries
        term = self._obs_residuals(X, o1)
        term /= self.obs_noise**2
        at_obs = np.take(s, self.obs_indices - 1, axis=1, out=o2, mode="clip")
        at_obs += term
        s[:, self.obs_indices - 1] = at_obs
        return s

    def _logp_from(self, X, r, t, o1, o2):
        """Log-density of the paths ``X`` from their residuals ``r``; ``t``, ``o1`` and
        ``o2`` take the squares.  Each row sum's rounding follows the memory order of
        the array it sums, so the squares are held in the order of the allocating pass:
        the residuals row-major, the observation residuals column-major, as numpy
        returns ``X[:, obs_indices - 1]``."""
        out = -np.square(r, out=t).sum(axis=1) / (2.0 * self.dt)
        sq = np.square(self._obs_residuals(X, o1), out=o2.reshape(o2.shape[::-1]).T)
        return out - sq.sum(axis=1) / (2.0 * self.obs_noise**2)

    def _logp(self, X):
        r, t, _, o1, o2 = self._arrays(len(X), None)
        return self._logp_from(X, self._residuals(X, r, t), t, o1, o2)

    def _score(self, X, work=None):
        r, t, _, o1, o2 = self._arrays(len(X), work)
        self._residuals(X, r, t)
        return self._score_from(X, r, self._slopes(X, t), t, r, o1, o2)

    def _logp_and_score(self, X, work=None):
        r, t, _, o1, o2 = self._arrays(len(X), work)
        logp = self._logp_from(X, self._residuals(X, r, t), t, o1, o2)
        return logp, self._score_from(X, r, self._slopes(X, t), t, r, o1, o2)

    def _score_and_hvp(self, X, work=None):
        # the operator reads X, the residuals and the slopes, so the score gets an array of its own
        r, c, tmp, o1, o2 = self._arrays(len(X), work)
        self._residuals(X, r, c)
        score = self._score_from(X, r, self._slopes(X, c), tmp, None, o1, o2)
        x, rf, cf = X.reshape(-1), r.reshape(-1), c.reshape(-1)

        def hvp(V):
            # flat passes as in _residuals: dr = V - c V_prev, out = -dr / dt
            # + (dr_next c + r_next dc) / dt, with dc = -6 drift x dt V
            V = np.ascontiguousarray(V, dtype=np.float64)  # an entry point: the flat passes need V, and dr, row-major
            v = V.reshape(-1)
            dr = np.empty_like(V)
            drf = dr.reshape(-1)[1:]
            np.multiply(cf[:-1], v[:-1], out=drf)
            np.subtract(v[1:], drf, out=drf)
            dr[:, 0] = V[:, 0]
            out = np.negative(dr)
            out /= self.dt
            dc = np.multiply(-6.0 * self.drift, x, out=tmp.reshape(-1))
            dc *= self.dt
            dc *= v
            dc[:-1] *= rf[1:]
            drf *= cf[:-1]
            dc[:-1] += drf
            tmp[:, -1] = -0.0
            dc /= self.dt
            out += tmp
            out[:, self.obs_indices - 1] -= V[:, self.obs_indices - 1] / self.obs_noise**2
            return out

        return score, hvp


def euler_maruyama_path(increments, dt=0.01, drift=10.0):
    """Integrate the double-well SDE from 0 given Brownian increments."""
    increments = np.asarray(increments, dtype=np.float64)
    path = np.empty(increments.size)
    x = 0.0
    for k in range(increments.size):
        x = x + drift * x * (1.0 - x**2) * dt + increments[k]
        path[k] = x
    return path


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

    def _score_and_hvp(self, X, work=None):
        score, hvp = self.base._score_and_hvp(X, work)
        return self.beta * score, lambda V: self.beta * hvp(V)

    def work_size(self, n):
        return self.base.work_size(n)
