import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksivi import targets
from ksivi.targets import (
    Banana,
    ConditionedDiffusion,
    GaussianMixture,
    LogisticRegression,
    StudentTProduct,
    Tempered,
    _sigmoid,
    diagonal_gaussian,
    euler_maruyama_path,
    generate_cd_observations,
    load_blr_dataset,
    make_waveform_dataset,
    multimodal_target,
    xshaped_target,
)

from helpers import central_difference_gradient, relative_error, write_waveform_csv


def at(x):
    """One point as a batch of one."""
    return np.asarray(x, dtype=float)[None, :]


def logp1(target, x):
    """Log-density at one point, through a batch of one."""
    return float(target.logp(at(x))[0])


def score1(target, x):
    """Score at one point, through a batch of one."""
    return target.score(at(x))[0]


def hvp1(target, x, v):
    """Hessian-vector product at one point, through a batch of one."""
    return target.hvp(at(x), at(v))[0]


def make_cd_target(seed=0):
    idx, obs, _ = generate_cd_observations(seed)
    return ConditionedDiffusion(idx, obs)


def make_blr_target(seed=0, n_rows=20):
    return LogisticRegression.from_features(*make_waveform_dataset(n_rows=n_rows, seed=seed))


ALL_TARGETS = [
    ("banana", Banana(), 1e-4),
    ("multimodal", multimodal_target(), 1e-4),
    ("xshaped", xshaped_target(), 1e-4),
    ("student", StudentTProduct(nu=2.0, width=5.0), 1e-4),
    ("blr", make_blr_target(), 1e-4),
    ("cd", make_cd_target(), 1e-4),
]


@pytest.mark.parametrize("name,target,tol", ALL_TARGETS, ids=[t[0] for t in ALL_TARGETS])
class TestDerivativeConsistency:
    def test_score_is_logp_gradient(self, name, target, tol):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = rng.standard_normal(target.dim)
            fd = central_difference_gradient(lambda y: logp1(target, y), x, step=1e-5)
            err = relative_error(score1(target, x), fd, floor=1e-6)
            assert err.max() < tol

    def test_hvp_linear_and_symmetric(self, name, target, tol):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(target.dim)
        u = rng.standard_normal(target.dim)
        v = rng.standard_normal(target.dim)
        combo = hvp1(target, x, 2.0 * u - 3.0 * v)
        parts = 2.0 * hvp1(target, x, u) - 3.0 * hvp1(target, x, v)
        assert np.allclose(combo, parts, rtol=1e-10, atol=1e-10)
        lhs = float(hvp1(target, x, u) @ v)
        rhs = float(hvp1(target, x, v) @ u)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_hvp_matches_score_derivative(self, name, target, tol):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(target.dim)
        v = rng.standard_normal(target.dim)
        step = 1e-5
        fd = (score1(target, x + step * v) - score1(target, x - step * v)) / (2.0 * step)
        err = relative_error(hvp1(target, x, v), fd, floor=1e-4)
        assert err.max() < 1e-4

    def test_batch_matches_single(self, name, target, tol):
        # each row against a batch of one holding that row alone
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, target.dim))
        V = rng.standard_normal((4, target.dim))
        lp = target.logp(X)
        sc = target.score(X)
        hv = target.hvp(X, V)
        for i in range(4):
            assert np.isclose(lp[i], logp1(target, X[i]), rtol=1e-12)
            assert np.allclose(sc[i], score1(target, X[i]), rtol=1e-10, atol=1e-12)
            assert np.allclose(hv[i], hvp1(target, X[i], V[i]), rtol=1e-10, atol=1e-12)

    def test_point_is_rejected(self, name, target, tol):
        # a point is a batch of one; a 1-D array is refused, not promoted
        x = np.zeros(target.dim)
        expect = rf"expected \(n, {target.dim}\)"
        for call in (target.logp, target.score, target.score_and_hvp, lambda y: target.hvp(y, y)):
            with pytest.raises(ValueError, match=expect):
                call(x)


SHARED_TARGETS = [(name, target) for name, target, _ in ALL_TARGETS]
SHARED_TARGETS.append(("tempered-blr", Tempered(make_blr_target(), 0.3)))


def allocating_reference(target):
    """The target with its allocating reference passes (below), or None if it has no in-place ones."""
    if isinstance(target, Tempered):
        base = allocating_reference(target.base)
        return base and Tempered(base, target.beta)
    if isinstance(target, LogisticRegression):
        return ReferenceLogisticRegression(target.design, target.labels, target.alpha)
    if isinstance(target, ConditionedDiffusion):
        return ReferenceConditionedDiffusion(
            target.obs_indices, target.observations, target.dim, target.dt, target.drift, target.obs_noise
        )
    return None


@pytest.mark.parametrize("name,target", SHARED_TARGETS, ids=[t[0] for t in SHARED_TARGETS])
def test_score_and_hvp_matches_separate_calls(name, target):
    # the shared pass against the plain score, the operator against finite
    # differences of that score, and both against the allocating reference
    rng = np.random.default_rng(41)
    X = rng.standard_normal((7, target.dim))
    V = rng.standard_normal((7, target.dim))
    score, hvp = target.score_and_hvp(X)
    assert np.array_equal(score, target.score(X))
    step = 1e-5
    fd = (target.score(X + step * V) - target.score(X - step * V)) / (2.0 * step)
    assert relative_error(hvp(V), fd, floor=1e-4).max() < 1e-4
    reference = allocating_reference(target)
    if reference is not None:
        ref_score, ref_hvp = reference.score_and_hvp(X)
        assert np.array_equal(score, ref_score)
        assert np.array_equal(hvp(V), ref_hvp(V))


PRELUDES = [
    ("banana", Banana, "_pullback"),
    ("multimodal", multimodal_target, "_responsibilities"),
    ("cd", make_cd_target, "_residuals"),
]


@pytest.mark.parametrize("name,make,prelude", PRELUDES, ids=[p[0] for p in PRELUDES])
def test_score_and_hvp_runs_prelude_once(name, make, prelude):
    # the score and one use of the operator share one pass over the batch
    target = make()
    original = getattr(target, prelude)
    calls = []

    def counted(X, *args, **kwargs):
        calls.append(X.shape[0])
        return original(X, *args, **kwargs)

    setattr(target, prelude, counted)
    rng = np.random.default_rng(43)
    _, hvp = target.score_and_hvp(rng.standard_normal((5, target.dim)))
    hvp(rng.standard_normal((5, target.dim)))
    assert calls == [5]


def sigmoid_reference(t):
    """The boolean-mask logistic function the branch-free one replaced."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    def assert_matches_reference(self, t):
        with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            got = _sigmoid(t)
        assert np.array_equal(got, sigmoid_reference(t), equal_nan=True)

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_random_blocks(self, scale):
        self.assert_matches_reference(scale * np.random.default_rng(8).standard_normal((300, 40)))

    def test_special_values(self):
        magnitudes = [0.0, np.inf, 700.5, 745.2, 800.0, 5e-324]
        t = np.array(magnitudes + [-m for m in magnitudes] + [np.nan])
        assert np.signbit(t[len(magnitudes)])  # -0.0 is in the set
        self.assert_matches_reference(t)

    def test_non_contiguous_input(self):
        t = 50.0 * np.random.default_rng(9).standard_normal((60, 45))
        self.assert_matches_reference(t.T)
        self.assert_matches_reference(t[1::3, ::2])


class TestBanana:
    def test_score_zero_at_pullback_origin(self):
        assert np.allclose(score1(Banana(), [0.0, 1.0]), 0.0)

    def test_exact_sampler_pullback_moments(self):
        target = Banana()
        samples = target.sample_exact(100_000, np.random.default_rng(0))
        v = np.stack([samples[:, 0], samples[:, 1] - samples[:, 0] ** 2 - 1.0], axis=1)
        cov = np.cov(v.T)
        assert np.allclose(cov, target.cov, atol=0.03)


class TestMixture:
    def test_multimodal_score_cancels_at_origin(self):
        assert np.allclose(score1(multimodal_target(), np.zeros(2)), 0.0, atol=1e-14)

    def test_single_component_is_gaussian(self):
        mean = np.array([1.0, -2.0])
        variances = np.array([0.5, 2.0])
        target = diagonal_gaussian(mean, variances)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(2)
            assert np.allclose(score1(target, x), (mean - x) / variances, rtol=1e-12)

    def test_exact_sampler_moments(self):
        target = multimodal_target()
        n = 100_000
        samples = target.sample_exact(n, np.random.default_rng(1))
        # analytic: mean 0, var_x1 = 1 + 4, var_x2 = 1
        mean_se = np.sqrt(5.0 / n)
        assert abs(samples[:, 0].mean()) < 5 * mean_se
        assert abs(samples[:, 0].var() - 5.0) < 5 * np.sqrt(2.0 / n) * 5.0
        assert abs(samples[:, 1].var() - 1.0) < 5 * np.sqrt(2.0 / n) * 1.0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture([0.7, 0.7], [[0.0], [1.0]], [np.eye(1), np.eye(1)])


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("make", [xshaped_target, Banana], ids=["xshaped", "banana"])
def test_rows_keep_their_bits_at_every_batch_width(make, width):
    # a sampler block of one or two particles scores them as the whole batch does
    target = make()
    X = target.sample_exact(2400, np.random.default_rng(7))
    parts = [X[i : i + width] for i in range(0, len(X), width)]
    assert np.array_equal(np.concatenate([target.score(x) for x in parts]), target.score(X))
    assert np.array_equal(np.concatenate([target.logp(x) for x in parts]), target.logp(X))


class TestStudentTProduct:
    def test_score_zero_at_origin(self):
        assert np.allclose(score1(StudentTProduct(nu=2.0, width=5.0), np.zeros(2)), 0.0)

    def test_univariate_score_formula(self):
        nu, w = 3.0, 2.0
        target = StudentTProduct(nu=nu, width=w, dim=1)
        for x in (-4.0, -0.5, 0.7, 3.0):
            expect = -(nu + 1.0) * x / (nu * w**2 + x**2)
            assert np.isclose(score1(target, [x])[0], expect)

    def test_exact_sampler_median_scale(self):
        target = StudentTProduct(nu=2.0, width=10.0)
        samples = target.sample_exact(200_000, np.random.default_rng(2))
        # per-axis absolute median of student-t(2) is about 0.8165 * width
        med = np.median(np.abs(samples), axis=0)
        assert np.allclose(med, 8.165, rtol=0.05)


class TestLogisticRegression:
    def test_score_at_zero(self):
        target = make_blr_target(n_rows=30)
        expect = ((target.labels - 0.5)[:, None] * target.design).sum(axis=0)
        assert np.allclose(score1(target, np.zeros(target.dim)), expect)

    def test_hvp_negative_definite(self):
        target = make_blr_target(n_rows=30)
        rng = np.random.default_rng(7)
        beta = rng.standard_normal(target.dim)
        for _ in range(10):
            v = rng.standard_normal(target.dim)
            quad = float(hvp1(target, beta, v) @ v)
            assert quad <= -target.alpha * float(v @ v) + 1e-9

    def test_score_and_hvp_match_separate_formulas(self):
        # the shared pass gives the bits of the former per-method formulas
        target = make_blr_target(n_rows=50)
        rng = np.random.default_rng(12)
        B = 3.0 * rng.standard_normal((9, target.dim))
        V = rng.standard_normal((9, target.dim))
        s = sigmoid_reference(target.design @ B.T)
        score = (target.design.T @ (target.labels[:, None] - s)).T - target.alpha * B
        w = s * (1.0 - s)
        hvp = -(target.design.T @ (w * (target.design @ V.T))).T - target.alpha * V
        assert np.array_equal(target.score(B), score)
        assert np.array_equal(target.hvp(B, V), hvp)

    # Fixed examples: with logits past 700, |logp| reaches thousands and its
    # finite differences carry about 1e-8 of roundoff, which about one draw in
    # 3000 puts above a near-zero score component's 1e-4 relative bound.
    @given(seed=st.integers(0, 2**32 - 1), reach=st.floats(701.0, 900.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_derivatives_with_logits_past_700(self, seed, reach):
        target = make_blr_target()
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(target.dim)
        beta = u * (reach / np.abs(target.design @ u).max())
        assert np.abs(target.design @ beta).max() > 700.0
        fd = central_difference_gradient(lambda y: logp1(target, y), beta, step=1e-5)
        assert relative_error(score1(target, beta), fd, floor=1e-6).max() < 1e-4
        v = rng.standard_normal(target.dim)
        step = 1e-5
        fd = (score1(target, beta + step * v) - score1(target, beta - step * v)) / (2.0 * step)
        assert relative_error(hvp1(target, beta, v), fd, floor=1e-4).max() < 1e-4

    def test_loader_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        features, labels = write_waveform_csv(path, 17, 5)
        target = load_blr_dataset(path)
        assert target.dim == 22
        assert target.n_rows == 17
        assert np.all(target.design[:, 0] == 1.0)
        assert np.array_equal(target.design[:, 1:], features) and np.array_equal(target.labels, labels)

    def test_loader_rejects_bad_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = ",".join(["0.0"] * 21 + ["2.0"])
        path.write_text(row + "\n")
        with pytest.raises(ValueError, match="labels"):
            load_blr_dataset(path)

    def test_loader_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,1\n")
        with pytest.raises(ValueError, match="columns"):
            load_blr_dataset(path)

    @pytest.mark.filterwarnings("error")  # numpy's empty-input warning stays inside the loader
    @pytest.mark.parametrize(
        "layout, error",
        [
            ("header", None),
            ("no-header", None),
            ("blank-line", None),
            ("short-row", "data.csv: the number of columns changed from 22 to 21 at row 3$"),
            ("header-only", "data.csv: no data rows"),
            ("empty", "data.csv: no data rows"),
        ],
        ids=["header", "no-header", "blank-line", "short-row", "header-only", "empty"],
    )
    def test_loader_layouts(self, tmp_path, layout, error):
        path = tmp_path / "data.csv"
        write_waveform_csv(path, 6, 2)
        expected = load_blr_dataset(path)
        lines = path.read_text().splitlines(keepends=True)
        if layout == "no-header":
            lines = lines[1:]
        elif layout == "blank-line":
            lines.insert(3, "\n")
        elif layout == "short-row":
            lines[3] = lines[3].split(",", 1)[1]
        elif layout == "header-only":
            lines = lines[:1]
        elif layout == "empty":
            lines = []
        path.write_text("".join(lines))
        if error:
            with pytest.raises(ValueError, match=error):
                load_blr_dataset(path)
            return
        target = load_blr_dataset(path)
        assert np.array_equal(target.design, expected.design) and np.array_equal(target.labels, expected.labels)

    def test_loader_two_row_toy(self, tmp_path):
        path = tmp_path / "toy.csv"
        rows = [",".join(["0.5"] * 21 + ["1"]), ",".join(["-0.5"] * 21 + ["0"])]
        path.write_text("\n".join(rows) + "\n")
        target = load_blr_dataset(path)
        assert target.design.shape == (2, 22)
        assert np.all(target.design[:, 0] == 1.0)


class TestConditionedDiffusion:
    def test_zero_path_score(self):
        target = make_cd_target()
        score = score1(target, np.zeros(100))
        expect = np.zeros(100)
        expect[target.obs_indices - 1] = target.observations / target.obs_noise**2
        assert np.allclose(score, expect)

    def test_zero_noise_observations_vanish(self):
        path = euler_maruyama_path(np.zeros(100))
        assert np.array_equal(path, np.zeros(100))

    def test_observation_count(self):
        idx, obs, _ = generate_cd_observations(seed=11)
        assert idx.size == 20 and obs.size == 20
        assert np.array_equal(idx, np.arange(5, 101, 5))

    def test_paths_settle_in_wells(self):
        # double-well drift pushes late states toward +1 or -1
        finals = []
        for seed in range(200):
            _, _, path = generate_cd_observations(seed=seed)
            finals.append(path[-1])
        finals = np.abs(np.asarray(finals))
        assert np.mean((finals > 0.6) & (finals < 1.4)) > 0.8

    def test_deterministic(self):
        a = generate_cd_observations(seed=3)
        b = generate_cd_observations(seed=3)
        assert np.array_equal(a[1], b[1])

    def test_stride_past_the_path_refused(self):
        idx, _, _ = generate_cd_observations(seed=4, obs_stride=100)
        assert idx.tolist() == [100]  # the last state, observed alone
        with pytest.raises(ValueError, match="^101 exceeds the 100 states of the path, so none is observed$"):
            generate_cd_observations(seed=4, obs_stride=101)

    def test_index_validation(self):
        with pytest.raises(ValueError, match="indices"):
            ConditionedDiffusion([0], [1.0])
        with pytest.raises(ValueError, match="indices"):
            ConditionedDiffusion([101], [1.0])
        # the score would add one of two observations of a state, while logp sums both
        with pytest.raises(ValueError, match="^observation index 2 repeats$"):
            ConditionedDiffusion([2, 5, 2], [0.3, 0.1, -0.4])


class TestTempered:
    def test_beta_one_is_identity(self):
        base = Banana()
        tempered = Tempered(base, 1.0)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(2)
        v = rng.standard_normal(2)
        assert np.array_equal(score1(tempered, x), score1(base, x))
        assert np.array_equal(hvp1(tempered, x, v), hvp1(base, x, v))

    def test_scales_score(self):
        base = Banana()
        tempered = Tempered(base, 0.25)
        x = np.array([0.7, -0.2])
        assert np.allclose(score1(tempered, x), 0.25 * score1(base, x))

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            Tempered(Banana(), 0.0)
        with pytest.raises(ValueError):
            Tempered(Banana(), 1.5)


# The allocating passes the in-place ones replaced, copied unchanged from
# before the rewrite, as subclasses so that they run through the same public
# methods.
def reference_sigmoid(t):
    """Logistic function without overflow: both exponents are at most 0."""
    return np.exp(np.minimum(t, 0.0)) / (1.0 + np.exp(-np.abs(t)))


class ReferenceLogisticRegression(LogisticRegression):
    def _logp(self, B):
        T = self._logits(B)
        ll = (self.labels[:, None] * T - np.logaddexp(0.0, T)).sum(axis=0)
        return ll - 0.5 * self.alpha * (B**2).sum(axis=1)

    def _score_and_hvp(self, B, work=None):  # allocates; the workspace is ignored
        s = reference_sigmoid(self._logits(B))
        score = (self.design.T @ (self.labels[:, None] - s)).T - self.alpha * B

        def hvp(V):
            w = s * (1.0 - s)
            U = self.design @ V.T
            return -(self.design.T @ (w * U)).T - self.alpha * V

        return score, hvp

    def _score(self, B, work=None):
        return self._score_and_hvp(B)[0]


class ReferenceConditionedDiffusion(ConditionedDiffusion):
    def _with_origin(self, X):
        return np.concatenate([np.zeros((X.shape[0], 1)), X], axis=1)

    def _residuals(self, X):
        full = self._with_origin(X)
        prev = full[:, :-1]
        b = self.drift * prev * (1.0 - prev**2)
        return full[:, 1:] - prev - b * self.dt

    def _logp(self, X):
        r = self._residuals(X)
        out = -(r**2).sum(axis=1) / (2.0 * self.dt)
        obs_diff = self.observations[None, :] - X[:, self.obs_indices - 1]
        return out - (obs_diff**2).sum(axis=1) / (2.0 * self.obs_noise**2)

    def _drift_slope(self, x):
        # derivative of x + drift * x (1 - x^2) dt with respect to x
        return 1.0 + self.drift * (1.0 - 3.0 * x**2) * self.dt

    def _score_and_hvp(self, X, work=None):
        r = self._residuals(X)
        s = -r / self.dt
        c = self._drift_slope(X[:, :-1])
        s[:, :-1] += r[:, 1:] * c / self.dt
        s[:, self.obs_indices - 1] += (self.observations[None, :] - X[:, self.obs_indices - 1]) / self.obs_noise**2

        def hvp(V):
            dr = V.copy()
            dr[:, 1:] -= c * V[:, :-1]
            out = -dr / self.dt
            dc = -6.0 * self.drift * X[:, :-1] * self.dt * V[:, :-1]
            out[:, :-1] += (dr[:, 1:] * c + r[:, 1:] * dc) / self.dt
            out[:, self.obs_indices - 1] -= V[:, self.obs_indices - 1] / self.obs_noise**2
            return out

        return s, hvp

    def _score(self, X, work=None):
        return self._score_and_hvp(X)[0]

    def _logp_and_score(self, X, work=None):
        return self._logp(X), self._score(X)


def _blr_pair(n_rows):
    features, labels = make_waveform_dataset(n_rows=n_rows, seed=3)
    design = np.concatenate([np.ones((n_rows, 1)), features], axis=1)
    return LogisticRegression(design, labels), ReferenceLogisticRegression(design, labels)


def _cd_pair():
    idx, obs, _ = generate_cd_observations(6)
    return ConditionedDiffusion(idx, obs), ReferenceConditionedDiffusion(idx, obs)


def _layouts(block):
    """The same points as a C-ordered batch, a Fortran-ordered one, every
    other row of a larger batch, and a single point as a batch of one."""
    wide = np.repeat(block, 2, axis=0)
    return {
        "contiguous": block,
        "fortran": np.asfortranarray(block),
        "strided-rows": wide[::2],
        "single-point": block[:1],
    }


# blr-1000 has 1000 rows: a batch of 40 spans two sigmoid scratch blocks
IN_PLACE_PAIRS = {
    "blr": (lambda: _blr_pair(40), 3.0),
    "blr-1000": (lambda: _blr_pair(1000), 0.5),
    "cd": (_cd_pair, 1.5),
}


@pytest.mark.parametrize("pair", list(IN_PLACE_PAIRS))
@pytest.mark.parametrize("layout", ["contiguous", "fortran", "strided-rows", "single-point"])
@pytest.mark.parametrize("beta", [None, 0.3], ids=["plain", "tempered"])
def test_in_place_passes_match_allocating_ones(pair, layout, beta):
    make, scale = IN_PLACE_PAIRS[pair]
    target, reference = make()
    if beta is not None:
        target, reference = Tempered(target, beta), Tempered(reference, beta)
    rng = np.random.default_rng(29)
    x = _layouts(scale * rng.standard_normal((40, target.dim)))[layout]
    v = _layouts(rng.standard_normal((40, target.dim)))[layout]
    x_before, v_before = x.copy(), v.copy()
    x.flags.writeable = False  # a write to the caller's array raises
    v.flags.writeable = False
    assert np.array_equal(target.logp(x), reference.logp(x))
    assert np.array_equal(target.score(x), reference.score(x))
    assert np.array_equal(target.hvp(x, v), reference.hvp(x, v))
    score, hvp = target.score_and_hvp(x)
    ref_score, ref_hvp = reference.score_and_hvp(x)
    assert np.array_equal(score, ref_score)
    assert np.array_equal(hvp(v), ref_hvp(v))
    # the same bits with the arrays in a workspace whose contents are stale
    work = np.full(target.work_size(len(x)) + 3, np.nan)
    score, hvp = target.score_and_hvp(x, work)
    assert np.array_equal(score, ref_score)
    assert np.array_equal(hvp(v), ref_hvp(v))
    assert np.array_equal(x, x_before) and np.array_equal(v, v_before)


def same_bits(a, b):
    """Equal shapes and equal bits, so +0.0 and -0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def make_cd_last_unobserved():
    """A path whose last state is not observed, so no observation term covers the last score column."""
    idx, obs, _ = generate_cd_observations(7, obs_stride=3)
    assert idx[-1] < 100
    return ConditionedDiffusion(idx, obs)


WORKSPACE_TARGETS = [(name, target) for name, target, _ in ALL_TARGETS]
WORKSPACE_TARGETS.append(("cd-last-unobserved", make_cd_last_unobserved()))
WORKSPACE_TARGETS += [(f"tempered-{name}", Tempered(target, 0.3)) for name, target in WORKSPACE_TARGETS]
SIZED_TARGETS = [(name, target) for name, target in WORKSPACE_TARGETS if target.work_size(1)]


@pytest.mark.parametrize("name,target", WORKSPACE_TARGETS, ids=[t[0] for t in WORKSPACE_TARGETS])
@pytest.mark.parametrize("layout", ["contiguous", "fortran", "strided-rows", "single-point"])
def test_sampler_passes_in_a_workspace_match_allocating_ones(name, target, layout):
    # the samplers' calls, score(x, work) and logp_and_score(x, work), against
    # the allocating reference passes (the target's own ones where it has no
    # in-place passes), at rows with a row of zeros and one of signed zeros
    reference = allocating_reference(target) or target
    rng = np.random.default_rng(37)
    block = 1.5 * rng.standard_normal((6, target.dim))
    block[0] = np.where(rng.random(target.dim) < 0.5, 0.0, -0.0)  # also the single point
    block[3] = 0.0
    x = _layouts(block)[layout]
    x.flags.writeable = False  # a write to the caller's array raises
    expect_logp, expect_score = reference.logp(x), reference.score(x)
    work = np.full(target.work_size(len(x)) + 3, np.nan)  # stale contents
    for _ in range(2):  # the second pass finds the first one's arrays in the workspace
        assert same_bits(target.score(x, work), expect_score)
        logp, score = target.logp_and_score(x, work)
        assert same_bits(logp, expect_logp) and same_bits(score, expect_score)
    logp, score = target.logp_and_score(x)
    assert same_bits(logp, expect_logp) and same_bits(score, expect_score)
    assert same_bits(target.score(x), expect_score) and same_bits(target.logp(x), expect_logp)


@pytest.mark.parametrize("name,target", SIZED_TARGETS, ids=[t[0] for t in SIZED_TARGETS])
def test_short_workspace_is_refused(name, target):
    x = np.zeros((5, target.dim))
    need = target.work_size(5)
    for call in (target.score, target.logp_and_score, target.score_and_hvp):
        with pytest.raises(ValueError, match=f"^workspace holds {need - 1} values; this batch needs {need}$"):
            call(x, np.empty(need - 1))


class TestWorkspace:
    def test_operator_without_it_stays_valid(self):
        target, reference = _blr_pair(40)
        rng = np.random.default_rng(31)
        x, later, v = (rng.standard_normal((12, target.dim)) for _ in range(3))
        _, hvp = target.score_and_hvp(x)
        first = hvp(v)
        target.score_and_hvp(later)[1](v)
        target.score(later)
        target.hvp(later, v)
        assert np.array_equal(hvp(v), first)
        assert np.array_equal(first, reference.score_and_hvp(x)[1](v))

    def test_arrays_live_in_it(self):
        target, _ = _blr_pair(40)
        x = np.random.default_rng(32).standard_normal((12, target.dim))
        work = np.full(target.work_size(12), np.nan)
        target.score_and_hvp(x, work)
        assert work.size == 2 * 40 * 12 and not np.isnan(work).any()

    def test_too_small_is_refused(self):
        target, _ = _blr_pair(40)
        x = np.zeros((12, target.dim))
        with pytest.raises(ValueError, match="^workspace holds 959 values; this batch needs 960$"):
            target.score_and_hvp(x, np.empty(959))

    @pytest.mark.parametrize("name,target,tol", ALL_TARGETS, ids=[t[0] for t in ALL_TARGETS])
    def test_sizes(self, name, target, tol):
        if name == "blr":  # two (rows, n) arrays
            expected = 2 * target.n_rows * 7
        elif name == "cd":  # three (n, d) arrays and two (n, observations) ones
            expected = 7 * (3 * target.dim + 2 * target.obs_indices.size)
        else:
            expected = 0
        assert target.work_size(7) == Tempered(target, 0.5).work_size(7) == expected


class TestSigmoidBuffers:
    def test_in_place_and_across_blocks(self, monkeypatch):
        # 7 elements a block over 5 columns: one row per block, the last short
        monkeypatch.setattr(targets, "_SIGMOID_BLOCK", 7)
        t = 40.0 * np.random.default_rng(10).standard_normal((9, 5))
        expect = reference_sigmoid(t)
        assert np.array_equal(_sigmoid(t), expect)
        assert np.array_equal(_sigmoid(t.T), expect.T)
        got = _sigmoid(t, out=t)
        assert got is t
        assert np.array_equal(t, expect)

    def test_input_not_written(self):
        t = np.random.default_rng(11).standard_normal((50, 30))
        t.flags.writeable = False
        assert np.array_equal(_sigmoid(t), reference_sigmoid(t))


class TestHvpShapes:
    @pytest.mark.parametrize("name,target", SHARED_TARGETS, ids=[t[0] for t in SHARED_TARGETS])
    def test_directions_must_match_points(self, name, target):
        # one point against several directions is not broadcast
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError, match="batch sizes"):
            target.hvp(rng.standard_normal((1, target.dim)), rng.standard_normal((3, target.dim)))
        with pytest.raises(ValueError, match="batch sizes"):
            target.hvp(rng.standard_normal((2, target.dim)), rng.standard_normal((3, target.dim)))


# Paths several times past the wells: residuals grow like drift * dt * |x|^3,
# so |logp| reaches about 1e12 and the score about 1e8 at |x| = 50.  There the
# finite differences of logp carry an absolute roundoff of about
# eps * |logp| / step (up to twice that was seen), which the score bound allows
# on top of its 1e-4 relative tolerance.
@given(seed=st.integers(0, 2**32 - 1), reach=st.floats(3.0, 50.0))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_cd_derivatives_at_large_states(seed, reach):
    target = make_cd_target()
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(target.dim)
    x = u * (reach / np.abs(u).max())
    step = 1e-5
    fd = central_difference_gradient(lambda y: logp1(target, y), x, step=step)
    roundoff = np.finfo(np.float64).eps * abs(logp1(target, x)) / step
    assert np.all(np.abs(score1(target, x) - fd) <= 1e-4 * np.abs(fd) + 10.0 * roundoff)
    v = rng.standard_normal(target.dim)
    fd = (score1(target, x + step * v) - score1(target, x - step * v)) / (2.0 * step)
    assert relative_error(hvp1(target, x, v), fd, floor=1e-6 * np.abs(fd).max()).max() < 1e-4


# Student-t tails out to 1e4 widths: the score decays like (nu + 1) / x and the
# Hessian like -(nu + 1) / x^2 while logp grows only like log|x|.  Each
# coordinate gets a step proportional to itself, and the score bound allows
# the differences' roundoff as test_cd_derivatives_at_large_states does.
@given(seed=st.integers(0, 2**32 - 1), reach=st.floats(1.0, 1e4), nu=st.floats(0.5, 10.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_student_t_derivatives_in_the_tails(seed, reach, nu):
    rng = np.random.default_rng(seed)
    width = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
    target = StudentTProduct(nu=nu, width=width, dim=3)
    x = rng.choice([-1.0, 1.0], size=3) * rng.uniform(0.5, 1.0, size=3) * reach * width
    steps = 1e-5 * np.abs(x)
    fd = np.empty(3)
    for i, step in enumerate(steps):
        e = np.zeros(3)
        e[i] = step
        fd[i] = (logp1(target, x + e) - logp1(target, x - e)) / (2.0 * step)
    roundoff = np.finfo(np.float64).eps * abs(logp1(target, x)) / steps
    assert np.all(np.abs(score1(target, x) - fd) <= 1e-4 * np.abs(fd) + 10.0 * roundoff)
    v = rng.standard_normal(3) * np.abs(x)  # a direction on the scale of x
    step = 1e-5
    fd = (score1(target, x + step * v) - score1(target, x - step * v)) / (2.0 * step)
    assert relative_error(hvp1(target, x, v), fd, floor=1e-6 * np.abs(fd).max()).max() < 1e-4
