import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksivi.configio import ExperimentConfig, build_target
from ksivi.presets import get_preset
from ksivi.targets import (
    Banana,
    ConditionedDiffusion,
    GaussianMixture,
    LogisticRegression,
    StudentTProduct,
    Tempered,
    _ROW_BLOCK,
    diagonal_gaussian,
    euler_maruyama_path,
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


def make_cd_target(seed=0, obs_stride=5):
    return ConditionedDiffusion(seed, n_steps=100, dt=0.01, obs_stride=obs_stride)


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
        return ReferenceConditionedDiffusion.of(target)
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


def two_sided_sigmoid(t):
    """The logistic function with every exponent at most 0, the accuracy oracle:
    ``1 / (1 + exp(-t))`` for t >= 0 and ``exp(t) / (1 + exp(t))`` below."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def pass_sigmoid(t):
    """The logistic function of ``t`` as the score pass computes it.  On a design
    of intercept-only rows the logits of the points ``t`` are ``t`` in every row,
    so every row of the pass's ``s`` holds it; the rows are enough for two blocks
    and a ragged third.  With labels 0 the residual is ``-s``."""
    t = np.asarray(t, dtype=np.float64)
    rows = 2 * max(1, _ROW_BLOCK // t.size) + 1
    target = LogisticRegression(np.ones((rows, 1)), np.zeros(rows))
    assert len(target._row_blocks(t.size)) == 3
    s, residual = np.full((2, rows, t.size), np.nan)
    target._score_pass(t.reshape(-1, 1), s, residual)
    assert all(same_bits(row, s[0]) for row in s)
    assert np.array_equal(residual, -s, equal_nan=True)
    return s[0].reshape(t.shape)


class TestSigmoid:
    def assert_accurate(self, t):
        # against the two-sided oracle: the same bits for t >= 0; below, within
        # 2^-52 absolute, and 4 eps relative while the values stay normal; exactly
        # 0 once exp(-t) overflows
        with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            got = pass_sigmoid(t)
        expect = two_sided_sigmoid(t)
        upper, lower, normal = t >= 0, t < 0, (t < 0) & (t > -700.0)
        assert np.array_equal(got[upper], expect[upper])
        assert (np.abs(got[lower] - expect[lower]) <= 2.0**-52).all()
        assert (np.abs(got[normal] - expect[normal]) <= 4 * np.finfo(float).eps * expect[normal]).all()
        assert (got[t < -709.79] == 0.0).all()
        assert np.array_equal(np.isnan(got), np.isnan(t))

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_random_blocks(self, scale):
        self.assert_accurate(scale * np.random.default_rng(8).standard_normal((300, 40)))

    def test_special_values(self):
        magnitudes = [0.0, np.inf, 700.5, 745.2, 800.0, 5e-324]
        t = np.array(magnitudes + [-m for m in magnitudes] + [np.nan])
        assert np.signbit(t[len(magnitudes)])  # -0.0 is in the set
        self.assert_accurate(t)

    def test_dense_grid(self):
        self.assert_accurate(np.linspace(-800.0, 800.0, 2**18 + 1))

    def test_overflow_edge(self):
        # exp(-t) overflows below -log of the largest double, about -709.7827
        t = np.linspace(-709.80, -709.77, 3001)
        self.assert_accurate(t)
        assert (pass_sigmoid(t)[t > -709.78] > 0.0).all()


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
        s = reference_sigmoid(target.design @ B.T)
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
        target = make_cd_target(seed=11)
        assert target.obs_indices.size == 20 and target.observations.size == 20
        assert np.array_equal(target.obs_indices, np.arange(5, 101, 5))

    def test_paths_settle_in_wells(self):
        # double-well drift pushes late states toward +1 or -1
        finals = np.abs(np.asarray([make_cd_target(seed=seed).path[-1] for seed in range(200)]))
        assert np.mean((finals > 0.6) & (finals < 1.4)) > 0.8

    def test_deterministic(self):
        a, b = make_cd_target(seed=3), make_cd_target(seed=3)
        assert np.array_equal(a.observations, b.observations) and np.array_equal(a.path, b.path)
        assert not np.array_equal(a.observations, make_cd_target(seed=4).observations)

    def test_stride_past_the_path_refused(self):
        assert make_cd_target(seed=4, obs_stride=100).obs_indices.tolist() == [100]  # the last state, observed alone
        message = "^obs_stride 101 exceeds the 100 states of the path, so none is observed$"
        with pytest.raises(ValueError, match=message):
            make_cd_target(seed=4, obs_stride=101)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"n_steps": 0}, "n_steps must be at least 1, got 0"),
            ({"obs_stride": 0}, "obs_stride must be at least 1, got 0"),
            ({"obs_stride": -2}, "obs_stride must be at least 1, got -2"),
            # a step of 0 divides by zero, and a negative one takes a square root of it
            ({"dt": 0.0}, "dt must be positive, got 0.0"),
            ({"dt": -0.1}, "dt must be positive, got -0.1"),
        ],
    )
    def test_settings_refused_by_name(self, settings, message):
        with pytest.raises(ValueError) as err:
            ConditionedDiffusion(**{"obs_seed": 0, "n_steps": 10, "dt": 0.1, "obs_stride": 5, **settings})
        assert str(err.value) == message

    @pytest.mark.parametrize("preset", ["cd-dim50", "cd-dim100", "cd-dim200"])
    @pytest.mark.parametrize("obs_seed", [42, 0, 17])
    def test_draws_the_bits_of_the_separate_generator(self, preset, obs_seed):
        flat = get_preset(preset)
        n_steps, dt, obs_stride = flat["target.n_steps"], flat["target.dt"], flat["target.obs_stride"]
        target = ConditionedDiffusion(obs_seed, n_steps=n_steps, dt=dt, obs_stride=obs_stride)
        idx, obs, path = reference_cd_observations(obs_seed, n_steps=n_steps, dt=dt, obs_stride=obs_stride)
        assert same_bits(target.obs_indices, idx) and target.obs_indices.dtype == np.int64
        assert same_bits(target.observations, obs) and same_bits(target.path, path)


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
# before the rewrite but for the sigmoid and blr's log-density, as subclasses
# so that they run through the same public methods.
def reference_sigmoid(t):
    """The allocating form of the score pass's logistic function: below t = -709.78 the exponential overflows and the value is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


class ReferenceLogisticRegression(LogisticRegression):
    def _logits(self, B):
        return self.design @ B.T

    def _logp(self, B):
        # y t - log(1 + e^t) = -softplus(z) for z = (1 - 2 y) t; a block's rows are summed, then the blocks in order
        z = (1.0 - 2.0 * self.labels)[:, None] * self._logits(B)
        softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        ll = -sum(softplus[b].sum(axis=0) for b in self._row_blocks(len(B)))
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


class RowBlockedReference(ReferenceLogisticRegression):
    """The reference with its logits taken a block of data rows at a time, as the
    passes take them: at some batch widths a block rounds otherwise than the whole
    product does (see ``test_row_blocks_round_as_the_whole_product``)."""

    def _logits(self, B):
        return np.concatenate([self.design[b] @ B.T for b in self._row_blocks(len(B))])


def logaddexp_logp(target, B):
    """blr's log-density in the form the stable one replaced: ``y t - logaddexp(0, t)``
    summed over the rows, with every row's log-likelihood and the prior term as
    the terms it sums (for a rounding bound)."""
    T = target.design @ B.T
    terms = target.labels[:, None] * T - np.logaddexp(0.0, T)
    prior = 0.5 * target.alpha * (B**2).sum(axis=1)
    return terms.sum(axis=0) - prior, np.abs(terms).sum(axis=0) + prior


# The separate generator whose draws the diffusion's constructor took over,
# copied unchanged but for its name.
def reference_cd_observations(seed, n_steps=100, dt=0.01, drift=10.0, obs_stride=5, obs_noise=0.1):
    """Simulate one latent path and perturb every ``obs_stride``-th state.

    Returns (indices, observations, path); indices are 1-based state
    positions.  Deterministic given the seed.  A stride longer than the path
    observes no state and is refused.
    """
    if obs_stride > n_steps:
        raise ValueError(f"{obs_stride} exceeds the {n_steps} states of the path, so none is observed")
    rng = np.random.default_rng(seed)
    increments = rng.standard_normal(n_steps) * np.sqrt(dt)
    path = euler_maruyama_path(increments, dt=dt, drift=drift)
    indices = np.arange(obs_stride, n_steps + 1, obs_stride, dtype=np.int64)
    observations = path[indices - 1] + obs_noise * rng.standard_normal(indices.size)
    return indices, observations, path


class ReferenceConditionedDiffusion(ConditionedDiffusion):
    @classmethod
    def of(cls, target):
        """The reference passes on ``target``'s own path and observations."""
        reference = cls.__new__(cls)
        reference.__dict__.update(vars(target))
        return reference

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
    target = make_cd_target(6)
    return target, ReferenceConditionedDiffusion.of(target)


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


@pytest.mark.parametrize("n", [1, 7, 100, 131, 1000, 1489])
@pytest.mark.parametrize("rows", [40, 1000, 2000])
def test_row_blocked_passes_match_allocating_ones(rows, n):
    # one block up to 131,072 logits, then blocks of _ROW_BLOCK // n rows (88 at
    # 1,489 points, with a ragged last one), in a workspace whose contents are stale
    target, _ = _blr_pair(rows)
    reference = RowBlockedReference(target.design, target.labels)
    rng = np.random.default_rng(rows + n)
    B = 0.5 * rng.standard_normal((n, target.dim))
    V = rng.standard_normal((3, n, target.dim))
    work = np.full(target.work_size(n) + 3, np.nan)
    assert same_bits(target.score(B, work), reference.score(B))
    score, hvp = target.score_and_hvp(B, work)
    ref_score, ref_hvp = reference.score_and_hvp(B)
    assert same_bits(score, ref_score)
    for v in V:
        assert same_bits(hvp(v), ref_hvp(v))
    assert same_bits(target.logp(B), reference.logp(B))
    logp, score = target.logp_and_score(B, work)
    assert same_bits(logp, reference.logp(B)) and same_bits(score, ref_score)


def blr_preset_target():
    return build_target(ExperimentConfig.from_flat(get_preset("blr-waveform")), "-")


@pytest.mark.parametrize("n", [100, 1000], ids=["training-batch", "sampler-particles"])
def test_row_blocks_round_as_the_whole_product(n):
    # the blr preset's data at its training batch (one block) and at its 1,000
    # sampler particles (blocks of 131 rows): each block of design @ (-B).T holds
    # -(design @ B.T) bit for bit, so the passes keep the whole product's bits and
    # the presets' digests.  A BLAS that rounds a block of rows otherwise fails here.
    target = blr_preset_target()
    B = 0.5 * np.random.default_rng(n).standard_normal((n, target.dim))
    whole = -(target.design @ B.T)
    blocks = target._row_blocks(n)
    assert len(blocks) == (1 if n == 100 else 8)
    for b in blocks:
        assert same_bits(target.design[b] @ (-B).T, whole[b]), b
    reference = ReferenceLogisticRegression(target.design, target.labels, target.alpha)
    assert same_bits(target.score(B), reference.score(B))
    assert same_bits(target.logp(B), reference.logp(B))


@pytest.mark.parametrize("scale", [0.05, 0.5, 5.0, 50.0])
@pytest.mark.parametrize("rows,n", [(40, 7), (1000, 1000), (2000, 131)])
def test_logp_matches_the_logaddexp_form(rows, n, scale):
    # the stable form against the one it replaced, up to the recursive-sum bound
    # rows * eps * (sum of the terms' magnitudes) at which either form may round;
    # scale 50 puts logits past 700, where logaddexp(0, t) is t
    target, _ = _blr_pair(rows)
    B = scale * np.random.default_rng(n).standard_normal((n, target.dim))
    expect, magnitude = logaddexp_logp(target, B)
    got = target.logp(B)
    assert np.all(np.abs(got - expect) <= rows * np.finfo(np.float64).eps * magnitude)
    if scale == 50.0:
        assert np.abs(target.design @ B.T).max() > 700.0


def same_bits(a, b):
    """Equal shapes and equal bits, so +0.0 and -0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def make_cd_last_unobserved():
    """A path whose last state is not observed, so no observation term covers the last score column."""
    target = make_cd_target(7, obs_stride=3)
    assert target.obs_indices[-1] < 100
    return target


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


class TestScorePassBuffers:
    """The score pass takes the logistic function, and the residual, in place over
    arrays it is handed, a block of data rows at a time."""

    def test_residual_in_place(self):
        target, _ = _blr_pair(1000)
        reference = RowBlockedReference(target.design, target.labels)
        B = 3.0 * np.random.default_rng(10).standard_normal((300, target.dim))
        assert [b.stop - b.start for b in target._row_blocks(300)] == [436, 436, 128]
        s, residual = np.full((2, 1000, 300), np.nan)
        score = target._score_pass(B, s, residual)
        assert np.array_equal(s, reference_sigmoid(reference._logits(B)))
        assert np.array_equal(residual, target.labels[:, None] - s)
        assert np.array_equal(score, reference.score(B))
        # one array for both, as the score alone uses it: it ends holding the residual
        both = np.full((1000, 300), np.nan)
        assert np.array_equal(target._score_pass(B, both, both), score)
        assert np.array_equal(both, residual)

    def test_input_not_written(self):
        target, reference = _blr_pair(40)
        B = np.random.default_rng(11).standard_normal((30, target.dim))
        B.flags.writeable = False
        s, residual = np.empty((2, 40, 30))
        assert np.array_equal(target._score_pass(B, s, residual), reference.score(B))
        assert np.array_equal(s, reference_sigmoid(target.design @ B.T))

    def test_allocates_no_logits_block(self):
        # 2,000 rows of 3 coefficients at 1,000 points walk 16 blocks of 131 rows,
        # 1 MB of logits each; the pass itself holds a few (n, d) arrays, 24 KB each
        rng = np.random.default_rng(12)
        design = np.concatenate([np.ones((2000, 1)), rng.standard_normal((2000, 2))], axis=1)
        target = LogisticRegression(design, (rng.random(2000) < 0.5).astype(np.float64))
        B = rng.standard_normal((1000, 3))
        block_bytes = 8 * 1000 * (_ROW_BLOCK // 1000)
        assert len(target._row_blocks(1000)) == 16
        s, residual = np.empty((2, 2000, 1000))
        target._score_pass(B, s, residual)  # warm-up
        tracemalloc.start()
        try:
            score = target._score_pass(B, s, residual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(score, RowBlockedReference(design, target.labels).score(B))
        assert peak < block_bytes // 4, f"{peak} bytes"


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
