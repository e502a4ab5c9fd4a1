"""`evaluate` against plain definitions of its metrics: the same record, in no more memory.

The reference below is `cmd_evaluate` before it built three squared-distance
blocks once, with its distances written directly: the bandwidth is
``np.median`` of the square roots of every pooled pair's expansion value, the
MMD computes its own three distance matrices, and each neighbour distance is
read from a full ``np.sort`` of its row.  The noise floor reads its distances
from one matrix over all of Y, as ``evaluate`` does.  The MMD's record names
the kernel parameter its family reads, and only an rbf kernel without a
``--kernel-scale`` forms the median.
"""

import contextlib
import io
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from ksivi import kernels, metrics
from ksivi.cli import build_parser, cmd_evaluate, main
from ksivi.kernels import BANDWIDTH_FLOOR, KernelSpec
from ksivi.metrics import (
    DISTANCE_CLAMP,
    DegenerateSamplesError,
    _check_pair_dims,
    _check_sample_set,
    corr_pairs,
    sliced_wd,
    upper_triangle,
)
from ksivi.runio import write_samples_csv


def reference_pairwise_sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n, m)."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError(f"incompatible sample shapes {X.shape} and {Y.shape}")
    sq = (X**2).sum(axis=1)[:, None] + (Y**2).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(sq, 0.0)


def reference_eval_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, sq: np.ndarray | None = None) -> np.ndarray:
    """Kernel Gram matrix k(x_i, y_j), shape (n, m).

    ``sq``, if given, is ``pairwise_sq_dists(X, Y)`` computed already.
    """
    if sq is None:
        sq = reference_pairwise_sq_dists(X, Y)
    if spec.family == "rbf":
        return np.exp(-sq / (2.0 * spec.scale**2))
    if spec.family == "imq":
        return (spec.scale**2 + sq) ** (-0.5)
    return -np.sqrt(sq + spec.scale**2)


def reference_median_bandwidth(X: np.ndarray, Y: np.ndarray) -> float:
    """Median of the pooled samples' pairwise Euclidean distances, clamped away from zero."""
    upper = [reference_pairwise_sq_dists(S, S)[np.triu_indices(S.shape[0], 1)] for S in (X, Y)]
    pairs = np.concatenate([*upper, reference_pairwise_sq_dists(X, Y).ravel()])
    return max(float(np.median(np.sqrt(pairs))), BANDWIDTH_FLOOR)


def reference_mmd2_ustat(X, Y, kernel: KernelSpec) -> float:
    """Unbiased squared maximum mean discrepancy."""
    X = _check_sample_set(X, "X")
    Y = _check_sample_set(Y, "Y")
    _check_pair_dims(X, Y)
    n, m = X.shape[0], Y.shape[0]
    kxx = reference_eval_matrix(kernel, X, X)
    kyy = reference_eval_matrix(kernel, Y, Y)
    kxy = reference_eval_matrix(kernel, X, Y)
    within_x = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    within_y = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    return float(within_x + within_y - 2.0 * kxy.mean())


def reference_kth_dists(sq: np.ndarray, kth: int, floor: float) -> np.ndarray:
    """Square roots of each row's ``kth`` smallest value, read as 0 at or below ``floor``."""
    kth_sq = np.sort(sq, axis=1)[:, kth - 1]
    return np.sqrt(np.where(kth_sq <= floor, 0.0, kth_sq))


def reference_kl_knn(X, Y, k: int = 1, sq=None) -> float:
    """Nearest-neighbor estimate of KL(q || p) from X ~ q and Y ~ p.

    ``sq`` is the squared distances within X and from X to Y, built here when
    not given.  A squared distance at or below the expansion's error bound,
    (2d + 4) eps max |x|^2, counts as 0.
    """
    X = _check_sample_set(X, "X")
    Y = _check_sample_set(Y, "Y")
    _check_pair_dims(X, Y)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n, m = X.shape[0], Y.shape[0]
    if n <= k or m <= k:
        raise ValueError("need more samples than neighbors on both sides")
    d = X.shape[1]
    xx, xy = (reference_pairwise_sq_dists(X, X), reference_pairwise_sq_dists(X, Y)) if sq is None else sq
    floor = (2 * d + 4) * np.finfo(np.float64).eps * max((X**2).sum(axis=1).max(), (Y**2).sum(axis=1).max())
    rho = reference_kth_dists(xx, k + 1, floor)  # self sits at distance 0
    nu = reference_kth_dists(xy, k, floor)
    for dists, which in ((rho, "within-set"), (nu, "cross-set (X into Y)")):
        clamped = dists < DISTANCE_CLAMP
        if clamped.mean() > 0.01:
            raise DegenerateSamplesError(
                f"{int(clamped.sum())} of {n} {which} neighbor distances collapsed; "
                "samples contain too many duplicates for a neighbor-ratio estimate"
            )
    rho = np.maximum(rho, DISTANCE_CLAMP)
    nu = np.maximum(nu, DISTANCE_CLAMP)
    return float((d / n) * np.log(nu / rho).sum() + np.log(m / (n - 1.0)))


def reference_read_samples_csv(path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(data)):
        raise ValueError("non-finite value in a sample set")
    return data


def reference_cmd_evaluate(args) -> int:
    from pathlib import Path

    median_bandwidth = reference_median_bandwidth
    mmd2_ustat = reference_mmd2_ustat
    kl_knn = reference_kl_knn
    read_samples_csv = reference_read_samples_csv

    samples = []
    for path in (args.samples_a, args.samples_b):
        try:
            samples.append(read_samples_csv(path))
        except ValueError as err:  # a ragged or non-numeric row, or a non-finite value
            print(f"error: {path}: {err}", file=sys.stderr)
            return 2
    X, Y = samples
    if X.shape[1] != Y.shape[1]:
        print(
            f"error: sample dimensions differ ({X.shape[1]} vs {Y.shape[1]})",
            file=sys.stderr,
        )
        return 2
    requested = [m.strip() for m in args.metrics.split(",") if m.strip()]
    record = {
        "samples": {
            "a": {"path": str(args.samples_a), "count": int(X.shape[0])},
            "b": {"path": str(args.samples_b), "count": int(Y.shape[0])},
            "dim": int(X.shape[1]),
        },
        "seed": args.seed,
        "metrics": {},
    }
    try:
        for name in requested:
            if name == "sliced_wd":
                record["metrics"]["sliced_wd"] = {
                    "value": sliced_wd(X, Y, n_proj=args.n_proj, seed=args.seed),
                    "n_proj": args.n_proj,
                }
            elif name == "kl_knn":
                rng = np.random.default_rng(args.seed)
                halves = rng.permutation(Y.shape[0])
                a, b = halves[: Y.shape[0] // 2], halves[Y.shape[0] // 2 :]
                yy = reference_pairwise_sq_dists(Y, Y)
                floor = abs(kl_knn(Y[a], Y[b], k=args.kl_k, sq=(yy[np.ix_(a, a)], yy[np.ix_(a, b)])))
                record["metrics"]["kl_knn"] = {
                    "value": kl_knn(X, Y, k=args.kl_k),
                    "k": args.kl_k,
                    "noise_floor": floor,
                }
            elif name == "mmd2":
                # the record names the one parameter the family reads; only rbf has a median to form
                family = args.kernel_family or "rbf"
                rbf = family == "rbf"
                scale = args.kernel_scale if args.kernel_scale is not None or not rbf else median_bandwidth(X, Y)
                spec = KernelSpec(family, scale)
                parameter = {"rbf": "bandwidth", "imq": "offset"}[spec.family]
                record["metrics"]["mmd2"] = {
                    "value": mmd2_ustat(X, Y, spec),
                    "kernel": family,
                    parameter: spec.scale,
                }
            elif name == "corr":
                diff = upper_triangle(corr_pairs(X)) - upper_triangle(corr_pairs(Y))
                record["metrics"]["corr"] = {
                    "rmse": float(np.sqrt((diff**2).mean())),
                    "max_abs_diff": float(np.abs(diff).max()),
                }
            else:
                print(f"error: unknown metric {name!r}", file=sys.stderr)
                return 2
    except ValueError as err:  # a metric refuses the pair, e.g. DegenerateSamplesError
        print(f"error: {args.samples_a}, {args.samples_b}: {name}: {err}", file=sys.stderr)
        return 2
    rendered = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(rendered + "\n")
    print(rendered)
    return 0


def sample_files(tmp_path, n, m, d, seed=0):
    """Two CSVs shaped like the benchmark's: trained samples against a reference."""
    rng = np.random.default_rng(seed)
    a, b = tmp_path / "samples.csv", tmp_path / "reference.csv"
    write_samples_csv(a, rng.standard_normal((n, d)) * 0.9 + 0.1)
    write_samples_csv(b, rng.standard_normal((m, d)))
    return a, b


def run(command, argv):
    """Exit code, standard output and tracemalloc peak of one ``evaluate`` call."""
    args = build_parser().parse_args(["evaluate", *argv])
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = command(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out.getvalue(), peak


class TestMatchesReferenceCommand:
    @pytest.mark.parametrize("d", [2, 22, 200])
    def test_same_record_in_no_more_memory(self, tmp_path, d):
        a, b = sample_files(tmp_path, 1000, 1000, d)
        code, out, peak = run(cmd_evaluate, [str(a), str(b)])
        ref_code, ref_out, ref_peak = run(reference_cmd_evaluate, [str(a), str(b)])
        assert code == ref_code == 0
        assert out == ref_out
        assert peak <= ref_peak, f"{peak / 1e6:.1f} MB against {ref_peak / 1e6:.1f} MB"

    @pytest.mark.parametrize(
        "n, m, d, extra",
        [
            (150, 90, 12, ["--kl-k", "3"]),
            (80, 121, 40, ["--kernel-family", "imq", "--kernel-scale", "0.5", "--metrics", "mmd2,kl_knn"]),
            (60, 60, 200, ["--kernel-family", "imq", "--kl-k", "3", "--seed", "5"]),
            (70, 50, 3, ["--kernel-scale", "0.8", "--metrics", "kl_knn,mmd2,corr"]),
            (40, 30, 5, ["--kernel-family", "imq", "--kernel-scale", "0.25", "--metrics", "mmd2"]),
        ],
    )
    def test_same_record_across_options(self, tmp_path, n, m, d, extra):
        a, b = sample_files(tmp_path, n, m, d, seed=d)
        assert run(cmd_evaluate, [str(a), str(b), *extra])[:2] == run(reference_cmd_evaluate, [str(a), str(b), *extra])[:2]


class TestOneBuildPerBlock:
    def count_builds(self, monkeypatch):
        calls = []
        build = kernels.pairwise_sq_dists

        def counted(X, Y, *args, **kwargs):
            calls.append((X.shape[0], Y.shape[0]))
            return build(X, Y, *args, **kwargs)

        monkeypatch.setattr(kernels, "pairwise_sq_dists", counted)
        monkeypatch.setattr(metrics, "pairwise_sq_dists", counted)
        return calls

    @pytest.mark.parametrize("d", [2, 200])
    def test_three_builds_at_every_d(self, tmp_path, monkeypatch, capsys, d):
        a, b = sample_files(tmp_path, 300, 200, d)
        calls = self.count_builds(monkeypatch)
        assert main(["evaluate", str(a), str(b)]) == 0
        assert sorted(calls) == [(200, 200), (300, 200), (300, 300)]
        capsys.readouterr()

    @pytest.mark.parametrize(
        "d, wanted, builds",
        [(200, "sliced_wd,corr", 0), (2, "kl_knn", 3), (2, "kl_knn,mmd2", 3), (200, "kl_knn", 3), (200, "mmd2", 3)],
    )
    def test_blocks_only_for_a_metric_that_reads_them(self, tmp_path, monkeypatch, capsys, d, wanted, builds):
        a, b = sample_files(tmp_path, 40, 30, d)
        calls = self.count_builds(monkeypatch)
        assert main(["evaluate", str(a), str(b), "--metrics", wanted]) == 0
        assert len(calls) == builds
        capsys.readouterr()


class TestRefusals:
    def test_degenerate_samples_named_at_d_200(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100, 200))
        X[[10, 20, 30]] = X[[11, 21, 31]]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a, X)
        write_samples_csv(b, rng.standard_normal((100, 200)))
        assert main(["evaluate", str(a), str(b), "--metrics", "kl_knn"]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {a}, {b}: kl_knn: 6 of 100 within-set neighbor distances collapsed; "
            "samples contain too many duplicates for a neighbor-ratio estimate\n"
        )
        args = build_parser().parse_args(["evaluate", str(a), str(b), "--metrics", "kl_knn"])
        assert reference_cmd_evaluate(args) == 2
        assert capsys.readouterr().err == err

    def test_empty_sample_file_named(self, tmp_path, capsys):
        empty, good = tmp_path / "e.csv", tmp_path / "a.csv"
        empty.write_text("")
        write_samples_csv(good, np.random.default_rng(8).standard_normal((10, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning stays inside
            assert main(["evaluate", str(empty), str(good)]) == 2
        assert capsys.readouterr().err == f"error: {empty}: no data rows\n"
