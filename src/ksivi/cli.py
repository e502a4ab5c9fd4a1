"""Command-line entry points.

Subcommands: ``train``, ``sample-ground-truth`` and ``evaluate``, plus preset
inspection helpers.  Heavy numerical imports happen inside the command
handlers, after ``_prepare`` has pinned the config's ``run.threads``, so the
pin takes effect before the BLAS runtime loads.

Flags of ``train`` and ``sample-ground-truth``: ``--preset`` or a config
file, ``--out``, ``--data-dir``, ``--seed`` and ``--threads``.  ``--threads``
replaces ``run.threads``, and ``--seed`` replaces ``run.seed``, from which
every random stream's seed is derived (``configio.SEED_OFFSETS``); so a
run's ``config.txt`` holds the values it used.  ``--data-dir`` is where a
relative ``target.data_path`` is read from, and a config without one
refuses it.  ``evaluate`` takes ``--metrics``, ``--seed`` and ``--out``;
``sliced_wd`` projects on ``N_PROJ`` directions, and ``kl_knn`` reads the
``KL_K``-th neighbour.

Refusals: a handler refuses an input by raising.  ``main`` prints a
``configio.ConfigError`` as ``config error: …``, and an ``InputError`` (a
refused flag or input file) or an ``OSError`` as ``error: …``, and each exits
2; a divergence prints ``error: …`` and exits 1.  No handler prints to stderr
or returns 2 itself.  ``evaluate`` refuses a record holding a NaN or an
infinity, which JSON cannot hold, before it prints or writes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

EVALUATE_METRICS = ("sliced_wd", "kl_knn", "mmd2", "corr")
N_PROJ = 128  # sliced_wd's random projections
KL_K = 1  # kl_knn's neighbour


class InputError(Exception):
    """A refused command-line input; ``main`` prints it as ``error: …`` and exits 2."""


def _pin_threads(n: int) -> None:
    if n:  # 0 leaves the BLAS default; the flag and run.threads refuse a negative count
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(n)


def _load_flat_config(args) -> dict:
    from .configio import ConfigError, load_config_file
    from .presets import get_preset

    if args.preset and args.config:
        raise ConfigError("config", "give either a config file or --preset, not both")
    if args.preset:
        flat = get_preset(args.preset)
    elif args.config:
        flat = load_config_file(args.config)
    else:
        raise ConfigError("config", "need a config file or --preset")
    if args.seed is not None:
        flat["run.seed"] = args.seed
    if args.threads is not None:
        flat["run.threads"] = args.threads
    return flat


def _prepare(args):
    from .configio import ExperimentConfig, build_target, thread_count, validate_against_target

    flat = _load_flat_config(args)
    _pin_threads(thread_count(flat))  # before from_flat, which is the first to load numpy
    config = ExperimentConfig.from_flat(flat)
    if args.data_dir is not None and "target.data_path" not in config.flat:
        raise InputError("--data-dir: does nothing when target.data_path is not set")
    target = build_target(config, Path(args.data_dir or ""))  # by default the working directory
    validate_against_target(config, target)
    out_dir = Path(args.out) if args.out else Path("runs") / config.name
    out_dir.mkdir(parents=True, exist_ok=True)  # after the checks, so a refused config or target leaves none
    return config, target, out_dir


def _write_record(out_dir, config, argv, started, finished, files, **sections):
    """Write ``config.txt``, the resolved config, and ``manifest.json`` naming ``files`` and ``argv``."""
    from .configio import format_config
    from .runio import build_identifier, write_manifest

    (out_dir / "config.txt").write_text(format_config(config.flat), encoding="utf-8")
    manifest = {
        "experiment": config.name,
        "config": config.flat,
        "master_seed": config.flat["run.seed"],
        "build": build_identifier(),
        "wallclock_seconds": finished - started,
        "argv": argv,
        **sections,
        "files": ["config.txt", *files],
    }
    write_manifest(out_dir / "manifest.json", manifest)


def cmd_train(args) -> int:
    config, target, out_dir = _prepare(args)  # first: it pins the thread count
    import numpy as np

    from .family import siv_init, siv_sample_batch
    from .kernels import SCALE_NAMES
    from .nets import NetArch
    from .runio import save_checkpoint, write_samples_csv, write_trace_csv
    from .train import train

    init = siv_init(NetArch(config.widths), config.init_seed, config.rho_init)
    started = time.perf_counter()
    params, trace = train(config.train, target, init)
    finished = time.perf_counter()

    eval_rng = np.random.default_rng(config.eval_seed)
    samples = siv_sample_batch(params, config.eval_sample_size, eval_rng).x

    write_trace_csv(out_dir / "trace.csv", trace, SCALE_NAMES[config.train.kernel_family])
    save_checkpoint(out_dir / "checkpoint.json", params)
    write_samples_csv(out_dir / "samples.csv", samples)

    train_seconds = finished - started
    training = {
        "iterations": config.train.iterations,
        "seconds": train_seconds,
        "seconds_per_10k_iterations": (
            train_seconds * 10_000 / config.train.iterations if config.train.iterations else 0.0
        ),
        "final_ksd2": trace["ksd2"][-1] if len(trace) else None,
    }
    usage = _rusage()
    if usage is not None:
        training["peak_rss_mb"] = usage.ru_maxrss / 1024
    files = ["trace.csv", "checkpoint.json", "samples.csv"]
    _write_record(out_dir, config, args.argv, started, finished, files, training=training)
    print(f"trained {config.name}: {config.train.iterations} iterations in {train_seconds:.1f}s")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_ground_truth(args) -> int:
    config, target, out_dir = _prepare(args)  # first: it pins the thread count
    from .configio import SAMPLER_FIELDS
    from .runio import write_samples_csv
    from .samplers import RUNNERS, SamplerConfig

    fields = (*SAMPLER_FIELDS, "seed")  # those a config sets, and the seed derived from run.seed
    s = {key: config.sampler[key] for key in ("algorithm", *fields)}
    before = _rusage()
    started = time.perf_counter()
    run = RUNNERS[s["algorithm"]](target, SamplerConfig(**{field: s[field] for field in fields}))
    finished = time.perf_counter()

    write_samples_csv(out_dir / "ground_truth.csv", run.states)
    sampler = {**s, "acceptance_rate": run.acceptance_rate, "seconds_per_step": (finished - started) / s["n_steps"]}
    if before is not None:  # page faults that needed no I/O: fresh memory, mostly
        after = _rusage()
        sampler["minor_faults_per_step"] = (after.ru_minflt - before.ru_minflt) / s["n_steps"]
        sampler["peak_rss_mb"] = after.ru_maxrss / 1024
    _write_record(out_dir, config, args.argv, started, finished, ["ground_truth.csv"], sampler=sampler)
    extra = f", acceptance {run.acceptance_rate:.3f}" if run.acceptance_rate is not None else ""
    print(f"sampled {s['n_particles']} particles x {s['n_steps']} steps{extra}")
    print(f"artifacts in {out_dir}")
    return 0


def _rusage():
    """This process's resource usage so far (``ru_maxrss`` in KiB, as on Linux),
    or None where ``resource`` does not import."""
    try:
        import resource
    except ImportError:  # not on every platform
        return None
    return resource.getrusage(resource.RUSAGE_SELF)


def _render(record, subject) -> str:
    """``record`` as JSON; a NaN or an infinity, which JSON has no token for, refuses ``subject``."""
    try:
        return json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise InputError(f"{subject}: a value is NaN or infinite, which JSON cannot hold") from None


def cmd_evaluate(args) -> int:
    requested = list(dict.fromkeys(m.strip() for m in args.metrics.split(",") if m.strip()))  # each name once
    unknown = [name for name in requested if name not in EVALUATE_METRICS]
    if unknown or not requested:
        problem = f"unknown metric {unknown[0]!r}" if unknown else "--metrics names no metric"
        raise InputError(f"{problem}; expected some of {', '.join(EVALUATE_METRICS)}")

    import numpy as np

    from .kernels import KernelSpec, bandwidth_from_rule, sq_blocks
    from .metrics import corr_pairs, kl_knn, mmd2_ustat, sliced_wd, upper_triangle
    from .runio import read_samples_csv

    samples = []
    for path in (args.samples_a, args.samples_b):
        try:
            samples.append(read_samples_csv(path))
        except ValueError as err:  # a ragged or non-numeric row, or a non-finite value
            raise InputError(f"{path}: {err}") from None
    X, Y = samples
    if X.shape[1] != Y.shape[1]:
        raise InputError(f"sample dimensions differ ({X.shape[1]} vs {Y.shape[1]})")
    half = Y.shape[0] // 2  # the smaller of the two halves of B that kl_knn's noise floor compares
    if "kl_knn" in requested and half <= KL_K:  # KL_K >= 1, so this also refuses a half of 1 row
        raise InputError(
            f"{args.samples_b}: kl_knn noise floor: samples_b has {Y.shape[0]} rows, split into halves "
            f"of {half} and {Y.shape[0] - half}; each needs more than k = {KL_K} rows"
        )
    # one set of squared distances for the bandwidth, the MMD and the neighbours
    blocks = sq_blocks(X, Y) if "mmd2" in requested or "kl_knn" in requested else None
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
                    "value": sliced_wd(X, Y, n_proj=N_PROJ, seed=args.seed),
                    "n_proj": N_PROJ,
                }
            elif name == "kl_knn":
                rng = np.random.default_rng(args.seed)
                halves = rng.permutation(Y.shape[0])
                a, b = np.split(halves, [Y.shape[0] // 2])
                floor_sq = (blocks.yy[np.ix_(a, a)], blocks.yy[np.ix_(a, b)])
                floor = abs(kl_knn(Y[a], Y[b], k=KL_K, sq=floor_sq))
                del floor_sq  # 4 MB at 1000 points, not kept for the metrics after it
                record["metrics"]["kl_knn"] = {
                    "value": kl_knn(X, Y, k=KL_K, sq=(blocks.xx, blocks.xy)),
                    "k": KL_K,
                    "noise_floor": floor,
                }
            elif name == "mmd2":  # an rbf kernel at the median bandwidth of the pooled samples
                spec = bandwidth_from_rule(KernelSpec(), X, Y, blocks)
                record["metrics"]["mmd2"] = {
                    "value": mmd2_ustat(X, Y, spec, sq=blocks),
                    "kernel": spec.family,
                    "bandwidth": spec.scale,
                }
            elif name == "corr":
                diff = upper_triangle(corr_pairs(X)) - upper_triangle(corr_pairs(Y))
                record["metrics"]["corr"] = {
                    "rmse": float(np.sqrt((diff**2).mean())),
                    "max_abs_diff": float(np.abs(diff).max()),
                }
            _render(record["metrics"][name], f"{args.samples_a}, {args.samples_b}: {name}")
    except ValueError as err:  # a metric refuses the pair, e.g. DegenerateSamplesError
        raise InputError(f"{args.samples_a}, {args.samples_b}: {name}: {err}") from None
    rendered = _render(record, f"{args.samples_a}, {args.samples_b}")
    if args.out:
        Path(args.out).write_text(rendered + "\n")
    print(rendered)
    return 0


def cmd_show_preset(args) -> int:
    from .configio import format_config
    from .presets import get_preset

    print(format_config(get_preset(args.name)), end="")
    return 0


def cmd_list_presets(_args) -> int:
    from .presets import PRESET_NAMES

    for name in PRESET_NAMES:
        print(name)
    return 0


def nonnegative(text: str) -> int:
    """An argparse type: an integer of at least 0, so a bad flag exits 2 with its name."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_run_arguments(parser):
    parser.add_argument("config", nargs="?", help="experiment config file")
    parser.add_argument("--preset", help="use a shipped preset instead of a file")
    parser.add_argument("--out", help="output directory (default runs/<experiment>)")
    parser.add_argument("--data-dir", help="where a relative target.data_path is read from (default: working dir)")
    parser.add_argument("--seed", type=nonnegative, help="override the master seed")
    parser.add_argument("--threads", type=nonnegative, help="pin BLAS thread count (0 leaves the BLAS default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksivi",
        description="Train semi-implicit variational approximations by kernel "
        "Stein discrepancy descent, sample ground truth, and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training experiment")
    _add_run_arguments(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample-ground-truth", help="run the configured Langevin sampler")
    _add_run_arguments(p)
    p.set_defaults(func=cmd_ground_truth)

    p = sub.add_parser("evaluate", help="compare two sample CSVs")
    p.add_argument("samples_a")
    p.add_argument("samples_b")
    p.add_argument("--metrics", default=",".join(EVALUATE_METRICS))
    p.add_argument("--seed", type=nonnegative, default=0)
    p.add_argument("--out", help="also write the JSON record here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("show-preset", help="print a preset config")
    p.add_argument("name")
    p.set_defaults(func=cmd_show_preset)

    p = sub.add_parser("list-presets", help="list preset names")
    p.set_defaults(func=cmd_list_presets)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the manifest's record of the command
    from .configio import ConfigError

    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (InputError, OSError) as err:  # OSError: a missing file, or a directory where a file belongs
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        # imported only here: both modules load numpy, and a config's
        # run.threads must be pinned before that happens
        from .samplers import SamplerDivergence
        from .train import TrainingDivergence

        if not isinstance(err, (TrainingDivergence, SamplerDivergence)):
            raise
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
