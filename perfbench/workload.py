"""One pass of a workload: train, then sample ground truth, then evaluate.

``run.py`` starts this file in a fresh process for every pass, with the BLAS
thread variables pinned to 1, as a user starts ``ksivi train``.  It calls
only the public functions the command-line handlers call, times them from
outside (the training loop's ``iteration_hook`` timestamps every iteration),
runs the output checks, and writes one JSON record.

Modes:
  pass   the whole pipeline, untraced
  trace  the whole pipeline with every traced name wrapped (see tracing.py)

Inputs:
  seeded  ``--seed`` replaces ``run.seed`` and the generated data's seed
  preset  the preset's own seeds
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ksivi import cli, configio, family, presets, runio, samplers  # noqa: E402
from ksivi import train as train_mod  # noqa: E402
from ksivi.metrics import DegenerateSamplesError  # noqa: E402
from ksivi.nets import NetArch  # noqa: E402

from tracing import Tracer  # noqa: E402

# Work per pass in a run of REF_SECONDS, which makes six passes: training
# iterations, sampler steps and evaluate calls (an untraced pass on seeded
# inputs evaluates once).  A run of S seconds scales them by S/REF_SECONDS.
# The counts are fixed for a given S, so outputs stay bitwise reproducible.
REF_SECONDS = 30.0
WORKLOADS = {
    "toy-multimodal": {
        "preset": "toy-multimodal",
        "sampler": "sgld",
        "data_seed_key": None,
        "train": 1_300,
        "min_train": 400,  # the preset pass must beat siv_init on sliced_wd
        "gt": 2_200,
        "evaluate": 20,
    },
    "blr-waveform": {
        "preset": "blr-waveform",
        "sampler": "sgld",
        "data_seed_key": "target.data_seed",
        "train": 201,  # 200 timed iterations a pass: ten beyond its p95
        "min_train": 2,
        "gt": 18,
        "evaluate": 8,
    },
    "cd-dim200": {
        "preset": "cd-dim200",
        "sampler": "mala",
        "data_seed_key": "target.obs_seed",
        "train": 230,
        "min_train": 2,
        "gt": 30,
        "evaluate": 2,
    },
}
EVAL_METRICS = "sliced_wd,kl_knn,mmd2,corr"
EVAL_SEED = 0  # projection and permutation seed of the evaluate command
REFERENCE_SEED = 20240529  # exact reference draws, independent of --seed
PROBE_INTERVAL_S = 0.2  # training probes at most this often, between iterations
PROBES_AROUND = 3  # probes after set-up, and just before and just after the sampler run
_PROBE_MATRIX = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)


def sizes(spec, seconds):
    scale = seconds / REF_SECONDS
    return {
        "train": max(spec["min_train"], round(spec["train"] * scale)),
        "gt": max(2, round(spec["gt"] * scale)),
        "evaluate": max(1, round(spec["evaluate"] * scale)),
    }


def workload_flat(name, seed, n):
    """The preset's flat config, shortened; ``seed`` replaces ``run.seed`` and the data seed.

    With ``seed=None`` the preset's own seeds stay.
    """
    spec = WORKLOADS[name]
    flat = presets.get_preset(spec["preset"])
    if seed is not None:
        flat["run.seed"] = seed
        if spec["data_seed_key"]:
            flat[spec["data_seed_key"]] = seed
    if "anneal.iterations" in flat:
        ratio = flat["anneal.iterations"] / flat["train.iterations"]
        flat["anneal.iterations"] = max(1, round(n["train"] * ratio))
    flat["train.iterations"] = n["train"]
    flat["sampler.algorithm"] = spec["sampler"]
    flat["sampler.n_steps"] = n["gt"]
    return flat


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def speed_probe():
    """Milliseconds for a fixed mix of BLAS, elementwise, fresh-page and interpreter work.

    The mix follows what the workloads spend time on and takes about 4 ms.
    ``run.py`` scales the timings of a pass by how fast this probe ran in it.
    """
    start = time.perf_counter()
    for _ in range(8):
        b = np.exp(-np.abs(_PROBE_MATRIX @ _PROBE_MATRIX))
        fresh = np.ones(250_000)  # 2 MB of new pages
        fresh *= b[0, 0]
    total = 0
    for i in range(20_000):
        total += i
    return (time.perf_counter() - start) * 1e3


class Ledger:
    """Attempted and failed operations, plus named output checks."""

    def __init__(self):
        self.attempted = {}
        self.failed = {}
        self.checks = []

    def count(self, kind, attempted, failed=0):
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed

    def check(self, name, ok, detail=""):
        self.count("checks", 1, 0 if ok else 1)
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def set_up(name, seed, n, work_dir, tracer=None):
    """Config resolution, target build (data written and read back) and init."""
    config = configio.ExperimentConfig.from_flat(workload_flat(name, seed, n))
    with span(tracer, "configio.build_target"):
        target = configio.build_target(config, work_dir)
    configio.validate_against_target(config, target)
    init = family.siv_init(NetArch(config.widths), config.init_seed, config.rho_init)
    return config, target, init


def train_phase(config, target, init, ledger, record, tracer=None, probes=None):
    """Train from outside, timestamping every iteration with ``iteration_hook``.

    The first iteration is warm-up: the times start at its hook.  With a
    ``probes`` list, the hook runs ``speed_probe`` at its first call and then
    every ``PROBE_INTERVAL_S``, and appends to it; an iteration's time leaves
    out the probe before it.
    """
    ends, starts = [], []
    last_probe = [float("-inf")]

    def hook(_t, _params):
        ends.append(time.perf_counter_ns())
        if probes is not None and time.perf_counter() - last_probe[0] >= PROBE_INTERVAL_S:
            probes.append(speed_probe())
            last_probe[0] = time.perf_counter()
        starts.append(time.perf_counter_ns())

    try:
        with span(tracer, "train"):
            params, _ = train_mod.train(config.train, target, init, iteration_hook=hook)
    except train_mod.TrainingDivergence as err:
        ledger.count("train_iterations", err.iteration + 1, 1)
        record["error"] = str(err)
        return None
    ledger.count("train_iterations", len(ends))
    iter_ns = np.asarray(ends[1:], dtype=np.int64) - np.asarray(starts[:-1], dtype=np.int64)
    record["train"] = {
        "params_sha256": digest(params.to_flat()),
        "iterations": len(ends),
        "iter_ms": (iter_ns / 1e6).tolist(),
    }
    return params


def gt_phase(config, target, ledger, record, tracer=None):
    """The configured Langevin sampler, as ``sample-ground-truth`` builds it."""
    s = config.sampler
    sampler_config = samplers.SamplerConfig(
        n_particles=s["n_particles"],
        n_steps=s["n_steps"],
        step_size=s["step_size"],
        burn_in=s["burn_in"],
        thin=s["thin"],
        seed=s["seed"],
    )
    runner = samplers.mala_run if s["algorithm"] == "mala" else samplers.sgld_run
    try:
        with span(tracer, "gt"):
            start = time.perf_counter()
            run = runner(target, sampler_config)
            seconds = time.perf_counter() - start
    except samplers.SamplerDivergence as err:
        ledger.count("sampler_steps", err.step + 1, 1)
        record["error"] = str(err)
        return None
    ledger.count("sampler_steps", s["n_steps"])
    rate = run.acceptance_rate
    if rate is not None:
        ledger.check("mala_acceptance_in_(0,1]", 0.0 < rate <= 1.0, f"{rate!r}")
    record["gt"] = {
        "algorithm": s["algorithm"],
        "particles": s["n_particles"],
        "steps": s["n_steps"],
        "seconds": seconds,
        "acceptance_rate": rate,
        "states_sha256": digest(run.states),
    }
    return run


def evaluate(a, b, metrics, out_path, tracer=None):
    """The ``evaluate`` command itself; returns (exit code, record, seconds)."""
    argv = ["evaluate", str(a), str(b), "--metrics", metrics, "--seed", str(EVAL_SEED), "--out", str(out_path)]
    with span(tracer, "evaluate"), contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    record = json.loads(Path(out_path).read_text()) if code == 0 else None
    return code, record, seconds


def evaluate_phase(a, b, repeats, out_dir, ledger, record, tracer=None, probes=None):
    """Run ``evaluate`` ``repeats`` times; every rerun must give the same record.

    With a ``probes`` list, ``speed_probe`` runs before each call and after the last.
    """
    seconds, records = [], []
    for i in range(repeats):
        if probes is not None:
            probes.append(speed_probe())
        try:
            code, rec, sec = evaluate(a, b, EVAL_METRICS, out_dir / f"evaluate{i}.json", tracer)
        except DegenerateSamplesError as err:
            ledger.count("evaluate_calls", 1, 1)
            record["error"] = str(err)
            return None
        ledger.count("evaluate_calls", 1, 0 if code == 0 else 1)
        if code != 0:
            record["error"] = f"evaluate exited with {code}"
            return None
        seconds.append(sec)
        records.append(rec["metrics"])
    if probes is not None:
        probes.append(speed_probe())
    ledger.check("evaluate_reruns_identical", all(r == records[0] for r in records))
    metrics = records[0]
    for name in ("sliced_wd", "mmd2"):
        value = metrics[name]["value"]
        ledger.check(f"{name}_finite", bool(np.isfinite(value)), f"{value!r}")
    record["evaluate"] = {"seconds": seconds, "metrics": metrics}
    return metrics


def init_check(config, init, reference, metrics, out, ledger, record):
    """Training must bring ``sliced_wd`` below its value at ``siv_init``."""
    rng = np.random.default_rng(config.eval_seed)
    runio.write_samples_csv(out / "init_samples.csv", family.siv_sample_batch(init, config.eval_sample_size, rng).x)
    code, rec, _ = evaluate(out / "init_samples.csv", reference, "sliced_wd", out / "evaluate_init.json")
    ledger.count("evaluate_calls", 1, 0 if code == 0 else 1)
    if code == 0:
        before = rec["metrics"]["sliced_wd"]["value"]
        after = metrics["sliced_wd"]["value"]
        record["init_sliced_wd"] = before
        ledger.check("sliced_wd_below_init", after < before, f"{after!r} after vs {before!r} at init")


def run_pass(args, ledger, tracer=None):
    """Set up, train, sample ground truth and evaluate; returns the pass record."""
    seed = args.seed if args.inputs == "seeded" else None
    n = sizes(WORKLOADS[args.workload], args.seconds)
    record = {"workload": args.workload, "seed": seed, "mode": args.mode, "sizes": n}
    out = Path(args.work_dir)
    config, target, init = set_up(args.workload, seed, n, out, tracer)
    record["setup_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    # speed probes spread over the pass; traced passes report no timings
    probes = None if tracer else []
    record["probe_ms"] = probes

    def probe():
        if probes is not None:
            probes.extend(speed_probe() for _ in range(PROBES_AROUND))

    if probes is not None:
        speed_probe()  # warm-up: the first call in a process is a cold start
    probe()
    if tracer:
        tracer.install(target)
    params = train_phase(config, target, init, ledger, record, tracer, probes)
    if params is None:
        return record
    rng = np.random.default_rng(config.eval_seed)
    runio.write_samples_csv(out / "samples.csv", family.siv_sample_batch(params, config.eval_sample_size, rng).x)

    probe()
    run = gt_phase(config, target, ledger, record, tracer)
    if run is None:
        return record
    probe()
    runio.write_samples_csv(out / "ground_truth.csv", run.states)

    try:
        exact = target.sample_exact(config.eval_sample_size, np.random.default_rng(REFERENCE_SEED))
    except NotImplementedError:
        exact = None
    if exact is not None:
        runio.write_samples_csv(out / "reference.csv", exact)
    reference = out / ("reference.csv" if exact is not None else "ground_truth.csv")
    record["reference"] = "sample_exact" if exact is not None else "ground_truth"

    # a seeded pass evaluates once, for its checks; the preset CSVs are the same
    # in every run, so the preset passes give most of evaluate_s's calls
    repeats = 1 if args.mode == "pass" and seed is not None else n["evaluate"]
    metrics = evaluate_phase(out / "samples.csv", reference, repeats, out, ledger, record, tracer, probes)
    if metrics is not None and exact is not None and seed is None:
        init_check(config, init, reference, metrics, out, ledger, record)
    return record


def layer_metrics(tracer, record):
    """Per-layer self times (ms per iteration, step or call) and exact work counts."""
    self_ns, calls, work = tracer.totals()
    n_iter = record["train"]["iterations"]
    n_steps = record["gt"]["steps"]
    n_eval = len(record["evaluate"]["seconds"])

    def ms(root, *names, per=1):
        return sum(self_ns.get((root, name), 0) for name in names) / 1e6 / per

    def count(root, *names, per=1):
        return sum(work.get((root, name), 0) for name in names) / per

    rate = record["gt"]["acceptance_rate"]
    record["gt_targets_split_ms"] = {
        "score": ms("gt", "targets.score", per=n_steps),
        "logp": ms("gt", "targets.logp", per=n_steps),
    }
    record["calls"] = {f"{root}/{name}": c for (root, name), c in sorted(calls.items())}
    return {
        "kernels.bandwidth.ms": ms("train", "kernels.bandwidth", per=n_iter),
        "kernels.gram.ms": ms("train", "kernels.gram", per=n_iter),
        "kernels.grad1.ms": ms("train", "kernels.grad1", per=n_iter),
        "nets.forward.ms": ms("train", "nets.forward", per=n_iter),
        "nets.vjp.ms": ms("train", "nets.vjp", per=n_iter),
        "family.sample.ms": ms("train", "family.sample", per=n_iter),
        "train.targets.score.ms": ms("train", "targets.score", per=n_iter),
        "train.targets.hvp.ms": ms("train", "targets.hvp", per=n_iter),
        "estimators.self.ms": ms("train", "estimators.value_and_grad", "estimators.f_vectors", per=n_iter),
        "optim.adam.ms": ms("train", "optim.adam", per=n_iter),
        "family.unflatten.ms": ms("train", "family.unflatten", per=n_iter),
        "train.loop.self.ms": ms("train", "train", per=n_iter),
        "gt.targets.ms": ms("gt", "targets.score", "targets.logp", per=n_steps),
        "samplers.driver.ms": ms("gt", "gt", per=n_steps),
        "samplers.accept_ratio": 1.0 if rate is None else rate,
        "metrics.mmd2.ms": ms("evaluate", "metrics.mmd2", per=n_eval),
        "metrics.kl_knn.ms": ms("evaluate", "metrics.kl_knn", per=n_eval),
        "metrics.sliced_wd.ms": ms("evaluate", "metrics.sliced_wd", per=n_eval),
        "metrics.corr.ms": ms("evaluate", "metrics.corr", per=n_eval),
        "runio.read.ms": ms("evaluate", "runio.read", per=n_eval),
        "configio.build_target.ms": ms("configio.build_target", "configio.build_target"),
        "targets.points": count("train", "targets.score", "targets.hvp", "targets.logp", per=n_iter),
        "kernels.pairs": count("train", "kernels.gram", "kernels.grad1", per=n_iter),
        "nets.samples": count("train", "nets.forward", "nets.vjp", per=n_iter),
        "samplers.particle_steps": float(record["gt"]["particles"] * n_steps),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", choices=("seeded", "preset"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("pass", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="CLOCK_MONOTONIC when the process was started")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    ledger = Ledger()
    tracer = Tracer() if args.mode == "trace" else None
    record = run_pass(args, ledger, tracer)
    if tracer:
        tracer.uninstall()
        if "error" not in record:
            record["layers"] = layer_metrics(tracer, record)
            record["unmeasured"] = tracer.unmeasured
            tracer.write(Path(args.out).with_suffix(".spans.csv"))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["attempted"] = ledger.attempted
    record["failed"] = ledger.failed
    record["checks"] = ledger.checks
    record["machine"] = {
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "build": runio.build_identifier(),
    }
    Path(args.out).write_text(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
