"""The benchmark's set-up and ground-truth phases still run on this package.

``perfbench/workload.py`` resolves each workload's config with
``ExperimentConfig.from_flat``, builds its target with
``configio.build_target`` and reads the fields of ``ExperimentConfig`` and the
seven keys of ``config.sampler``.  Its end-to-end smoke test is slow and lives
outside this suite, so this test loads the module by path and runs ``set_up``
and ``gt_phase`` on every workload, seeded and with the preset's own seeds,
at two sampler steps, and ``train_phase`` at three iterations, which times
each iteration through the training loop's ``iteration_hook`` and digests
the result's ``SIVParams.to_flat`` as the benchmark does.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workload():
    """Import ``workload.py``; its import pins the BLAS thread variables and
    extends ``sys.path``, so both are put back afterwards."""
    environ, path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(PERFBENCH))  # for its ``from tracing import Tracer``
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workload", PERFBENCH / "workload.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    return module


workload = load_workload()


@pytest.mark.parametrize("seed", [3, None], ids=["seeded", "preset"])
@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_set_up_and_ground_truth_run(name, seed, tmp_path):
    sizes = {**workload.sizes(workload.WORKLOADS[name], 1.0), "gt": 2}
    config, target, _ = workload.set_up(name, seed, sizes, tmp_path)
    ledger, record = workload.Ledger(), {}
    assert workload.gt_phase(config, target, ledger, record) is not None, record.get("error")
    assert ledger.attempted["sampler_steps"] == 2
    assert not any(ledger.failed.values()), ledger.failed
    assert record["gt"]["steps"] == 2


@pytest.mark.parametrize("seed", [3, None], ids=["seeded", "preset"])
@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_train_phase_runs(name, seed, tmp_path):
    sizes = {**workload.sizes(workload.WORKLOADS[name], 1.0), "train": 3}
    config, target, init = workload.set_up(name, seed, sizes, tmp_path)
    ledger, record = workload.Ledger(), {}
    assert workload.train_phase(config, target, init, ledger, record) is not None, record.get("error")
    assert ledger.attempted["train_iterations"] == 3
    assert not any(ledger.failed.values()), ledger.failed
    assert record["train"]["iterations"] == 3 and len(record["train"]["iter_ms"]) == 2
