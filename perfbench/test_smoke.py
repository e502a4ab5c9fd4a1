"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/test_smoke.py``.
It checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced run measures every layer of the map, and that the benchmark
refuses to run without the program's sources.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5
SECONDS = "0.5"


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, proc.stdout
    assert line["failed"] == 0 and line["attempted"] >= 1
    return line


def assert_metrics(line, expected):
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    line = result_line(workload, 0)
    assert_metrics(line, SPEC["end_to_end"])
    assert all(m["value"] > 0 for name, m in line["metrics"].items() if name != "mmd2")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_measures_every_layer(workload):
    line = result_line(workload, 1)
    assert_metrics(line, SPEC["per_layer"])
    record = json.loads((ROOT / ".perfbench" / "results" / f"{workload}-seed{SEED}-trace.json").read_text())
    assert record["unmeasured"] == []
    for name, m in line["metrics"].items():
        if name.endswith(".ms") and name != "trace.overhead.ms":
            assert m["value"] > 0, name


def test_layer_map_names_every_per_layer_metric():
    readme = (HERE / "README.md").read_text()
    table = readme[readme.index("## Layer map") :]
    first_cells = re.findall(r"^\|([^|]+)\|", table, flags=re.M)
    named = {name for cell in first_cells for name in re.findall(r"`([^`]+)`", cell)}
    assert {m["name"] for m in SPEC["per_layer"]} <= named


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
