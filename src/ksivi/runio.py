"""Run artifacts: sample CSVs, loss traces, checkpoints, manifests.

Floats are rendered with 17 significant digits everywhere, which round-trips
float64 exactly, so rereading any written artifact reproduces the original
values bit for bit.
"""

from __future__ import annotations

import base64
import json
import subprocess
import warnings
from pathlib import Path

import numpy as np

from .family import SIVParams
from .nets import NetArch

CHECKPOINT_FORMAT = "siv-checkpoint-v1"
FLOAT_FMT = "%.17g"


def write_samples_csv(path, samples: np.ndarray) -> None:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("sample sets are 2-D arrays")
    np.savetxt(path, samples, delimiter=",", fmt=FLOAT_FMT)


def read_csv_rows(source, **kwargs) -> np.ndarray:
    """``np.loadtxt(source, delimiter=",", **kwargs)`` that refuses a file without rows.

    An empty file raises "no data rows" rather than warning, and a malformed
    row's error drops numpy's advice on ``usecols``, which does not apply to
    ksivi's files.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(source, delimiter=",", **kwargs)
        except ValueError as err:
            raise ValueError(str(err).partition("; use `usecols`")[0]) from None
    if len(data) == 0:
        raise ValueError("no data rows")
    return data


def read_samples_csv(path) -> np.ndarray:
    data = read_csv_rows(path, dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(data)):
        raise ValueError("non-finite value in a sample set")
    return data


def write_trace_csv(path, trace, include_wallclock: bool = False) -> None:
    """Loss trace as CSV; the wallclock column is opt-in because it breaks
    bit-identical reruns."""
    columns = ["iteration", "ksd2", "bandwidth", "beta_temp", "grad_norm"]
    values = [trace.iterations, trace.ksd2, trace.bandwidth, trace.beta_temp, trace.grad_norm]
    if include_wallclock:
        columns.append("wallclock_ms")
        values.append(trace.wallclock_ms)
    data = np.array(values, dtype=np.float64).T  # (rows, columns), also for an empty trace
    fmt = ["%d"] + [FLOAT_FMT] * (len(columns) - 1)
    np.savetxt(path, data, delimiter=",", header=",".join(columns), comments="", fmt=fmt)


def save_checkpoint(path, params: SIVParams) -> None:
    """Architecture header plus the full flat parameter vector.

    The payload is the parameter buffer ``params.flat`` as it is stored (the
    layout of ``nets.layer_views``: network weights and biases layer by
    layer, then the log-scales), as little-endian float64 bytes in base64.
    """
    flat = params.flat
    payload = flat.astype("<f8").tobytes()
    doc = {
        "format": CHECKPOINT_FORMAT,
        "widths": list(params.arch.widths),
        "n_params": int(flat.size),
        "dtype": "<f8",
        "flat_base64": base64.b64encode(payload).decode("ascii"),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> SIVParams:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"unreadable checkpoint {path}: {err}")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unknown checkpoint format {doc.get('format')!r}")
    arch = NetArch(tuple(doc["widths"]))
    flat = np.frombuffer(base64.b64decode(doc["flat_base64"]), dtype="<f8").astype(np.float64)
    if flat.size != doc["n_params"]:
        raise ValueError(f"{path}: payload length {flat.size} != header {doc['n_params']}")
    return SIVParams.from_flat(arch, flat)


def build_identifier() -> str:
    from . import __version__

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        ).stdout.strip()
    except Exception:
        commit = ""
    return f"ksivi-{__version__}" + (f"+{commit}" if commit else "")


def write_manifest(path, record: dict) -> None:
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
