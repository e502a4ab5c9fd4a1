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
CHECKPOINT_DTYPE = "<f8"
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


def write_trace_csv(path, trace, scale_name: str) -> None:
    """Loss trace as CSV, its kernel scale column named ``scale_name`` (``KernelSpec.parameter``)."""
    columns = ["iteration", "ksd2", scale_name, "beta_temp", "grad_norm"]
    values = [trace.iterations, trace.ksd2, trace.scale, trace.beta_temp, trace.grad_norm]
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
    payload = flat.astype(CHECKPOINT_DTYPE).tobytes()
    doc = {
        "format": CHECKPOINT_FORMAT,
        "widths": list(params.arch.widths),
        "n_params": int(flat.size),
        "dtype": CHECKPOINT_DTYPE,
        "flat_base64": base64.b64encode(payload).decode("ascii"),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> SIVParams:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"unreadable checkpoint {path}: {err}")
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a checkpoint is a JSON object, not a {type(doc).__name__}")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unknown checkpoint format {doc.get('format')!r}")
    missing = [key for key in ("widths", "n_params", "dtype", "flat_base64") if key not in doc]
    if missing:
        raise ValueError(f"{path}: checkpoint field {missing[0]!r} is missing")
    if doc["dtype"] != CHECKPOINT_DTYPE:
        raise ValueError(f"{path}: checkpoint dtype {doc['dtype']!r} is not {CHECKPOINT_DTYPE!r}")
    widths, n_params, payload = doc["widths"], doc["n_params"], doc["flat_base64"]

    def bad(field, problem):
        return ValueError(f"{path}: checkpoint field {field!r} {problem}")

    # json gives int for an integer and bool for true and false
    if type(widths) is not list or any(type(w) is not int for w in widths):
        raise bad("widths", f"is {widths!r}, not a list of integers")
    if type(n_params) is not int:
        raise bad("n_params", f"is {n_params!r}, not an integer")
    try:  # a payload that is not a string, is not base64, or is not whole float64 values
        flat = np.frombuffer(base64.b64decode(payload, validate=True), dtype=CHECKPOINT_DTYPE).astype(np.float64)
    except (TypeError, ValueError) as err:
        raise bad("flat_base64", f"does not decode: {err}") from None
    if flat.size != n_params:
        raise bad("n_params", f"is {n_params}, but the payload holds {flat.size} values")
    non_finite = np.flatnonzero(~np.isfinite(flat))  # a diverged network, whose norms would read inf or skip a NaN
    if non_finite.size:
        raise bad("flat_base64", f"holds a non-finite value at index {non_finite[0]}")
    try:  # too few widths, one below 1, or a parameter count that is not the payload's
        return SIVParams.from_flat(NetArch(tuple(widths)), flat)
    except ValueError as err:
        raise bad("widths", f"is {widths}: {err}") from None


def build_identifier() -> str:
    """``ksivi-<version>+<commit>``, the commit marked ``.dirty`` when ``git
    status`` lists any change in the checkout; where git fails, no commit or
    no mark."""
    from . import __version__

    def git(*args):  # its output, or "" where git is missing, hangs or fails
        try:
            run = subprocess.run(["git", *args], cwd=Path(__file__).parent, capture_output=True, text=True, timeout=5)
        except (OSError, subprocess.SubprocessError):
            return ""
        return run.stdout.strip() if run.returncode == 0 else ""

    commit = git("rev-parse", "--short", "HEAD")
    dirty = ".dirty" if commit and git("status", "--porcelain") else ""
    return f"ksivi-{__version__}" + (f"+{commit}{dirty}" if commit else "")


def write_manifest(path, record: dict) -> None:
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
