"""Run artifacts: sample CSVs, training traces, checkpoints, manifests.

ksivi reads back only sample CSVs (``evaluate``); traces, checkpoints and
manifests are written, not read.  Floats are rendered with 17 significant
digits everywhere, which round-trips float64 exactly, so rereading any
written artifact reproduces the original values bit for bit.
"""

from __future__ import annotations

import base64
import json
import subprocess
import warnings
from pathlib import Path

import numpy as np

from .family import SIVParams

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
    """``train``'s trace as CSV: the row index as ``iteration``, then its fields in order.

    The kernel scale column is named ``scale_name`` (``kernels.SCALE_NAMES``).
    """
    columns = ["iteration", "ksd2", scale_name, "beta_temp", "grad_norm"]
    data = np.column_stack([np.arange(len(trace)), *(trace[name] for name in trace.dtype.names)])
    fmt = ["%d"] + [FLOAT_FMT] * (len(columns) - 1)
    np.savetxt(path, data, delimiter=",", header=",".join(columns), comments="", fmt=fmt)


def save_checkpoint(path, params: SIVParams) -> None:
    """Architecture header plus the full flat parameter vector.

    The payload is the parameter buffer ``params.flat`` as it is stored (the
    layout of ``nets.layer_views``: network weights and biases layer by
    layer, then the log-scales), as little-endian float64 bytes in base64.
    No ksivi command reads the file back: the v2 format that resuming needs
    (ROADMAP item 7) brings the one reader.
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
