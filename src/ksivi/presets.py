"""Shipped experiment presets.

Each preset is a flat config dict mirroring the benchmark settings the
package reproduces: the three 2-D toy densities, the heavy-tailed product at
several edge widths (an ablation of the rbf kernel against the imq kernel),
Bayesian logistic regression on waveform-style data, and the conditioned
diffusion path posterior at three dimensionalities.
"""

from __future__ import annotations

import math

from .configio import ConfigError

# Settings every preset shares unless it sets its own; a key left out takes
# its default in ``configio.KEYS``.
_SHARED = {
    "train.batch_size": 100,
    "train.learning_rate": 0.001,
}


def _toy(name, target, rho, anneal=False):
    flat = {
        **_SHARED,
        "experiment.name": name,
        "target.name": target,
        "arch.widths": [3, 50, 50, 2],
        "init.rho": rho,
        "train.iterations": 50_000,
        "sampler.n_steps": 20_000,
        "sampler.step_size": 0.005,
    }
    if anneal:
        flat["anneal.start"] = 0.2
        flat["anneal.iterations"] = 25_000
    return flat


def _student(width, kernel_family):
    return {
        **_SHARED,
        "experiment.name": f"student-product-w{width}-{kernel_family}",
        "target.name": "student_product",
        "target.nu": 2.0,
        "target.width": float(width),
        "target.dim": 2,
        "arch.widths": [3, 50, 50, 2],
        "init.rho": 0.0,
        "train.iterations": 20_000,
        "kernel.family": kernel_family,
        "sampler.n_steps": 20_000,
        "sampler.step_size": 0.01,
    }


def _blr():
    return {
        **_SHARED,
        "experiment.name": "blr-waveform",
        "target.name": "blr",
        "target.synthetic_rows": 1000,
        "target.data_seed": 7,
        "target.alpha": 0.01,
        "arch.widths": [10, 100, 100, 22],
        "init.rho": -2.5,  # initial squared scale exp(-5)
        "train.iterations": 20_000,
        "sampler.n_steps": 400_000,
        "sampler.step_size": 0.0001,
    }


def _cd(dim):
    return {
        **_SHARED,
        "experiment.name": f"cd-dim{dim}",
        "target.name": "conditioned_diffusion",
        "target.obs_seed": 42,
        "target.n_steps": dim,
        "target.dt": 1.0 / dim,
        "target.obs_stride": 5,
        "arch.widths": [dim, 128, 128, dim],
        "init.rho": -1.0,  # initial squared scale exp(-2)
        "train.iterations": 100_000,
        "train.batch_size": 128,
        "train.learning_rate": 0.0002,
        "sampler.n_steps": 100_000,
        "sampler.step_size": 0.0001,
    }


def _build_table():
    table = {
        "toy-banana": _toy("toy-banana", "banana", math.log(0.5)),
        "toy-multimodal": _toy("toy-multimodal", "multimodal", 0.0, anneal=True),
        "toy-xshaped": _toy("toy-xshaped", "xshaped", 0.0),
        "blr-waveform": _blr(),
    }
    for width in (5, 8, 10):
        for family in ("rbf", "imq"):
            preset = _student(width, family)
            table[preset["experiment.name"]] = preset
    for dim in (50, 100, 200):
        table[f"cd-dim{dim}"] = _cd(dim)
    return table


_TABLE = _build_table()

PRESET_NAMES = tuple(sorted(_TABLE))


def get_preset(name: str) -> dict:
    if name not in _TABLE:
        raise ConfigError("preset", f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return dict(_TABLE[name])
