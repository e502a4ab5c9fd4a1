"""End-to-end quality gate: every preset whose target has an exact sampler, trained briefly, against that sampler.

The rule picks the presets, not a list: a preset is gated when its target
implements ``sample_exact``, so a target that gains an exact sampler brings
its presets in.  Each gated preset trains from its own config, shortened to
``ITERATIONS`` iterations with its annealing ramp shortened in proportion.
Then ``DRAWS`` samples of the trained family meet as many exact draws, and
two checks must hold:

- per axis, the 0.5 and 0.9 quantiles of |x| lie within a factor of
  ``FACTOR`` of the exact ones;
- the mean ksd2 estimate over the last tenth of the iterations is at least 0.
  The estimate is unbiased for a squared RKHS norm, so a negative mean says
  the objective is no such norm.

Calibration at 1,000 iterations: every preset reads ratios of 0.33 to 1.07
and a positive tail ksd2.  The closest to the factor are the imq
student-products' axis-0 q90, 0.33 to 0.38, and toy-banana's axis-1 q90,
0.39.  The deleted riesz kernel's student-product presets spread their
samples apart: an axis-0 q50 ratio of 16 to 182, and a tail mean ksd2 of -1.6
to -55.  With the sign of ``xi / sigma`` flipped in ``family.f_vectors``, the
w5 student-products read ratios up to 5.9, and fail.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from ksivi.configio import ExperimentConfig, build_target
from ksivi.family import siv_init, siv_sample_batch
from ksivi.nets import NetArch
from ksivi.presets import PRESET_NAMES, get_preset
from ksivi.targets import TargetModel
from ksivi.train import train

ITERATIONS = 1_000
DRAWS = 20_000
QUANTILES = (0.5, 0.9)
FACTOR = 4.0
TAIL = ITERATIONS // 10


def short_config(name: str) -> ExperimentConfig:
    """The preset's config at ``ITERATIONS`` iterations, logging each, with its annealing ramp scaled to the run."""
    flat = get_preset(name)
    if flat.get("anneal.iterations"):
        flat["anneal.iterations"] = max(1, flat["anneal.iterations"] * ITERATIONS // flat["train.iterations"])
    return ExperimentConfig.from_flat({**flat, "train.iterations": ITERATIONS, "train.log_every": 1})


def has_exact_sampler(target) -> bool:
    return type(target).sample_exact is not TargetModel.sample_exact


def exactly_sampled_presets() -> list[str]:
    """Each preset whose target implements ``sample_exact``."""
    return [
        name
        for name in PRESET_NAMES
        if has_exact_sampler(build_target(ExperimentConfig.from_flat(get_preset(name)), Path()))
    ]


GATED = exactly_sampled_presets()


def test_the_gate_selects_every_preset_with_an_exact_sampler():
    assert GATED and {"toy-banana", "toy-multimodal", "toy-xshaped"} <= set(GATED)
    rng = np.random.default_rng(0)
    for name in PRESET_NAMES:
        target = build_target(ExperimentConfig.from_flat(get_preset(name)), Path())
        if name in GATED:
            assert target.sample_exact(5, rng).shape == (5, target.dim)
        else:
            with pytest.raises(NotImplementedError):
                target.sample_exact(5, rng)


def short_run(name: str) -> tuple[np.ndarray, float]:
    """A short run's per-axis |x| quantile ratios against exact draws, one row per quantile, and its tail mean ksd2."""
    config = short_config(name)
    target = build_target(config, Path())
    params, trace = train(config.train, target, siv_init(NetArch(config.widths), config.init_seed, config.rho_init))
    fitted = siv_sample_batch(params, DRAWS, np.random.default_rng(config.eval_seed)).x
    exact = target.sample_exact(DRAWS, np.random.default_rng(config.flat["sampler.seed"]))
    ratios = np.quantile(np.abs(fitted), QUANTILES, axis=0) / np.quantile(np.abs(exact), QUANTILES, axis=0)
    return ratios, float(np.mean(trace.ksd2[-TAIL:]))


@pytest.mark.parametrize("preset", GATED)
def test_a_short_run_matches_the_exact_sampler(preset):
    ratios, tail_ksd2 = short_run(preset)
    assert np.all((1.0 / FACTOR <= ratios) & (ratios <= FACTOR)), f"|x| quantile ratios {QUANTILES}:\n{ratios}"
    assert tail_ksd2 >= 0.0, f"mean ksd2 over the last {TAIL} iterations is {tail_ksd2}"
