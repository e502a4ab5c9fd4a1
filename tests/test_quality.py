"""End-to-end quality gate: every preset whose target has an exact sampler, trained briefly, against that sampler.

The rule picks the presets, not a list: a preset is gated when its target
implements ``sample_exact``, so a target that gains an exact sampler brings
its presets in.  Each gated preset trains from its own config, shortened to
``ITERATIONS`` iterations with its annealing ramp shortened in proportion.
Then ``DRAWS`` samples of the trained family meet as many exact draws, and
two checks must hold:

- per axis, the 0.5 and 0.9 quantiles of |x| lie within a factor of
  ``FACTOR`` of the exact ones;
- the mean ksd2 estimate over the last tenth of the iterations is at least 0
  and at most the preset's ``TAIL_KSD2_BOUND``.  The trace records the
  estimator's value with nothing added to it, an unbiased estimate of a
  squared RKHS norm, so a negative mean says the objective is no such norm,
  and a large one says the family stopped far from the target.

Calibration at 1,000 iterations, one BLAS thread, over ``run.seed`` 0-3 (0 is
each preset's own): every preset reads ratios of 0.38 to 1.14.  The closest to
the factor are toy-banana's, down to 0.38, and the w10-imq student-product's,
down to 0.46.  The deleted riesz kernel's student-product presets spread their
samples apart: an axis-0 q50 ratio of 16 to 182, and a tail mean ksd2 of -1.6
to -55.

Over the same seeds the tail mean ksd2 reads 0.27-0.37 for toy-banana,
0.0046-0.013 for toy-multimodal and 0.018-0.021 for toy-xshaped, and at most
0.0023 / 0.0022 / 0.0022 for the w5 / w8 / w10 rbf student-products and
0.00060 / 0.00047 / 0.00044 for the imq ones.  A toy's ``TAIL_KSD2_BOUND`` is
about twice its highest reading.  A student-product's is 1.5 times its
highest, rounded to two digits: at twice, w5-imq's bound (0.0012) would pass
the flipped sign below (0.0011).  At ``run.seed`` 1 the rbf student-products
read -0.00006 to -0.00050, and w8-imq -0.000006, each within one standard
error (about 0.0009 for rbf) of 0.  So the lower end of the check holds at the
preset's own seed, where every student-product reads 0.00008 to 0.00092, and
not at every seed.

With the sign of ``xi / sigma`` flipped in ``family.f_vectors`` (at each
preset's own seed), the toys read 0.30-3.98, above their bounds by a factor of
5.4 (toy-banana) to 14, and the student-products read 0.0057-0.0068 (rbf) and
0.0010-0.0012 (imq), above theirs by 1.27 (w5-imq) to 2.1.  So every gated
preset fails.  The w5 student-products' ratios also move, up to 5.3 for rbf,
while w5-imq's stay inside the factor (2.0 to 3.9).  Trained with a penalty
of weight 0.1 on ``k(x, x) |f|^2``, which pays the family to ignore its mixing
draws, the student-products read 0.044-0.052 and fail these bounds.
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
TAIL_KSD2_BOUND = {
    "student-product-w5-rbf": 0.0034,
    "student-product-w8-rbf": 0.0033,
    "student-product-w10-rbf": 0.0032,
    "student-product-w5-imq": 0.00089,
    "student-product-w8-imq": 0.00071,
    "student-product-w10-imq": 0.00066,
    "toy-banana": 0.74,
    "toy-multimodal": 0.026,
    "toy-xshaped": 0.042,
}


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


def test_every_gated_preset_has_a_calibrated_bound():
    assert set(TAIL_KSD2_BOUND) == set(GATED)


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
    bound = TAIL_KSD2_BOUND[preset]
    assert 0.0 <= tail_ksd2 <= bound, f"mean ksd2 over the last {TAIL} iterations is {tail_ksd2}, not in [0, {bound}]"
