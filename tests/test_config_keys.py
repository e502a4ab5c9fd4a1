"""Every config key a run can set is set by a preset or a benchmark workload, or is named with a reason.

A key that nothing sets is a knob no shipped run turns, and so one that no
result checks.  A new key needs a preset or a workload that sets it, or an
entry in ``UNSET_KEYS`` that says why it stays at its default.  The keys a
run can set are those of the schema (``configio.KEYS``, ``SEED_OFFSETS`` and
every target's ``TARGET_KEYS``) and those a preset's resolved config holds.
"""

from ksivi.configio import KEYS, SEED_OFFSETS, TARGET_KEYS, ExperimentConfig
from ksivi.presets import PRESET_NAMES, get_preset

from test_benchmark_workload import workload  # perfbench/workload.py, loaded by path

DERIVED_SEED = "derived from run.seed; set only to rerun one random stream apart from the others"
UNSET_KEYS = {
    "run.threads": "pins the BLAS thread count, a property of the machine; --threads sets it per command",
    "train.estimator": "the U-statistic in place of the two-batch estimator; test_train_reference checks both",
    "train.log_every": "thins the trace of a long run; presets and workloads log every iteration",
    "sampler.n_particles": "every preset and workload samples the default 1,000 particles",
    "eval.sample_size": "every preset and workload draws the default 1,000 samples",
    **dict.fromkeys(SEED_OFFSETS, DERIVED_SEED),
    "target.data_path": "reads a real blr dataset; the preset and workload generate theirs from target.data_seed",
    "target.mean": "the diagonal Gaussian target, which no preset trains on; tests use its known moments",
    "target.variances": "the diagonal Gaussian target, which no preset trains on; tests use its known moments",
}


def settable_keys() -> set:
    schema = {*KEYS, *SEED_OFFSETS, *(f"target.{key}" for keys in TARGET_KEYS.values() for key in keys)}
    return schema.union(*(ExperimentConfig.from_flat(get_preset(name)).flat for name in PRESET_NAMES))


def keys_set() -> set:
    """The keys some preset or some workload's flat config sets, seeded or with the preset's own seeds."""
    flats = [get_preset(name) for name in PRESET_NAMES]
    for name, spec in workload.WORKLOADS.items():
        flats += [workload.workload_flat(name, seed, workload.sizes(spec, 1.0)) for seed in (3, None)]
    return set().union(*flats)


def test_every_key_is_set_or_named():
    assert sorted(settable_keys() - keys_set() - set(UNSET_KEYS)) == []


def test_every_named_key_exists_and_is_unset():
    assert sorted(set(UNSET_KEYS) - settable_keys()) == []
    assert sorted(set(UNSET_KEYS) & keys_set()) == []
