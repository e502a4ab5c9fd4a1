"""Every config key and command-line flag is turned by a preset or a benchmark workload, or is named with a reason.

A key that nothing sets is a knob no shipped run turns, and so one that no
result checks.  A new key needs a preset or a workload that sets it, or an
entry in ``UNSET_KEYS`` that says why it stays at its default.  The keys a
run can set are those of the schema (``configio.KEYS`` and every target's
``TARGET_KEYS``) and those a preset's resolved config holds.

The settings built from a config hold no field that only code can set
unnoticed: each field of ``TrainConfig`` and ``SamplerConfig`` is read from
a schema key through ``TRAIN_FIELDS`` or ``SAMPLER_FIELDS``, or is named in
``UNKEYED_FIELDS`` with a reason.

The same rule holds for the flags: every option of every subcommand of
``cli.build_parser()`` is passed by a workload's command line, or is named in
``UNSET_FLAGS`` with a reason.
"""

import argparse

from dataclasses import fields

from ksivi.cli import build_parser
from ksivi.configio import KEYS, SAMPLER_FIELDS, TARGET_KEYS, TRAIN_FIELDS, ExperimentConfig
from ksivi.presets import PRESET_NAMES, get_preset
from ksivi.samplers import SamplerConfig
from ksivi.train import TrainConfig

from test_benchmark_workload import workload  # perfbench/workload.py, loaded by path

UNSET_KEYS = {
    "run.threads": "pins the BLAS thread count, a property of the machine; --threads sets it per command",
    "train.estimator": "the U-statistic in place of the two-batch estimator; test_train_reference checks both",
    "sampler.n_particles": "sizes ground_truth.csv, the reference that evaluate reads; CLI tests run 5-40 particles",
    "eval.sample_size": "sizes samples.csv, the fitted family's draw that evaluate reads; TINY_CONFIG draws 50",
    "target.data_path": "reads a real blr dataset; the preset and workload generate theirs from target.data_seed",
}


def settable_keys() -> set:
    schema = {*KEYS, *(f"target.{key}" for keys in TARGET_KEYS.values() for key in keys)}
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


GT_PHASE_PASSES = "perfbench/workload.py's gt_phase passes it; a run keeps only final states and refuses all but the default"
DERIVED_SEED = "derived from run.seed by configio.SEED_OFFSETS, so no key sets it apart from the other streams"
UNKEYED_FIELDS = {
    "SamplerConfig.burn_in": GT_PHASE_PASSES,
    "SamplerConfig.thin": GT_PHASE_PASSES,
    "TrainConfig.seed": DERIVED_SEED,
    "SamplerConfig.seed": DERIVED_SEED,
}


def keyed_fields() -> set:
    """The settings fields a schema key reaches through the field tables."""
    schema = set(KEYS)
    tables = {TrainConfig: TRAIN_FIELDS, SamplerConfig: SAMPLER_FIELDS}
    return {f"{cls.__name__}.{field}" for cls, table in tables.items() for field, key in table.items() if key in schema}


def test_every_settings_field_is_keyed_or_named():
    settings = {f"{cls.__name__}.{field.name}" for cls in (TrainConfig, SamplerConfig) for field in fields(cls)}
    assert sorted(settings - keyed_fields() - set(UNKEYED_FIELDS)) == []
    assert sorted((keyed_fields() | set(UNKEYED_FIELDS)) - settings) == []
    assert sorted(keyed_fields() & set(UNKEYED_FIELDS)) == []


# the workloads call train's and sample-ground-truth's functions, not the commands, so they pass no flag of either
RUN_FLAGS = {
    "--preset": "runs a shipped preset by name, without a config file",
    "--out": "names the run directory; the default, runs/<experiment>, is overwritten by the next run of it",
    "--data-dir": "where a relative target.data_path is read from; refused where no data file is named",
    "--seed": "replaces run.seed, which seeds every stream, so a run repeats at another seed without a new config",
    "--threads": "replaces run.threads, a property of the machine, and config.txt records it",
}
UNSET_FLAGS = {
    f"{command} {flag}": reason for command in ("train", "sample-ground-truth") for flag, reason in RUN_FLAGS.items()
}


def flags() -> set:
    """Every option of every subcommand, as ``"command --flag"``; argparse's ``--help`` aside."""
    parser = build_parser()
    subcommands = next(action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return {
        f"{command} {action.option_strings[-1]}"
        for command, subparser in subcommands.items()
        for action in subparser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def flags_passed(monkeypatch) -> set:
    """The flags of the one command a workload runs through ``cli.main``, ``evaluate``."""
    argvs = []
    monkeypatch.setattr(workload.cli, "main", lambda argv: argvs.append(argv) or 2)
    workload.evaluate("a.csv", "b.csv", workload.EVAL_METRICS, "evaluate.json")
    return {f"{argv[0]} {arg}" for argv in argvs for arg in argv[1:] if arg.startswith("--")}


def test_every_flag_is_passed_or_named(monkeypatch):
    assert sorted(flags() - flags_passed(monkeypatch) - set(UNSET_FLAGS)) == []


def test_every_named_flag_exists_and_is_unpassed(monkeypatch):
    assert sorted(set(UNSET_FLAGS) - flags()) == []
    assert sorted(set(UNSET_FLAGS) & flags_passed(monkeypatch)) == []
