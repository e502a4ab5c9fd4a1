import base64
import json
import math
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ksivi
from ksivi.cli import build_parser, main
from ksivi.configio import (
    KEYS,
    SEED_OFFSETS,
    TRAIN_FIELDS,
    ConfigError,
    ExperimentConfig,
    build_target,
    format_config,
    parse_config_text,
    validate_against_target,
)
from ksivi.family import SIVParams, siv_init, siv_sample_batch
from ksivi.nets import NetArch
from ksivi.presets import PRESET_NAMES, get_preset
from ksivi.runio import (
    build_identifier,
    read_samples_csv,
    save_checkpoint,
    write_samples_csv,
    write_trace_csv,
)
from ksivi.samplers import RUNNERS, SamplerConfig
from ksivi.targets import Banana
from ksivi.train import TRACE_FIELDS, TrainConfig, train

from helpers import write_waveform_csv

# kernel keys outside the schema, whose one kernel key is kernel.family: a misspelling, the smoothing of
# the deleted riesz kernel, the rule and fixed bandwidth of the deleted bandwidth rules (an rbf bandwidth
# is always the median), and the deleted imq offset (imq always reads its default)
UNKNOWN_KERNEL_KEYS = [
    "kernel.width",
    "kernel.smoothing",
    "kernel.bandwidth_rule",
    "kernel.bandwidth",
    "kernel.offset",
]

TINY_CONFIG = """
experiment.name = "tiny"
target.name = "banana"
arch.widths = [3, 8, 2]
init.rho = 0.0
train.iterations = 20
train.batch_size = 8
train.learning_rate = 0.001
eval.sample_size = 50
run.seed = 1
"""


def assert_records_memory(section, *keys):
    """The run's ``resource`` figures are in ``section`` where ``resource`` imports,
    its peak resident size in MB as this process reads it now, and absent elsewhere."""
    try:
        import resource
    except ImportError:
        assert not set(keys) & set(section)
        return
    assert set(keys) <= set(section)
    if "peak_rss_mb" in keys:
        assert 0.0 < section["peak_rss_mb"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# config values for the format_config -> parse_config_text round trip; lone
# surrogates are left out, as no UTF-8 file can hold them
_FLOATS = st.floats(allow_nan=False) | st.sampled_from([-0.0, 1e-300, 5e-324, 2.5e-310])
_STRINGS = st.text(st.sampled_from('"\\\x7f\x00\t\n\u00e9\u4e2d\U0001f600') | st.characters(exclude_categories=["Cs"]))
_SCALARS = st.booleans() | st.integers(-(2**63), 2**63 - 1) | _FLOATS | _STRINGS


class TestConfigFormat:
    def test_round_trip(self):
        flat = parse_config_text(TINY_CONFIG)
        again = parse_config_text(format_config(flat))
        assert again == flat

    def test_value_types(self):
        flat = parse_config_text(
            't.s = "hello"\nt.i = 3\nt.f = 2.5\nt.b = true\nt.l = [1, 2.5, "x"]\nt.e = []\n'
        )
        assert flat == {"t.s": "hello", "t.i": 3, "t.f": 2.5, "t.b": True, "t.l": [1, 2.5, "x"], "t.e": []}

    def test_comments_and_blanks(self):
        flat = parse_config_text("# header\n\na.b = 1\n  # indented comment\n")
        assert flat == {"a.b": 1}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match=r"Cannot overwrite a value \(at line 2"):
            parse_config_text("a.b = 1\na.b = 2\n")

    def test_quoted_dotted_key_is_a_duplicate(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text('"a.b" = 1\na.b = 2\n')

    @pytest.mark.parametrize(
        "text, flat",
        [
            ("train.iterations = 10  # short\n", {"train.iterations": 10}),
            ("[train]\niterations = 10\nbatch_size = 8\n", {"train.iterations": 10, "train.batch_size": 8}),
            ('experiment.name = "a \\"b\\" \\\\ \\u00e9"\n', {"experiment.name": 'a "b" \\ \u00e9'}),
        ],
        ids=["inline-comment", "table-header", "escaped-string"],
    )
    def test_toml_forms_give_dotted_keys(self, text, flat):
        assert parse_config_text(text) == flat

    @pytest.mark.parametrize("preset", ["cd-dim200", "toy-multimodal"])
    def test_written_config_snapshot(self, preset):
        # config.txt as ksivi train --preset wrote it with the hand-written reader, before TOML,
        # less the three kernel keys that no preset reads and sampler.burn_in and sampler.thin, which no run reads,
        # less the penalty's weight key, which left the schema with the penalty: training descends the
        # discrepancy alone, less kernel.bandwidth_rule and output.trace_wallclock, which left with
        # the bandwidth rules and the trace's clock column, less the trace's cadence key: the trace
        # holds every iteration, and less the four stream seeds, which run.seed alone sets
        text = (Path(__file__).parent / "data" / f"config_{preset}.txt").read_text()
        flat = parse_config_text(text)
        assert flat == ExperimentConfig.from_flat(get_preset(preset)).flat
        assert format_config(flat) == text

    @given(
        st.dictionaries(
            st.from_regex(r"[a-z][a-z0-9_]{0,5}\.[a-z][a-z0-9_]{0,5}", fullmatch=True),
            _SCALARS | st.lists(_SCALARS, max_size=4),
            max_size=6,
        )
    )
    @example({"a.s": 'q"uo\\te \x7f \u00e9\U0001f600', "a.f": [-0.0, 1e-300, 5e-324, float("inf")], "b.z": -0.0})
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_format_parse_round_trip(self, flat):
        text = format_config(flat)
        assert parse_config_text(text) == flat
        assert format_config(parse_config_text(text)) == text  # also tells -0.0 from 0.0 and true from 1

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("not a key value line\n")

    def test_missing_required_named(self):
        with pytest.raises(ConfigError, match="target.name"):
            ExperimentConfig.from_flat({"arch.widths": [3, 2]})

    def test_unknown_keys_rejected_and_named(self):
        flat = get_preset("toy-multimodal")
        flat["anneal.strat"] = 0.5
        flat["train.learning_rte"] = 1.0
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_flat(flat)
        assert err.value.fieldname == "anneal.strat, train.learning_rte"
        # a target.* key must be one of the named target's own
        for preset, key in (
            ("toy-multimodal", "target.extra"),
            ("student-product-w5-rbf", "target.widht"),
            ("cd-dim50", "target.obs_path"),  # the observations are generated, never read
        ):
            flat = get_preset(preset)
            flat[key] = 5.0
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_flat(flat)
            assert err.value.fieldname == key

    @pytest.mark.parametrize(
        "key, value",
        [("train.iterations", True), ("train.learning_rate", True), ("arch.widths", [3, True, 2])],
    )
    def test_booleans_are_not_numbers(self, key, value):
        flat = parse_config_text(TINY_CONFIG)
        flat[key] = value
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_flat(flat)
        assert err.value.fieldname == key

    def test_resolved_flat_holds_every_key(self):
        resolved = ExperimentConfig.from_flat(parse_config_text(TINY_CONFIG)).flat
        # banana has no target.* keys of its own, and its rbf kernel reads none
        assert set(resolved) == set(KEYS)
        assert resolved["sampler.n_steps"] == KEYS["sampler.n_steps"][1]
        flat = get_preset("blr-waveform")  # sets target.synthetic_rows, so an unset target.data_path is left out
        resolved = ExperimentConfig.from_flat(flat).flat
        target_keys = {"target.synthetic_rows", "target.data_seed", "target.alpha"}
        assert set(resolved) == set(KEYS) | target_keys
        assert resolved["target.alpha"] == 0.01

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    def test_each_stream_seed_is_run_seed_plus_its_offset(self, seed):
        config = ExperimentConfig.from_flat({**parse_config_text(TINY_CONFIG), "run.seed": seed})
        streams = [config.init_seed, config.train.seed, config.eval_seed, config.sampler["seed"]]
        assert streams == [seed, seed + 1, seed + 2, seed + 3]
        assert {key for key in config.flat if key.endswith(".seed")} == {"run.seed"}  # config.txt lists run.seed alone

    @pytest.mark.parametrize("preset", ["cd-dim200", "toy-multimodal"])
    def test_an_older_config_listing_the_stream_seeds_is_refused_by_name(self, preset):
        # config.txt listed the four stream seeds until run.seed alone set them
        flat = parse_config_text((Path(__file__).parent / "data" / f"config_{preset}.txt").read_text())
        older = {**flat, **{f"{stream}.seed": flat["run.seed"] + k for stream, k in SEED_OFFSETS.items()}}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_flat(older)
        assert err.value.fieldname == "eval.seed, init.seed, sampler.seed, train.seed"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("train.batch_size", 1, "must be at least 2"),
            ("anneal.start", 0.0, "must lie in (0, 1]"),
        ],
    )
    def test_rejected_settings_name_their_key(self, key, value, message):
        flat = parse_config_text(TINY_CONFIG)
        flat[key] = value
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_flat(flat)
        assert str(err.value) == f"{key}: {message}"

    @pytest.mark.parametrize("key", ["train.learning_rate", "sampler.step_size", "init.rho", "anneal.start"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_floats_rejected(self, key, value):
        # nan fails every comparison, so a range check such as learning_rate's "<= 0" lets it through; each float
        # key is refused as non-finite first, even anneal.start, whose (0, 1] check would refuse nan by range
        flat = parse_config_text(TINY_CONFIG)
        flat[key] = value
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_flat(flat)
        assert str(err.value) == f"{key}: expected a finite float, got {value}"

    @pytest.mark.parametrize("family", ["rbf", "imq"])
    def test_a_kernel_is_built_from_its_family_alone(self, family):
        # imq trains at its default offset; the rbf bandwidth is replaced by the median every iteration
        flat = {**parse_config_text(TINY_CONFIG), "kernel.family": family}
        assert ExperimentConfig.from_flat(flat).train.kernel_family == family

    @pytest.mark.parametrize("value", [1.0, 0.0, float("nan"), float("inf")])
    def test_an_imq_offset_is_refused_as_unknown_at_any_value(self, value):
        # an older imq config.txt lists kernel.offset; no value is checked, so a bad one is refused the same way
        flat = {**parse_config_text(TINY_CONFIG), "kernel.family": "imq", "kernel.offset": value}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_flat(flat)
        assert str(err.value) == "kernel.offset: unknown key"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_list_items_rejected(self, value):
        flat = {**parse_config_text(TINY_CONFIG), "arch.widths": [3, value, 2]}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_flat(flat)
        assert str(err.value) == "arch.widths: expected int, got float"

    @pytest.mark.parametrize("settings", [{}, {"target.mean": [0.0, 1.0], "target.variances": [1.0, 2.0]}])
    def test_gaussian_is_an_unknown_target(self, settings):
        # the diagonal Gaussian is a test fixture (targets.diagonal_gaussian), not a config target
        flat = {**parse_config_text(TINY_CONFIG), "target.name": "gaussian", **settings}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_flat(flat)
        assert str(err.value) == "target.name: unknown target 'gaussian'"

    def test_width_mismatch_named_field(self):
        flat = parse_config_text(TINY_CONFIG)
        flat["arch.widths"] = [3, 8, 5]
        config = ExperimentConfig.from_flat(flat)
        target = build_target(config, ".")
        with pytest.raises(ConfigError, match="arch.widths"):
            validate_against_target(config, target)


class TestPresetFidelity:
    def test_all_presets_parse(self):
        for name in PRESET_NAMES:
            config = ExperimentConfig.from_flat(get_preset(name))
            assert config.name == name

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_changing_a_returned_preset_leaves_the_next_one_as_it_was(self, name):
        written = format_config(get_preset(name))
        flat = get_preset(name)
        for value in flat.values():
            if isinstance(value, list):
                value.append(9)
        flat["train.iterations"] = 1
        assert format_config(get_preset(name)) == written

    def test_toy_settings(self):
        for name in ("toy-banana", "toy-multimodal", "toy-xshaped"):
            flat = get_preset(name)
            assert flat["train.iterations"] == 50_000
            assert flat["train.learning_rate"] == 0.001
            assert flat["arch.widths"] == [3, 50, 50, 2]
            assert ExperimentConfig.from_flat(flat).flat["eval.sample_size"] == 1000
        assert get_preset("toy-banana")["init.rho"] == math.log(0.5)
        assert get_preset("toy-multimodal")["init.rho"] == 0.0
        assert get_preset("toy-multimodal")["anneal.start"] == 0.2

    def test_blr_settings(self):
        flat = get_preset("blr-waveform")
        assert flat["train.iterations"] == 20_000
        assert flat["train.batch_size"] == 100
        assert flat["train.learning_rate"] == 0.001
        assert flat["arch.widths"] == [10, 100, 100, 22]
        assert flat["init.rho"] == -2.5
        assert flat["sampler.n_steps"] == 400_000
        assert ExperimentConfig.from_flat(flat).flat["sampler.n_particles"] == 1000
        assert flat["sampler.step_size"] == 0.0001

    def test_cd_settings(self):
        flat = get_preset("cd-dim100")
        assert flat["train.iterations"] == 100_000
        assert flat["train.batch_size"] == 128
        assert flat["train.learning_rate"] == 0.0002
        assert flat["arch.widths"] == [100, 128, 128, 100]
        assert flat["init.rho"] == -1.0
        assert flat["target.dt"] == 0.01
        assert flat["sampler.n_steps"] == 100_000
        for dim in (50, 200):
            flat = get_preset(f"cd-dim{dim}")
            assert flat["arch.widths"] == [dim, 128, 128, dim]
            assert flat["target.n_steps"] == dim

    def test_student_settings(self):
        for width in (5, 8, 10):
            rbf = get_preset(f"student-product-w{width}-rbf")
            imq = get_preset(f"student-product-w{width}-imq")
            assert rbf["target.width"] == imq["target.width"] == float(width)
            assert rbf["kernel.family"] == "rbf"
            assert imq["kernel.family"] == "imq"
            # the ablation changes the kernel alone
            assert {key for key in rbf.keys() | imq.keys() if rbf.get(key) != imq.get(key)} == {
                "experiment.name",
                "kernel.family",
            }


def target_arrays(target):
    """The arrays a built target is made of, and its log-density at a fixed batch."""
    x = np.random.default_rng(0).standard_normal((4, target.dim))
    if hasattr(target, "design"):
        return [target.design, target.labels, target.logp(x)]
    return [target.obs_indices, target.observations, target.logp(x)]


def array_digest(arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


class TestTargetsFromKeys:
    """A target is built from its ``target.*`` keys alone, and no build writes a file."""

    def plant_stale_files(self, data_dir):
        """Files under the names the blr and cd-dim50 presets once wrote on first use and read back after."""
        data_dir.mkdir()
        write_waveform_csv(data_dir / "waveform.csv", 40, 99)
        (data_dir / "cd_obs_dim50.csv").write_text("index,value\n5,0.25\n10,-0.5\n")
        return {path.name: path.read_bytes() for path in data_dir.iterdir()}

    @pytest.mark.parametrize(
        "preset, key, value",
        [
            ("cd-dim50", "target.obs_seed", 7),
            ("cd-dim50", "target.obs_stride", 3),
            ("cd-dim50", "target.n_steps", 40),
            ("cd-dim50", "target.dt", 0.01),
            ("blr-waveform", "target.synthetic_rows", 300),
            ("blr-waveform", "target.data_seed", 99),
            ("blr-waveform", "target.alpha", 0.1),
        ],
    )
    def test_every_key_changes_the_target_and_no_file_does(self, tmp_path, preset, key, value):
        data_dir = tmp_path / "data"
        planted = self.plant_stale_files(data_dir)
        flat = get_preset(preset)
        base = target_arrays(build_target(ExperimentConfig.from_flat(flat), data_dir))
        clean = target_arrays(build_target(ExperimentConfig.from_flat(flat), tmp_path / "none"))
        changed = target_arrays(build_target(ExperimentConfig.from_flat({**flat, key: value}), data_dir))
        assert array_digest(base) == array_digest(clean)
        assert array_digest(changed) != array_digest(base)
        assert {path.name: path.read_bytes() for path in data_dir.iterdir()} == planted
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize(
        "preset, digest",
        [
            ("blr-waveform", "dd82916f66f687f2"),
            ("cd-dim50", "7ea2c5b5aa5dcf19"),
            ("cd-dim100", "c78e570fe6db0a3e"),
            ("cd-dim200", "f39a8501bbbb950f"),
        ],
    )
    def test_preset_targets_keep_their_csv_round_trip_bits(self, tmp_path, preset, digest):
        # the digests of the targets that the presets built when they wrote their data
        # to a CSV file and read it back
        target = build_target(ExperimentConfig.from_flat(get_preset(preset)), tmp_path)
        assert array_digest(target_arrays(target)) == digest
        assert list(tmp_path.iterdir()) == []


class TestSamplerKeys:
    """Every ``sampler.*`` key changes the ground truth, and a config holds no other."""

    SAMPLER = {"sampler.n_particles": 20, "sampler.n_steps": 30, "sampler.step_size": 0.01}
    CHANGES = {
        "sampler.n_particles": 21,
        "sampler.n_steps": 31,
        "sampler.step_size": 0.02,
        "sampler.algorithm": "mala",
        "run.seed": 9,  # seeds the sampler's stream, run.seed + 3
    }

    def ground_truth_digest(self, tmp_path, name, **settings):
        """Digest of ``ground_truth.csv`` from the tiny config with ``settings``."""
        config_path = tmp_path / f"{name}.toml"
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), **self.SAMPLER, **settings}))
        out = tmp_path / name
        assert main(["sample-ground-truth", str(config_path), "--out", str(out)]) == 0
        return hashlib.sha256((out / "ground_truth.csv").read_bytes()).hexdigest()

    def test_every_sampler_key_is_covered(self):
        assert {key for key in KEYS if key.startswith("sampler.")} | {"run.seed"} == set(self.CHANGES)

    @pytest.mark.parametrize("key", list(CHANGES))
    def test_every_key_changes_the_ground_truth(self, tmp_path, capsys, key):
        base = self.ground_truth_digest(tmp_path, "base")
        assert self.ground_truth_digest(tmp_path, "changed", **{key: self.CHANGES[key]}) != base

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_each_preset_records_the_sampler_keys_its_run_reads(self, preset):
        flat = ExperimentConfig.from_flat(get_preset(preset)).flat
        assert {key for key in flat if key.startswith("sampler.")} == set(self.CHANGES) - {"run.seed"}


class TestKernelKeys:
    """A config's one kernel key is kernel.family, which changes the run; any other kernel key is refused."""

    BASE = {"train.iterations": 5}
    # (settings, key, changed value): each key read under the settings
    READ = [({}, "kernel.family", "imq")]
    KERNELS = {"rbf": {}, "imq": {"kernel.family": "imq"}}

    def train(self, tmp_path, name, settings):
        """The run directory of ``ksivi train`` on the tiny config with ``settings``."""
        config_path = tmp_path / f"{name}.toml"
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), **self.BASE, **settings}))
        out = tmp_path / name
        assert main(["train", str(config_path), "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("settings, key, value", READ, ids=[key for _, key, _ in READ])
    def test_every_read_key_changes_the_params(self, tmp_path, capsys, settings, key, value):
        base = self.train(tmp_path, "base", settings)
        changed = self.train(tmp_path, "changed", {**settings, key: value})
        assert (base / "checkpoint.json").read_bytes() != (changed / "checkpoint.json").read_bytes()
        kernel_keys = {k for k in parse_config_text((changed / "config.txt").read_text()) if k.startswith("kernel.")}
        assert kernel_keys == {"kernel.family"}

    @pytest.mark.parametrize(
        "settings, key",
        [
            pytest.param(settings, key, id=f"{kernel}-{key}")
            for kernel, settings in KERNELS.items()
            for key in UNKNOWN_KERNEL_KEYS
        ],
    )
    def test_every_unread_key_exits_2_naming_it(self, tmp_path, capsys, settings, key):
        config_path = tmp_path / "config.toml"
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), **settings, key: 2.0}))
        assert main(["train", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {key}: unknown key\n"
        assert not (tmp_path / "out").exists()

    def test_every_kernel_key_is_covered(self):
        assert {key for key in KEYS if key.startswith("kernel.")} == {key for _, key, _ in self.READ}

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_each_preset_records_the_kernel_keys_its_run_reads(self, preset):
        flat = ExperimentConfig.from_flat(get_preset(preset)).flat
        assert {key for key in flat if key.startswith("kernel.")} == {"kernel.family"}

    @pytest.mark.parametrize("preset", ["cd-dim200", "toy-multimodal"])
    def test_an_older_config_listing_unread_kernel_keys_is_refused_by_name(self, preset):
        text = (Path(__file__).parent / "data" / f"config_{preset}.txt").read_text()
        older = {
            **parse_config_text(text),
            "kernel.bandwidth_rule": "median",
            "kernel.bandwidth": 1.0,
            "kernel.offset": 1.0,
            "kernel.smoothing": 1e-8,
        }
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_flat(older)
        assert err.value.fieldname == "kernel.bandwidth, kernel.bandwidth_rule, kernel.offset, kernel.smoothing"

    @pytest.mark.parametrize(
        "settings, column, value",
        [
            ({}, "bandwidth", None),
            ({"kernel.family": "imq"}, "offset", "1"),
        ],
        ids=["rbf", "imq"],
    )
    def test_trace_records_the_scale_the_kernel_reads(self, tmp_path, capsys, settings, column, value):
        trace = (self.train(tmp_path, "run", settings) / "trace.csv").read_text()
        rows = [line.split(",") for line in trace.splitlines()]
        assert rows[0] == ["iteration", "ksd2", column, "beta_temp", "grad_norm"]
        scales = [row[2] for row in rows[1:]]
        if value is None:  # the median of each iteration's batches, never the family default
            assert len(set(scales)) == 5 and "1" not in scales
        else:
            assert scales == [value] * 5


class TestTrainKeys:
    """Every key of the training settings, and of the family's initialisation, changes the run's output."""

    # five iterations of the tiny config, with an annealing ramp that a change at either end moves
    BASE = {"train.iterations": 5, "anneal.start": 0.5, "anneal.iterations": 4}
    CHANGES = {
        "train.iterations": 6,
        "train.batch_size": 9,
        "train.learning_rate": 0.002,
        "train.estimator": "ustat",
        "kernel.family": "imq",
        "anneal.start": 0.25,
        "anneal.iterations": 2,
        "init.rho": -0.5,
        "run.seed": 9,  # seeds the family's initialisation and the training batches
    }

    def outputs(self, tmp_path, name, settings):
        """``checkpoint.json`` and ``trace.csv`` of ``ksivi train`` on the tiny config with ``settings``."""
        config_path = tmp_path / f"{name}.toml"
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), **self.BASE, **settings}))
        out = tmp_path / name
        assert main(["train", str(config_path), "--out", str(out)]) == 0
        return [(out / artifact).read_bytes() for artifact in ("checkpoint.json", "trace.csv")]

    def test_every_train_key_is_covered(self):
        assert set(self.CHANGES) == set(TRAIN_FIELDS.values()) | {"init.rho", "run.seed"}

    @pytest.mark.parametrize("key", list(CHANGES))
    def test_every_key_changes_the_checkpoint_or_trace(self, tmp_path, capsys, key):
        base = self.outputs(tmp_path, "base", {})
        changed = self.outputs(tmp_path, "changed", {key: self.CHANGES[key]})
        assert changed != base


class TestRunIO:
    @pytest.mark.parametrize(
        "outputs, suffix",
        [
            ({"rev-parse": "abc1234\n", "status": ""}, "+abc1234"),
            ({"rev-parse": "abc1234\n", "status": " M src/ksivi/cli.py\n?? notes.txt\n"}, "+abc1234.dirty"),
            ({"rev-parse": "abc1234\n", "status": 128}, "+abc1234"),
            ({"rev-parse": "abc1234\n", "status": subprocess.TimeoutExpired("git", 5)}, "+abc1234"),
            ({"rev-parse": 128, "status": " M x\n"}, ""),
            ({"rev-parse": FileNotFoundError("git"), "status": FileNotFoundError("git")}, ""),
        ],
        ids=["clean", "dirty", "status-fails", "status-hangs", "not-a-checkout", "no-git"],
    )
    def test_build_identifier_marks_a_dirty_tree(self, monkeypatch, outputs, suffix):
        # each value is git's standard output, its failing exit code, or what it raises
        seen = []

        def fake_run(argv, **kwargs):
            assert argv[0] == "git" and kwargs["timeout"] == 5
            assert argv[1:] in (["rev-parse", "--short", "HEAD"], ["status", "--porcelain"])
            assert Path(kwargs["cwd"]) == Path(ksivi.__file__).parent
            seen.append(argv[1])
            result = outputs[argv[1]]
            if isinstance(result, Exception):
                raise result
            if isinstance(result, int):
                return subprocess.CompletedProcess(argv, result, stdout="", stderr="fatal: not a git repository")
            return subprocess.CompletedProcess(argv, 0, stdout=result, stderr="")

        monkeypatch.setattr("ksivi.runio.subprocess.run", fake_run)
        assert build_identifier() == f"ksivi-{ksivi.__version__}{suffix}"
        assert seen[0] == "rev-parse" and set(seen) <= {"rev-parse", "status"}

    def test_samples_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((40, 3)) * np.array([1e-8, 1.0, 1e10])
        path = tmp_path / "samples.csv"
        write_samples_csv(path, samples)
        again = read_samples_csv(path)
        assert np.array_equal(samples, again)

    @pytest.mark.filterwarnings("error")  # numpy's empty-input warning stays inside the reader
    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_samples_without_rows_refused(self, tmp_path, text):
        path = tmp_path / "samples.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^no data rows$"):
            read_samples_csv(path)

    def test_ragged_samples_error_is_numpys_without_its_advice(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("0.5,1.0\n0.25\n")
        with pytest.raises(ValueError, match="^the number of columns changed from 2 to 1 at row 2$"):
            read_samples_csv(path)

    def test_checkpoint_round_trip_bitwise(self, tmp_path):
        params = siv_init(NetArch((3, 16, 2)), seed=9, rho_init=-0.3)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, params)
        doc = json.loads(path.read_text())
        assert doc["format"] == "siv-checkpoint-v1" and doc["dtype"] == "<f8"
        assert doc["widths"] == list(params.arch.widths) and doc["n_params"] == params.flat.size
        flat = np.frombuffer(base64.b64decode(doc["flat_base64"]), "<f8")
        assert flat.tobytes() == params.flat.tobytes()

    def test_checkpoint_text_is_pinned(self, tmp_path):
        # the v1 file byte for byte: sorted keys, two-space indent, a closing newline, and the payload
        # 0.5, -0.0, -0.25 as little-endian float64 (0x3FE0..., 0x8000..., 0xBFD0...)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, SIVParams(NetArch((1, 1)), np.array([0.5, -0.0, -0.25])))
        assert path.read_text() == (
            "{\n"
            '  "dtype": "<f8",\n'
            '  "flat_base64": "AAAAAAAA4D8AAAAAAAAAgAAAAAAAANC/",\n'
            '  "format": "siv-checkpoint-v1",\n'
            '  "n_params": 3,\n'
            '  "widths": [\n'
            "    1,\n"
            "    1\n"
            "  ]\n"
            "}\n"
        )

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_checkpoint_holds_every_preset_architecture(self, tmp_path, name):
        config = ExperimentConfig.from_flat(get_preset(name))
        arch = NetArch(config.widths)
        params = siv_init(arch, config.init_seed, config.rho_init)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, params)
        doc = json.loads(path.read_text())
        # every weight and bias of the network, then one log-scale per output dimension
        sizes = [o * i + o for i, o in zip(config.widths[:-1], config.widths[1:])]
        assert doc["widths"] == list(config.widths) and doc["n_params"] == sum(sizes) + config.widths[-1]
        flat = np.frombuffer(base64.b64decode(doc["flat_base64"]), "<f8")
        assert flat.tobytes() == params.flat.tobytes()
        assert np.all(flat[sum(sizes) :] == config.rho_init)

    @pytest.mark.parametrize(
        "value",
        [np.nan, np.inf, -np.inf, -0.0, 5e-324, np.finfo(np.float64).max],
        ids=["nan", "inf", "-inf", "-0", "subnormal", "max"],
    )
    def test_checkpoint_payload_keeps_every_float64_bit(self, tmp_path, value):
        # the payload is base64, so a value that JSON cannot hold as a number still leaves strict JSON
        params = siv_init(NetArch((3, 8, 2)), seed=3)
        params.flat[7] = value
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, params)

        def refuse(token):
            raise AssertionError(f"checkpoint holds the non-JSON constant {token}")

        doc = json.loads(path.read_text(), parse_constant=refuse)
        flat = np.frombuffer(base64.b64decode(doc["flat_base64"]), "<f8")
        assert flat.tobytes() == params.flat.tobytes()

    def test_trace_csv(self, tmp_path):
        trace = np.array([(1.5, 0.9, 0.2, 3.0), (1.2, 0.8, 0.3, 2.5)], dtype=[(name, float) for name in TRACE_FIELDS])
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, "bandwidth")
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,ksd2,bandwidth,beta_temp,grad_norm"
        assert len(lines) == 3
        assert lines[1] == "0,1.5,0.90000000000000002,0.20000000000000001,3"
        assert lines[2] == "1,1.2,0.80000000000000004,0.29999999999999999,2.5"
        write_trace_csv(path, trace[:0], "bandwidth")
        assert path.read_text() == "iteration,ksd2,bandwidth,beta_temp,grad_norm\n"
        write_trace_csv(path, trace, "offset")
        assert path.read_text().splitlines()[0] == "iteration,ksd2,offset,beta_temp,grad_norm"

    def test_trace_csv_reads_back_a_trained_trace_bitwise(self, tmp_path):
        # 17 significant digits round-trip every float64, so each column reads back bit for bit
        config = TrainConfig(iterations=15, batch_size=8, learning_rate=1e-3, anneal_start=0.3, anneal_iterations=10)
        _, trace = train(config, Banana(), siv_init(NetArch((3, 6, 2)), seed=4))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, "bandwidth")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], np.arange(15))
        for column, name in enumerate(TRACE_FIELDS, start=1):
            assert data[:, column].tobytes() == trace[name].tobytes()


class TestCLI:
    def run_tiny_train(self, tmp_path, name="run1", seed=None):
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG)
        out = tmp_path / name
        argv = ["train", str(config_path), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        return out

    def test_train_writes_artifacts(self, tmp_path, capsys):
        out = self.run_tiny_train(tmp_path)
        for artifact in ("config.txt", "trace.csv", "checkpoint.json", "samples.csv", "manifest.json"):
            assert (out / artifact).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "tiny"
        assert manifest["config"]["run.seed"] == 1
        assert "build" in manifest and "wallclock_seconds" in manifest
        assert_records_memory(manifest["training"], "peak_rss_mb")
        samples = read_samples_csv(out / "samples.csv")
        assert samples.shape == (50, 2)
        trace_rows = (out / "trace.csv").read_text().splitlines()
        assert len(trace_rows) == 21  # header + 20 iterations

    @pytest.mark.parametrize("iterations", [0, 20])
    def test_trace_has_a_row_per_iteration_and_the_manifest_its_last_ksd2(self, tmp_path, capsys, iterations):
        config_path = tmp_path / "config.txt"
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), "train.iterations": iterations}))
        out = tmp_path / "out"
        assert main(["train", str(config_path), "--out", str(out)]) == 0
        header, *rows = (out / "trace.csv").read_text().splitlines()
        assert header == "iteration,ksd2,bandwidth,beta_temp,grad_norm"
        assert [row.split(",")[0] for row in rows] == [str(t) for t in range(iterations)]
        final = json.loads((out / "manifest.json").read_text())["training"]["final_ksd2"]
        # 17 significant digits in the trace and the shortest repr in the manifest: both round-trip
        assert final == (float(rows[-1].split(",")[1]) if rows else None)

    def test_rerun_bitwise_identical(self, tmp_path, capsys):
        a = self.run_tiny_train(tmp_path, "a")
        b = self.run_tiny_train(tmp_path, "b")
        for artifact in ("trace.csv", "samples.csv", "checkpoint.json"):
            ha = hashlib.sha256((a / artifact).read_bytes()).hexdigest()
            hb = hashlib.sha256((b / artifact).read_bytes()).hexdigest()
            assert ha == hb, artifact

    def test_checkpoint_holds_the_fitted_parameters(self, tmp_path, capsys):
        # the written payload is what train returns for the config, not the initialization
        out = self.run_tiny_train(tmp_path)
        config = ExperimentConfig.from_flat(parse_config_text(TINY_CONFIG))
        init = siv_init(NetArch(config.widths), config.init_seed, config.rho_init)
        start = init.to_flat()
        fitted, _ = train(config.train, build_target(config, tmp_path), init)
        doc = json.loads((out / "checkpoint.json").read_text())
        flat = np.frombuffer(base64.b64decode(doc["flat_base64"]), "<f8")
        assert flat.tobytes() == fitted.flat.tobytes()
        assert flat.tobytes() != start.tobytes()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        a = self.run_tiny_train(tmp_path, "a")
        b = self.run_tiny_train(tmp_path, "b", seed=99)
        assert (a / "samples.csv").read_text() != (b / "samples.csv").read_text()

    def test_rerun_from_own_config_bitwise(self, tmp_path, capsys):
        run1 = self.run_tiny_train(tmp_path)
        run2 = tmp_path / "run2"
        assert main(["train", str(run1 / "config.txt"), "--out", str(run2)]) == 0
        for artifact in ("config.txt", "trace.csv", "samples.csv", "checkpoint.json"):
            assert (run1 / artifact).read_bytes() == (run2 / artifact).read_bytes(), artifact

    def test_seed_override_of_a_written_config_matches_a_fresh_run(self, tmp_path, capsys):
        # a written config.txt holds run.seed and no stream seed, so --seed reseeds every stream
        run1 = self.run_tiny_train(tmp_path)
        run2 = tmp_path / "run2"
        assert main(["train", str(run1 / "config.txt"), "--out", str(run2), "--seed", "99"]) == 0
        fresh = self.run_tiny_train(tmp_path, "fresh", seed=99)
        for artifact in ("config.txt", "trace.csv", "samples.csv", "checkpoint.json"):
            assert (run2 / artifact).read_bytes() == (fresh / artifact).read_bytes(), artifact
        assert (run1 / "samples.csv").read_bytes() != (run2 / "samples.csv").read_bytes()

    @pytest.mark.parametrize("seed", [None, 7])
    def test_train_seeds_each_stream_from_run_seed(self, tmp_path, capsys, seed):
        # init run.seed + 0, batches + 1, the samples.csv draw + 2; TINY_CONFIG's run.seed is 1
        out = self.run_tiny_train(tmp_path, seed=seed)
        s = 1 if seed is None else seed
        config = TrainConfig(iterations=20, batch_size=8, learning_rate=0.001, seed=s + 1)
        params, _ = train(config, Banana(), siv_init(NetArch((3, 8, 2)), s, 0.0))
        flat = np.frombuffer(base64.b64decode(json.loads((out / "checkpoint.json").read_text())["flat_base64"]), "<f8")
        assert flat.tobytes() == params.flat.tobytes()
        samples = siv_sample_batch(params, 50, np.random.default_rng(s + 2)).x
        assert read_samples_csv(out / "samples.csv").tobytes() == samples.tobytes()

    @pytest.mark.parametrize("seed", [None, 7])
    def test_ground_truth_seeds_the_sampler_from_run_seed(self, tmp_path, capsys, seed):
        sampler = {"sampler.n_particles": 20, "sampler.n_steps": 30, "sampler.step_size": 0.01}
        config_path = tmp_path / "config.txt"
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), **sampler}))
        out = tmp_path / "out"
        argv = ["sample-ground-truth", str(config_path), "--out", str(out)]
        assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
        s = 1 if seed is None else seed  # TINY_CONFIG's run.seed
        run = RUNNERS["sgld"](Banana(), SamplerConfig(n_particles=20, n_steps=30, step_size=0.01, seed=s + 3))
        assert read_samples_csv(out / "ground_truth.csv").tobytes() == run.states.tobytes()
        assert json.loads((out / "manifest.json").read_text())["sampler"]["seed"] == s + 3

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    @pytest.mark.parametrize("key", ["init.seed", "train.seed", "eval.seed", "sampler.seed"])
    def test_a_stream_seed_key_exits_2(self, tmp_path, capsys, command, key):
        # run.seed alone seeds the four streams
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG + f"{key} = 9\n")
        assert main([command, str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {key}: unknown key\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    @pytest.mark.parametrize(
        "settings, key",
        [
            ("sampler.n_particles = 0\n", "sampler.n_particles"),
            ('sampler.algorithm = "hmc"\n', "config error: sampler.algorithm: unknown algorithm 'hmc'"),
            # a run returns final states, so no config burns in or thins, even at the values that do nothing
            ("sampler.burn_in = 0\n", "config error: sampler.burn_in: unknown key"),
            ("sampler.thin = 1\n", "config error: sampler.thin: unknown key"),
            # training descends the kernel Stein discrepancy alone, so an older config's penalty weight is refused
            ("reg.weight = 0.1\n", "config error: reg.weight: unknown key"),
            # an rbf bandwidth is always the median, no gradient is clipped, and the trace has no clock column
            ('kernel.bandwidth_rule = "median"\n', "config error: kernel.bandwidth_rule: unknown key"),
            ("kernel.bandwidth = 1.0\n", "config error: kernel.bandwidth: unknown key"),
            ("clip.norm = 1.0\n", "config error: clip.norm: unknown key"),
            ("output.trace_wallclock = false\n", "config error: output.trace_wallclock: unknown key"),
            # the trace holds every iteration, so an older config.txt's cadence, 1 in all of them, is refused
            ("train.log_every = 1\n", "config error: train.log_every: unknown key"),
        ],
    )
    def test_bad_sampler_settings_exit_2(self, tmp_path, capsys, command, settings, key):
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG + settings)
        assert main([command, str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "settings, key",
        [
            ('target.name = "student_product"\ntarget.nu = -1\n', "target.nu"),
            ('target.name = "blr"\ntarget.data_path = "short.csv"\n', "target.data_path"),
            ('target.name = "blr"\n', "target.data_path, target.synthetic_rows: set exactly one"),
            (
                'target.name = "blr"\ntarget.data_path = "short.csv"\ntarget.synthetic_rows = 30\n',
                "target.data_path, target.synthetic_rows: set exactly one",
            ),
            # a stride past the last state observes nothing, and the run would sample the prior
            (
                'target.name = "conditioned_diffusion"\ntarget.n_steps = 10\ntarget.obs_stride = 11\n',
                "target.obs_stride: 11 exceeds the 10 states of the path",
            ),
            # a time step of 0 divides by zero, and a negative one takes a square root of it
            (
                'target.name = "conditioned_diffusion"\ntarget.n_steps = 10\ntarget.dt = 0.0\n',
                "config error: target.dt: must be positive, got 0.0",
            ),
            (
                'target.name = "conditioned_diffusion"\ntarget.n_steps = 10\ntarget.dt = -0.1\n',
                "config error: target.dt: must be positive, got -0.1",
            ),
            # a data file is the data, and no seed makes it
            (
                'target.name = "blr"\ntarget.data_path = "short.csv"\ntarget.data_seed = 5\n',
                "config error: target.data_seed: does nothing when target.data_path is set",
            ),
            ('target.name = "banana"\nkernel.family = "gauss"\n', "kernel.family"),
            # only conditionally positive definite: its discrepancy estimate went negative and spread the samples
            (
                'target.name = "banana"\nkernel.family = "riesz"\n',
                "config error: kernel.family: must be one of ('rbf', 'imq'), got 'riesz'",
            ),
        ],
    )
    def test_bad_target_values_exit_2(self, tmp_path, capsys, settings, key):
        # a dataset row with 21 columns, one short of the 21 features and the label
        (tmp_path / "short.csv").write_text(",".join(["0.5"] * 20 + ["1"]) + "\n")
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG.replace('target.name = "banana"\n', settings))
        argv = ["train", str(config_path), "--out", str(tmp_path / "out")]
        if "data_path" in settings:  # the one key that --data-dir serves
            argv += ["--data-dir", str(tmp_path)]
        assert main(argv) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    def test_unknown_preset_exits_2(self, tmp_path, capsys, command):
        assert main([command, "--preset", "nope", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unknown preset 'nope'" in err and "toy-banana" in err and "Traceback" not in err
        # a deleted preset is refused like any unknown name
        assert main([command, "--preset", "student-product-w5-riesz", "--out", str(tmp_path / "out")]) == 2
        assert "unknown preset 'student-product-w5-riesz'" in capsys.readouterr().err

    def test_make_blr_data_is_an_unknown_command(self, tmp_path, capsys):
        # the synthetic rows are built in memory (target.synthetic_rows); no command writes them
        with pytest.raises(SystemExit) as exit_info:
            main(["make-blr-data", str(tmp_path / "w.csv"), "--rows", "25"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'make-blr-data'" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    CD = {"target.name": "conditioned_diffusion"}

    @pytest.mark.parametrize(
        "settings, argv, key",
        [
            ({"run.seed": -1}, [], "run.seed"),
            ({"eval.sample_size": 0}, [], "eval.sample_size"),
            ({**CD, "target.obs_stride": 0}, [], "target.obs_stride"),
            ({**CD, "target.obs_seed": -1}, [], "target.obs_seed"),
            ({"anneal.iterations": -5}, [], "anneal.iterations"),
            ({"run.threads": -3}, [], "run.threads"),
        ],
        ids=["run-seed", "eval-size", "obs-stride", "obs-seed", "anneal-iters", "threads"],
    )
    def test_out_of_range_values_exit_2(self, tmp_path, capsys, settings, argv, key):
        config_path = tmp_path / "config.txt"
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), **settings}))
        assert main(["train", str(config_path), "--out", str(tmp_path / "out"), *argv]) == 2
        assert f"config error: {key}: must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    def test_negative_config_threads_pin_nothing(self, tmp_path, monkeypatch, capsys, command):
        # the count is refused before it is pinned, so the process keeps its thread variables
        pinned = {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": "4"}
        for var, value in pinned.items():
            monkeypatch.setenv(var, value)
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG + "run.threads = -1\n")
        assert main([command, str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: run.threads: must be at least 0, got -1\n"
        assert {var: os.environ[var] for var in pinned} == pinned
        assert not (tmp_path / "out").exists()

    STUDENT = {"target.name": "student_product"}

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    @pytest.mark.parametrize(
        "settings, message",
        [
            ({**STUDENT, "target.nu": 0.0}, "target.nu: must be positive, got 0.0"),
            ({**STUDENT, "target.nu": -1.0}, "target.nu: must be positive, got -1.0"),
            ({**STUDENT, "target.width": 0.0}, "target.width: must be positive, got 0.0"),
            ({**STUDENT, "target.width": -1.0}, "target.width: must be positive, got -1.0"),
            ({**STUDENT, "target.dim": 0}, "target.dim: must be at least 1, got 0"),
            ({**STUDENT, "target.dim": -1}, "target.dim: must be at least 1, got -1"),
            ({**CD, "target.obs_seed": -1}, "target.obs_seed: must be at least 0, got -1"),
            ({**CD, "target.n_steps": 0}, "target.n_steps: must be at least 1, got 0"),
            ({**CD, "target.dt": 0.0}, "target.dt: must be positive, got 0.0"),
            ({**CD, "target.dt": -0.1}, "target.dt: must be positive, got -0.1"),
            ({**CD, "target.obs_stride": 0}, "target.obs_stride: must be at least 1, got 0"),
            (
                {**CD, "target.n_steps": 10, "target.obs_stride": 11},
                "target.obs_stride: 11 exceeds the 10 states of the path, so none is observed",
            ),
            # the prior term -alpha |beta|^2 / 2 would leave the log-density unbounded above
            (
                {"target.name": "blr", "target.synthetic_rows": 30, "target.alpha": -1.0},
                "target.alpha: must be at least 0, got -1.0",
            ),
            (
                {"target.name": "blr", "target.synthetic_rows": 0},
                "target.synthetic_rows: must be at least 1, got 0",
            ),
            (
                {"target.name": "blr", "target.synthetic_rows": 30, "target.data_seed": -1},
                "target.data_seed: must be at least 0, got -1",
            ),
        ],
    )
    def test_bad_target_value_is_refused_by_its_key(self, tmp_path, monkeypatch, capsys, command, settings, message):
        # exit 2 naming that key alone, before the run's directory under runs/ is made
        config_path = tmp_path / "config.txt"
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), **settings}))
        monkeypatch.chdir(tmp_path)
        assert main([command, str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert set(re.findall(r"target\.\w+", err)) == {message.partition(":")[0]}
        assert list(tmp_path.iterdir()) == [config_path]

    def exits_2_with(self, tmp_path, capsys, settings, message):
        """``ksivi train`` on the tiny config with ``settings`` exits 2 with ``message`` and makes no run directory."""
        config_path = tmp_path / "config.txt"
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), **settings}))
        assert main(["train", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"anneal.start": 0.3}, "anneal.iterations: must be positive for a ramp from 0.3"),
            ({"anneal.start": 0.3, "anneal.iterations": 0}, "anneal.iterations: must be positive for a ramp from 0.3"),
            ({"anneal.iterations": 100}, "anneal.start: must lie below 1 for a ramp of 100 iterations"),
            ({"anneal.start": 1.0, "anneal.iterations": 5}, "anneal.start: must lie below 1 for a ramp of 5 iterations"),
        ],
        ids=["start-alone", "zero-iterations", "iterations-alone", "start-one"],
    )
    def test_half_set_anneal_ramp_exits_2(self, tmp_path, capsys, settings, message):
        # either end alone would train untempered on every iteration
        self.exits_2_with(tmp_path, capsys, settings, message)

    LONG_RAMP = "must be fewer than the 20 iterations run, got {}: the last iteration would train on a tempered target"

    @pytest.mark.parametrize("ramp", [20, 1000], ids=["as-long-as-the-run", "longer"])
    def test_anneal_ramp_not_ending_before_the_last_iteration_exits_2(self, tmp_path, capsys, ramp):
        # beta reaches 1 at iteration anneal.iterations, so a ramp as long as the run's 20 iterations ends it tempered
        settings = {"anneal.start": 0.2, "anneal.iterations": ramp}
        self.exits_2_with(tmp_path, capsys, settings, f"anneal.iterations: {self.LONG_RAMP.format(ramp)}")

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    def test_negative_threads_flag_exits_2(self, tmp_path, capsys, command):
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG)
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(config_path), "--out", str(tmp_path / "out"), "--threads", "-3"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --threads: must be at least 0, got -3" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert build_parser().parse_args([command, "--threads", "0"]).threads == 0  # 0 leaves the BLAS default

    def test_width_mismatch_exits_nonzero(self, tmp_path, capsys):
        config_path = tmp_path / "bad.txt"
        config_path.write_text(TINY_CONFIG.replace("[3, 8, 2]", "[3, 8, 4]"))
        code = main(["train", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "arch.widths" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    def test_manifest_records_the_argv_main_parsed(self, tmp_path, capsys, command):
        # not the host process's arguments, which here are pytest's
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG + "sampler.n_particles = 5\nsampler.n_steps = 3\n")
        argv = [command, str(config_path), "--out", str(tmp_path / "out"), "--seed", "4"]
        assert main(argv) == 0
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["argv"] == argv

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    def test_manifest_records_the_process_argv_when_main_gets_none(self, tmp_path, capsys, monkeypatch, command):
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG + "sampler.n_particles = 5\nsampler.n_steps = 3\n")
        argv = [command, str(config_path), "--out", str(tmp_path / "out"), "--seed", "4"]
        monkeypatch.setattr(sys, "argv", ["ksivi", *argv])
        assert main() == 0
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["argv"] == argv

    def test_ground_truth_cli(self, tmp_path, capsys):
        config_path = tmp_path / "config.txt"
        config_path.write_text(
            TINY_CONFIG
            + "sampler.algorithm = \"mala\"\nsampler.n_particles = 40\n"
            + "sampler.n_steps = 200\nsampler.step_size = 0.3\n"
        )
        out = tmp_path / "gt"
        assert main(["sample-ground-truth", str(config_path), "--out", str(out)]) == 0
        states = read_samples_csv(out / "ground_truth.csv")
        assert states.shape == (40, 2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0.0 < manifest["sampler"]["acceptance_rate"] <= 1.0

    @pytest.mark.parametrize("algorithm", ["sgld", "mala"])
    def test_ground_truth_manifest_records_step_cost(self, tmp_path, capsys, algorithm):
        config_path = tmp_path / "config.txt"
        config_path.write_text(
            TINY_CONFIG + f'sampler.algorithm = "{algorithm}"\nsampler.n_particles = 10\nsampler.n_steps = 600\n'
        )
        out = tmp_path / "gt"
        assert main(["sample-ground-truth", str(config_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        sampler = manifest["sampler"]
        # the settings the config's sampler.* keys hold, the seed run.seed derives, and the measurements
        measured = {"acceptance_rate", "seconds_per_step", "minor_faults_per_step", "peak_rss_mb"}
        keyed = {key[len("sampler.") :] for key in manifest["config"] if "sampler." in key}
        assert set(sampler) - measured == keyed | {"seed"}
        assert sampler["seed"] == manifest["config"]["run.seed"] + 3
        assert sampler["seconds_per_step"] > 0.0
        assert sampler["seconds_per_step"] * 600 == pytest.approx(manifest["wallclock_seconds"])
        assert_records_memory(sampler, "minor_faults_per_step", "peak_rss_mb")
        if "minor_faults_per_step" in sampler:
            assert sampler["minor_faults_per_step"] >= 0.0

    def test_ground_truth_deterministic(self, tmp_path, capsys):
        config_path = tmp_path / "config.txt"
        config_path.write_text(
            TINY_CONFIG + "sampler.n_particles = 20\nsampler.n_steps = 100\n"
        )
        hashes = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            assert main(["sample-ground-truth", str(config_path), "--out", str(out)]) == 0
            hashes.append(hashlib.sha256((out / "ground_truth.csv").read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

    def test_evaluate_identical_files(self, tmp_path, capsys):
        samples = np.random.default_rng(1).standard_normal((100, 2))
        path = tmp_path / "s.csv"
        write_samples_csv(path, samples)
        out = tmp_path / "metrics.json"
        code = main(["evaluate", str(path), str(path), "--metrics", "sliced_wd", "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["metrics"]["sliced_wd"]["value"] == 0.0
        assert record["samples"]["a"]["count"] == 100

    def test_evaluate_reports_noise_floor(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a_path, rng.standard_normal((400, 2)))
        write_samples_csv(b_path, rng.standard_normal((400, 2)))
        code = main(["evaluate", str(a_path), str(b_path), "--metrics", "kl_knn,mmd2,corr"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert "noise_floor" in record["metrics"]["kl_knn"]
        assert "bandwidth" in record["metrics"]["mmd2"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5,1.0\n0.25,nan\n1.0,2.0\n", ": non-finite value"),
            ("0.5,1.0\n0.25\n1.0,2.0\n", ": the number of columns changed"),
            ("0.5,1.0\n" * 10, ": kl_knn: 5 of 5 within-set neighbor distances collapsed"),
        ],
        ids=["nan", "ragged", "degenerate"],
    )
    def test_evaluate_bad_sample_file_exits_2(self, tmp_path, capsys, text, message):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_samples_csv(good, np.random.default_rng(3).standard_normal((10, 2)))
        bad.write_text(text)
        assert main(["evaluate", str(good), str(bad), "--metrics", "kl_knn"]) == 2
        err = capsys.readouterr().err
        # a file that does not read is named alone; a pair a metric refuses, both
        named = f"{good}, {bad}" if "kl_knn" in message else str(bad)
        assert err.startswith(f"error: {named}{message}")

    @pytest.mark.parametrize(
        "scale, metric",
        [(1e160, "mmd2"), (1e160, "sliced_wd"), (1e160, "corr")],
        ids=["mmd2-huge-samples", "sliced-wd-huge-samples", "corr-huge-samples"],
    )
    def test_evaluate_non_finite_metric_exits_2(self, tmp_path, capsys, scale, metric):
        # json.dumps would print the NaN or infinity as NaN or Infinity, which are not JSON
        rng = np.random.default_rng(5)
        a_path, b_path, record = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "record.json"
        write_samples_csv(a_path, scale * rng.standard_normal((50, 2)))
        write_samples_csv(b_path, scale * rng.standard_normal((50, 2)))
        with np.errstate(all="ignore"):
            code = main(["evaluate", str(a_path), str(b_path), "--metrics", metric, "--out", str(record)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {a_path}, {b_path}: {metric}: a value is NaN or infinite, which JSON cannot hold\n"
        assert not record.exists()

    @pytest.mark.parametrize("flag", ["--kernel-family", "--kernel-scale"])
    def test_deleted_kernel_flags_exit_2(self, tmp_path, capsys, flag):
        # mmd2's kernel is always the rbf at the pooled median; neither flag is an option any more
        path = tmp_path / "s.csv"
        write_samples_csv(path, np.random.default_rng(4).standard_normal((20, 2)))
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", str(path), str(path), flag, "1"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: unrecognized arguments: {flag} 1" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["{path}"],
            ["{path}", "--out", "{record}"],
            ["{path}", "--probes", "5", "--out", "{record}"],
            ["{path}", "--seed", "0", "--out", "{record}"],
            ["--out", "{record}"],
        ],
        ids=["bare", "out", "probes", "seed", "no-path"],
    )
    def test_deleted_diagnose_command_exits_2(self, tmp_path, capsys, args):
        # no command reads a checkpoint back: argparse refuses the name before any file is opened,
        # whatever options of the deleted command follow it
        path, record = tmp_path / "checkpoint.json", tmp_path / "record.json"
        save_checkpoint(path, siv_init(NetArch((3, 8, 2)), seed=3))
        argv = ["diagnose", *(arg.format(path=path, record=record) for arg in args)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "invalid choice: 'diagnose'" in err
        assert "Traceback" not in err
        assert not record.exists()

    def test_help_names_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "{train,sample-ground-truth,evaluate,show-preset,list-presets}" in out
        assert "diagnose" not in out

    def test_unknown_metric_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("evaluate read a file or built a block")

        monkeypatch.setattr("ksivi.runio.read_samples_csv", refused)
        monkeypatch.setattr("ksivi.kernels.sq_blocks", refused)
        path = tmp_path / "s.csv"
        write_samples_csv(path, np.zeros((10, 2)))
        assert main(["evaluate", str(path), str(path), "--metrics", "mmd2,bogus"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown metric 'bogus'; expected some of sliced_wd,")

    @pytest.mark.parametrize("metrics", ["", " , ,"], ids=["empty", "blank-names"])
    def test_empty_metric_list_refused_by_flag(self, tmp_path, capsys, monkeypatch, metrics):
        def refused(*args, **kwargs):
            raise AssertionError("evaluate read a file")

        monkeypatch.setattr("ksivi.runio.read_samples_csv", refused)
        path = tmp_path / "s.csv"
        write_samples_csv(path, np.zeros((10, 2)))
        assert main(["evaluate", str(path), str(path), "--metrics", metrics, "--out", str(tmp_path / "m.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --metrics names no metric; expected some of sliced_wd,")
        assert not (tmp_path / "m.json").exists()

    def test_repeated_metric_computed_once(self, tmp_path, capsys, monkeypatch):
        import ksivi.metrics

        calls = []
        mmd2_ustat = ksivi.metrics.mmd2_ustat

        def counted(*args, **kwargs):
            calls.append(None)
            return mmd2_ustat(*args, **kwargs)

        monkeypatch.setattr("ksivi.metrics.mmd2_ustat", counted)
        rng = np.random.default_rng(6)
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a_path, rng.standard_normal((50, 2)))
        write_samples_csv(b_path, rng.standard_normal((50, 2)))
        records = []
        for metrics in ("mmd2,mmd2, mmd2", "mmd2"):
            calls.clear()
            assert main(["evaluate", str(a_path), str(b_path), "--metrics", metrics]) == 0
            assert len(calls) == 1
            records.append(json.loads(capsys.readouterr().out))
        assert records[0] == records[1]
        assert list(records[0]["metrics"]) == ["mmd2"]

    @pytest.mark.parametrize("flag", ["--n-proj", "--kl-k"])
    def test_metric_size_flags_are_unrecognized(self, tmp_path, capsys, flag):
        # sliced_wd projects on cli.N_PROJ directions and kl_knn reads the cli.KL_K-th neighbour
        write_samples_csv(tmp_path / "a.csv", np.random.default_rng(4).standard_normal((20, 2)))
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", str(tmp_path / "a.csv"), str(tmp_path / "a.csv"), flag, "3"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {flag} 3" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "{dir}/a.csv", "{dir}/a.csv", "--seed", "-2"],
            ["train", "{dir}/config.txt", "--out", "{dir}/out", "--seed", "-1"],
            ["sample-ground-truth", "{dir}/config.txt", "--out", "{dir}/out", "--seed", "-1"],
        ],
        ids=["evaluate", "train", "sample-ground-truth"],
    )
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, argv):
        # numpy's generators refuse a negative seed; the flag refuses it first and names itself
        write_samples_csv(tmp_path / "a.csv", np.random.default_rng(4).standard_normal((20, 2)))
        (tmp_path / "config.txt").write_text(TINY_CONFIG)
        argv = [arg.format(dir=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --seed: must be at least 0, got {argv[-1]}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_evaluate_one_coordinate_refuses_corr(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a_path, rng.standard_normal((50, 1)))
        write_samples_csv(b_path, rng.standard_normal((50, 1)))
        assert main(["evaluate", str(a_path), str(b_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {a_path}, {b_path}: corr: needs at least 2 coordinates to correlate, got 1\n"
        assert main(["evaluate", str(a_path), str(b_path), "--metrics", "sliced_wd,kl_knn,mmd2"]) == 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_evaluate_noise_floor_refuses_a_small_b_by_name(self, tmp_path, capsys, m):
        # the floor compares two halves of B; the smaller must hold more than k = 1 rows
        rng = np.random.default_rng(6)
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a_path, rng.standard_normal((5, 2)))
        write_samples_csv(b_path, rng.standard_normal((m, 2)))
        assert main(["evaluate", str(a_path), str(b_path), "--metrics", "kl_knn"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: {b_path}: kl_knn noise floor: samples_b has {m} rows, split into halves "
            f"of 1 and {m - 1}; each needs more than k = 1 rows\n"
        )
        # B's other metrics are not refused, and one row more is enough for the floor
        assert main(["evaluate", str(a_path), str(b_path), "--metrics", "sliced_wd,mmd2"]) == 0
        write_samples_csv(b_path, rng.standard_normal((4, 2)))
        assert main(["evaluate", str(a_path), str(b_path), "--metrics", "kl_knn"]) == 0

    def test_evaluate_records_the_kernel_parameter_the_mmd_reads(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(7)
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a_path, rng.standard_normal((30, 2)))
        write_samples_csv(b_path, rng.standard_normal((20, 2)))
        median = ksivi.kernels.median_bandwidth
        medians = []

        def counted(*args):
            medians.append(median(*args))
            return medians[-1]

        monkeypatch.setattr(ksivi.kernels, "median_bandwidth", counted)
        assert main(["evaluate", str(a_path), str(b_path), "--metrics", "mmd2"]) == 0
        record = json.loads(capsys.readouterr().out)["metrics"]["mmd2"]
        # the rbf kernel at the median of the pooled samples, formed once
        assert set(record) == {"value", "kernel", "bandwidth"} and record["kernel"] == "rbf"
        assert record["bandwidth"] == medians[0] and len(medians) == 1

    def test_evaluate_dimension_mismatch(self, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a_path, np.zeros((10, 2)))
        write_samples_csv(b_path, np.zeros((10, 3)))
        assert main(["evaluate", str(a_path), str(b_path)]) == 2

    def test_data_path_reads_the_synthetic_rows(self, tmp_path):
        # read by an absolute path or one relative to the data directory, a file of the
        # synthetic rows gives the bits that the same rows and seed build in memory
        path = tmp_path / "waveform.csv"
        write_waveform_csv(path, 25, 3)
        flat = get_preset("blr-waveform")
        synthetic = {**flat, "target.synthetic_rows": 25, "target.data_seed": 3}
        built = build_target(ExperimentConfig.from_flat(synthetic), "-")
        del flat["target.synthetic_rows"], flat["target.data_seed"]
        for data_path, data_dir in [(str(path), "-"), ("waveform.csv", tmp_path)]:
            config = ExperimentConfig.from_flat({**flat, "target.data_path": data_path})
            read = build_target(config, data_dir)
            assert np.array_equal(read.design, built.design) and np.array_equal(read.labels, built.labels)
            # the seed made no row of the file, so the resolved config holds none
            assert "target.data_seed" not in config.flat

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    def test_relative_data_path_reads_from_the_working_directory(self, tmp_path, capsys, monkeypatch, command):
        # beside the config, and again from the config.txt of the run, whatever the output directory
        monkeypatch.chdir(tmp_path)
        write_waveform_csv("w.csv", 30, 3)
        settings = 'target.name = "blr"\ntarget.data_path = "w.csv"\n'
        text = TINY_CONFIG.replace('target.name = "banana"\n', settings).replace("[3, 8, 2]", "[3, 8, 22]")
        Path("blr.toml").write_text(text + "sampler.n_particles = 5\nsampler.n_steps = 3\n")
        result = {"train": "samples.csv", "sample-ground-truth": "ground_truth.csv"}[command]
        assert main([command, "blr.toml", "--out", "o1"]) == 0
        assert main([command, "o1/config.txt", "--out", "o2"]) == 0
        assert Path("o1", result).read_bytes() == Path("o2", result).read_bytes()
        # --data-dir still overrides it
        Path("d").mkdir()
        write_waveform_csv("d/w.csv", 30, 4)
        assert main([command, "blr.toml", "--out", "o3", "--data-dir", "d"]) == 0
        assert Path("o1", result).read_bytes() != Path("o3", result).read_bytes()
        assert not Path("o1", "w.csv").exists() and not Path("o2", "w.csv").exists()

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    @pytest.mark.parametrize("data_dir", ["d", "/nonexistent"])
    def test_data_dir_without_a_data_path_exits_2(self, tmp_path, capsys, monkeypatch, command, data_dir):
        # nothing reads the directory: banana and the generated blr rows name no data file
        monkeypatch.chdir(tmp_path)
        Path("d").mkdir()
        for flat in (parse_config_text(TINY_CONFIG), get_preset("blr-waveform")):
            Path("config.toml").write_text(format_config(flat))
            assert main([command, "config.toml", "--out", "out", "--data-dir", data_dir]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == "error: --data-dir: does nothing when target.data_path is not set\n"
            assert not Path("out").exists()

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["train", "{dir}", "--out", "{dir}/out"], "{dir}"),
            (["sample-ground-truth", "{dir}", "--out", "{dir}/out"], "{dir}"),
            (["evaluate", "{dir}", "{dir}/a.csv"], "{dir}"),
            (["evaluate", "{dir}/a.csv", "{dir}"], "{dir}"),
            (["evaluate", "{dir}/a.csv", "{dir}/a.csv", "--metrics", "corr", "--out", "{dir}/d"], "{dir}/d"),
        ],
        ids=["train-config", "sample-ground-truth-config", "evaluate-samples-a", "evaluate-samples-b", "evaluate-out"],
    )
    def test_a_directory_for_a_file_exits_2(self, tmp_path, capsys, argv, path):
        write_samples_csv(tmp_path / "a.csv", np.random.default_rng(4).standard_normal((20, 2)))
        (tmp_path / "d").mkdir()
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: [Errno ") and err.endswith(f"'{path.format(dir=tmp_path)}'\n")
        assert not (tmp_path / "out").exists()

    def test_show_and_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        listed = capsys.readouterr().out.split()
        assert "toy-banana" in listed and "cd-dim100" in listed
        assert main(["show-preset", "toy-banana"]) == 0
        text = capsys.readouterr().out
        assert parse_config_text(text)["train.iterations"] == 50_000
        assert main(["show-preset", "nope"]) == 2

    THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

    def thread_vars_at_numpy_import(self, tmp_path, config_text, *extra_argv):
        """Run ``ksivi train`` in a fresh interpreter and return the BLAS thread
        variables at the moment numpy is first looked up, before it appears in
        sys.modules."""
        script = f"""
import json, os, sys

seen = {{}}


class NumpyImportProbe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            assert "numpy" not in sys.modules
            seen.update({{v: os.environ.get(v) for v in {self.THREAD_VARS!r}}})
        return None


sys.meta_path.insert(0, NumpyImportProbe())
from ksivi.cli import build_parser, main

code = main(sys.argv[1:])
print(json.dumps({{"code": code, "seen": seen}}))
"""
        config_path = tmp_path / "config.txt"
        config_path.write_text(config_text)
        env = {k: v for k, v in os.environ.items() if k not in self.THREAD_VARS}
        src = str(Path(ksivi.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["train", str(config_path), "--out", str(tmp_path / "out"), *extra_argv]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        assert record["code"] == 0
        return record["seen"]

    def test_config_threads_pinned_before_numpy_loads(self, tmp_path):
        seen = self.thread_vars_at_numpy_import(tmp_path, TINY_CONFIG + "run.threads = 1\n")
        assert seen == {v: "1" for v in self.THREAD_VARS}

    def test_threads_flag_overrides_config_before_numpy_loads(self, tmp_path):
        seen = self.thread_vars_at_numpy_import(tmp_path, TINY_CONFIG + "run.threads = 1\n", "--threads", "2")
        assert seen == {v: "2" for v in self.THREAD_VARS}

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    def test_threads_flag_is_recorded_as_run_threads(self, tmp_path, monkeypatch, capsys, command):
        # the flag replaces run.threads, as --seed replaces run.seed, so config.txt reruns the count pinned
        for var in self.THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG + "run.threads = 1\nsampler.n_particles = 5\nsampler.n_steps = 3\n")
        assert main([command, str(config_path), "--out", str(tmp_path / "a"), "--threads", "2"]) == 0
        assert {var: os.environ[var] for var in self.THREAD_VARS} == dict.fromkeys(self.THREAD_VARS, "2")
        assert parse_config_text((tmp_path / "a" / "config.txt").read_text())["run.threads"] == 2
        assert json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]["run.threads"] == 2
        for var in self.THREAD_VARS:
            monkeypatch.delenv(var)
        assert main([command, str(tmp_path / "a" / "config.txt"), "--out", str(tmp_path / "b")]) == 0
        assert {var: os.environ[var] for var in self.THREAD_VARS} == dict.fromkeys(self.THREAD_VARS, "2")
        capsys.readouterr()

    def test_preset_data_generation(self, tmp_path, capsys):
        # the blr and conditioned diffusion presets generate their data in memory and write no file
        flat = get_preset("blr-waveform")
        flat["target.synthetic_rows"] = 30
        config = ExperimentConfig.from_flat(flat)
        target = build_target(config, tmp_path)
        assert target.dim == 22 and target.n_rows == 30
        config = ExperimentConfig.from_flat(get_preset("cd-dim100"))
        target = build_target(config, tmp_path)
        assert target.dim == 100
        assert list(tmp_path.iterdir()) == []


class TestNoScipy:
    """numpy is the one runtime dependency: no command imports scipy."""

    def scipy_imports(self, *argv):
        """The scipy modules that ``python -m ksivi ARGV`` imports, as ``-X importtime`` lists them."""
        env = {**os.environ, **{var: "1" for var in TestCLI.THREAD_VARS}}
        src = str(Path(ksivi.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-X", "importtime", "-m", "ksivi", *argv]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
        names = [line.rsplit("|", 1)[-1].strip() for line in lines]
        assert "numpy" in names  # the listing is there to read
        return [name for name in names if name.split(".")[0] == "scipy"]

    def test_no_command_imports_scipy(self, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text(TINY_CONFIG + "sampler.n_particles = 20\nsampler.n_steps = 50\n")
        run = tmp_path / "run"
        assert self.scipy_imports("train", str(config), "--out", str(run)) == []
        assert self.scipy_imports("sample-ground-truth", str(config), "--out", str(tmp_path / "gt")) == []
        rng = np.random.default_rng(11)
        for d in (2, 8, 200):
            a, b = tmp_path / f"a{d}.csv", tmp_path / f"b{d}.csv"
            write_samples_csv(a, rng.standard_normal((60, d)))
            write_samples_csv(b, rng.standard_normal((50, d)))
            metrics = "sliced_wd,kl_knn,mmd2,corr"
            assert self.scipy_imports("evaluate", str(a), str(b), "--metrics", metrics) == [], d
