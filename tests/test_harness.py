import json
import math
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ksivi
from ksivi.cli import main
from ksivi.configio import (
    KEYS,
    SEED_OFFSETS,
    ConfigError,
    ExperimentConfig,
    build_target,
    format_config,
    load_config_file,
    parse_config_text,
    validate_against_target,
)
from ksivi.family import siv_init
from ksivi.metrics import KNN_TREE_MAX_DIM
from ksivi.nets import NetArch
from ksivi.presets import PRESET_NAMES, get_preset
from ksivi.runio import (
    load_checkpoint,
    read_samples_csv,
    save_checkpoint,
    write_samples_csv,
    write_trace_csv,
)
from ksivi.train import LossTrace

from helpers import zero_params

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
        # config.txt as ksivi train --preset wrote it with the hand-written reader, before TOML
        text = (Path(__file__).parent / "data" / f"config_{preset}.txt").read_text()
        flat = parse_config_text(text)
        assert flat == ExperimentConfig.from_flat(get_preset(preset)).resolved_flat()
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
        for preset, key in (("toy-multimodal", "target.extra"), ("student-product-w5-rbf", "target.widht")):
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
        resolved = ExperimentConfig.from_flat(parse_config_text(TINY_CONFIG)).resolved_flat()
        # an unset clip.norm is left out; banana has no target.* keys of its own
        assert set(resolved) == set(KEYS) - {"clip.norm"} | set(SEED_OFFSETS)
        assert [resolved[key] for key in SEED_OFFSETS] == [1, 2, 3, 4]  # run.seed = 1
        assert resolved["sampler.n_steps"] == KEYS["sampler.n_steps"][1]
        flat = get_preset("blr-waveform")
        del flat["target.synthetic_rows"]
        flat["clip.norm"] = 2.0
        resolved = ExperimentConfig.from_flat(flat).resolved_flat()
        target_keys = {"target.data_path", "target.data_seed", "target.alpha"}
        assert set(resolved) == set(KEYS) | set(SEED_OFFSETS) | target_keys
        assert resolved["target.alpha"] == 0.01 and resolved["clip.norm"] == 2.0

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

    def test_toy_settings(self):
        for name in ("toy-banana", "toy-multimodal", "toy-xshaped"):
            flat = get_preset(name)
            assert flat["train.iterations"] == 50_000
            assert flat["train.learning_rate"] == 0.001
            assert flat["arch.widths"] == [3, 50, 50, 2]
            assert flat["eval.sample_size"] == 1000
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
        assert flat["sampler.n_particles"] == 1000
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
            riesz = get_preset(f"student-product-w{width}-riesz")
            assert rbf["target.width"] == float(width)
            assert rbf["kernel.family"] == "rbf"
            assert riesz["kernel.family"] == "riesz"
            assert rbf["reg.weight"] == riesz["reg.weight"] == 0.1


class TestRunIO:
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
        again = load_checkpoint(path)
        assert np.array_equal(again.to_flat(), params.to_flat())
        assert again.arch == params.arch

    def test_checkpoint_corruption_detected(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="unreadable"):
            load_checkpoint(path)
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)

    def test_trace_csv(self, tmp_path):
        trace = LossTrace()
        trace.append(0, 1.5, 0.9, 0.2, 3.0, 10.0)
        trace.append(1, 1.2, 0.8, 0.3, 2.5, 20.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,ksd2,bandwidth,beta_temp,grad_norm"
        assert len(lines) == 3
        assert lines[1] == "0,1.5,0.90000000000000002,0.20000000000000001,3"
        write_trace_csv(path, trace, include_wallclock=True)
        assert path.read_text().splitlines()[0].endswith(",wallclock_ms")
        assert path.read_text().splitlines()[2] == "1,1.2,0.80000000000000004,0.29999999999999999,2.5,20"
        write_trace_csv(path, LossTrace())
        assert path.read_text() == "iteration,ksd2,bandwidth,beta_temp,grad_norm\n"


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
        samples = read_samples_csv(out / "samples.csv")
        assert samples.shape == (50, 2)
        trace_rows = (out / "trace.csv").read_text().splitlines()
        assert len(trace_rows) == 21  # header + 20 iterations at cadence 1

    def test_rerun_bitwise_identical(self, tmp_path, capsys):
        a = self.run_tiny_train(tmp_path, "a")
        b = self.run_tiny_train(tmp_path, "b")
        for artifact in ("trace.csv", "samples.csv", "checkpoint.json"):
            ha = hashlib.sha256((a / artifact).read_bytes()).hexdigest()
            hb = hashlib.sha256((b / artifact).read_bytes()).hexdigest()
            assert ha == hb, artifact

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

    def test_seed_override_rederives_written_seeds(self, tmp_path, capsys):
        run1 = self.run_tiny_train(tmp_path)
        run2 = tmp_path / "run2"
        assert main(["train", str(run1 / "config.txt"), "--out", str(run2), "--seed", "99"]) == 0
        written = parse_config_text((run2 / "config.txt").read_text())
        assert written["run.seed"] == 99
        assert {key: written[key] for key in SEED_OFFSETS} == {key: 99 + k for key, k in SEED_OFFSETS.items()}
        assert (run1 / "samples.csv").read_bytes() != (run2 / "samples.csv").read_bytes()

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    @pytest.mark.parametrize(
        "settings, key",
        [
            ("sampler.n_particles = 0\n", "sampler.n_particles"),
            ("sampler.n_steps = 10\nsampler.burn_in = 10\n", "sampler.burn_in"),
        ],
    )
    def test_bad_sampler_settings_exit_2(self, tmp_path, capsys, command, settings, key):
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG + settings)
        assert main([command, str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, key",
        [
            ('target.name = "student_product"\ntarget.nu = -1\n', "target.nu"),
            ('target.name = "blr"\ntarget.data_path = "short.csv"\n', "target.data_path"),
            ('target.name = "banana"\nkernel.family = "gauss"\n', "kernel"),
        ],
    )
    def test_bad_target_values_exit_2(self, tmp_path, capsys, settings, key):
        # a dataset row with 21 columns, one short of the 21 features and the label
        (tmp_path / "short.csv").write_text(",".join(["0.5"] * 20 + ["1"]) + "\n")
        config_path = tmp_path / "config.txt"
        config_path.write_text(TINY_CONFIG.replace('target.name = "banana"\n', settings))
        argv = ["train", str(config_path), "--out", str(tmp_path / "out"), "--data-dir", str(tmp_path)]
        assert main(argv) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sample-ground-truth"])
    def test_unknown_preset_exits_2(self, tmp_path, capsys, command):
        assert main([command, "--preset", "nope", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unknown preset 'nope'" in err and "toy-banana" in err and "Traceback" not in err

    CD = {"target.name": "conditioned_diffusion", "target.obs_path": "o.csv"}

    @pytest.mark.parametrize(
        "settings, argv, key",
        [
            ({"run.seed": -1}, [], "run.seed"),
            ({}, ["--seed", "-1"], "run.seed"),
            ({"init.seed": -5}, [], "init.seed"),
            ({"eval.sample_size": 0}, [], "eval.sample_size"),
            ({**CD, "target.obs_stride": 0}, [], "target.obs_stride"),
            ({**CD, "target.obs_seed": -1}, [], "target.obs_seed"),
        ],
        ids=["run-seed", "seed-flag", "init-seed", "eval-size", "obs-stride", "obs-seed"],
    )
    def test_out_of_range_values_exit_2(self, tmp_path, capsys, settings, argv, key):
        config_path = tmp_path / "config.txt"
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), **settings}))
        assert main(["train", str(config_path), "--out", str(tmp_path / "out"), *argv]) == 2
        assert f"config error: {key}: must be at least" in capsys.readouterr().err
        assert not (tmp_path / "out" / "o.csv").exists()

    def cd_config(self, tmp_path, obs_text):
        (tmp_path / "o.csv").write_text(obs_text)
        config_path = tmp_path / "config.txt"
        settings = {**self.CD, "target.n_steps": 10, "arch.widths": [3, 8, 10]}
        config_path.write_text(format_config({**parse_config_text(TINY_CONFIG), **settings}))
        return config_path

    def test_cd_observation_row_of_one_field_exits_2(self, tmp_path, capsys):
        config_path = self.cd_config(tmp_path, "index,value\n5,0.25\n10\n")
        assert main(["train", str(config_path), "--out", str(tmp_path / "out"), "--data-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "target.obs_path" in err and "o.csv" in err
        assert err.rstrip().endswith("at row 2")  # numpy's advice on usecols is dropped

    def test_cd_observation_blank_line_skipped(self, tmp_path, capsys):
        config = ExperimentConfig.from_flat(load_config_file(self.cd_config(tmp_path, "index,value\n5,0.25\n\n10,-0.5\n")))
        target = build_target(config, tmp_path)
        assert target.obs_indices.tolist() == [5, 10] and target.observations.tolist() == [0.25, -0.5]

    def test_width_mismatch_exits_nonzero(self, tmp_path, capsys):
        config_path = tmp_path / "bad.txt"
        config_path.write_text(TINY_CONFIG.replace("[3, 8, 2]", "[3, 8, 4]"))
        code = main(["train", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "arch.widths" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n_proj", ["0", "-3"])
    def test_evaluate_without_projections_exits_2(self, tmp_path, capsys, n_proj):
        path = tmp_path / "s.csv"
        write_samples_csv(path, np.random.default_rng(4).standard_normal((20, 2)))
        assert main(["evaluate", str(path), str(path), "--n-proj", n_proj]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}, {path}: sliced_wd: n_proj must be at least 1, got {n_proj}\n"

    def test_unknown_metric_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("evaluate read a file or built a block")

        monkeypatch.setattr("ksivi.runio.read_samples_csv", refused)
        monkeypatch.setattr("ksivi.kernels.sq_blocks", refused)
        path = tmp_path / "s.csv"
        write_samples_csv(path, np.zeros((10, 2)))
        assert main(["evaluate", str(path), str(path), "--metrics", "mmd2,bogus"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown metric 'bogus'; expected some of sliced_wd,")

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", "{dir}/checkpoint.json", "--probes", "0"],
            ["diagnose", "{dir}/checkpoint.json", "--probes", "-2"],
            ["make-blr-data", "{dir}/w.csv", "--rows", "0"],
            ["make-blr-data", "{dir}/w.csv", "--rows", "-5"],
        ],
    )
    def test_count_flag_below_one_exits_2(self, tmp_path, capsys, argv):
        save_checkpoint(tmp_path / "checkpoint.json", siv_init(NetArch((3, 8, 2)), seed=3))
        argv = [arg.format(dir=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: must be at least 1, got {argv[-1]}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "w.csv").exists()

    def test_evaluate_dimension_mismatch(self, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a_path, np.zeros((10, 2)))
        write_samples_csv(b_path, np.zeros((10, 3)))
        assert main(["evaluate", str(a_path), str(b_path)]) == 2

    def test_diagnose_zero_checkpoint(self, tmp_path, capsys):
        params = zero_params(NetArch((3, 8, 2)))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, params)
        assert main(["diagnose", str(path), "--probes", "10", "--seed", "0"]) == 0
        record = json.loads(capsys.readouterr().out)
        # zero network: only final bias rows contribute, norm sqrt(2)
        assert np.isclose(record["mean_jacobian_norm"], np.sqrt(2.0))

    def test_diagnose_deterministic(self, tmp_path, capsys):
        params = siv_init(NetArch((3, 8, 2)), seed=3)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, params)
        outputs = []
        for _ in range(2):
            assert main(["diagnose", str(path), "--seed", "5"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_make_blr_data(self, tmp_path, capsys):
        path = tmp_path / "waveform.csv"
        assert main(["make-blr-data", str(path), "--rows", "25", "--seed", "3"]) == 0
        from ksivi.targets import load_blr_dataset

        target = load_blr_dataset(path)
        assert target.n_rows == 25 and target.dim == 22

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
from ksivi.cli import main

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

    def test_preset_data_generation(self, tmp_path, capsys):
        # blr preset generates its dataset on first use
        flat = get_preset("blr-waveform")
        flat["target.synthetic_rows"] = 30
        config = ExperimentConfig.from_flat(flat)
        target = build_target(config, tmp_path)
        assert (tmp_path / "waveform.csv").exists()
        assert target.dim == 22
        # conditioned diffusion preset generates observations on first use
        config = ExperimentConfig.from_flat(get_preset("cd-dim100"))
        target = build_target(config, tmp_path)
        assert (tmp_path / "cd_obs_dim100.csv").exists()
        assert target.dim == 100


class TestScipyLoadsOnDemand:
    """Only the k-d tree and the pdist fallbacks load scipy; each case runs in a fresh interpreter."""

    ORDER_SCRIPT = """
import json, runpy, sys
import ksivi.kernels

seen = []
build = ksivi.kernels.sq_blocks


def recorded(X, Y):
    seen.append("scipy" in sys.modules)
    return build(X, Y)


ksivi.kernels.sq_blocks = recorded
try:
    runpy.run_module("ksivi", run_name="__main__")
except SystemExit as exit:
    print(json.dumps({"code": exit.code, "scipy_at_blocks": seen, "scipy_at_end": "scipy" in sys.modules}))
"""

    def python(self, *args):
        env = {**os.environ, **{var: "1" for var in TestCLI.THREAD_VARS}}
        src = str(Path(ksivi.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc

    def scipy_imports(self, *argv):
        """The scipy modules that ``python -m ksivi ARGV`` imports, as ``-X importtime`` lists them."""
        stderr = self.python("-X", "importtime", "-m", "ksivi", *argv).stderr
        names = [line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if line.startswith("import time:")]
        assert "numpy" in names  # the listing is there to read
        return [name for name in names if name.split(".")[0] == "scipy"]

    def sample_files(self, tmp_path, d):
        rng = np.random.default_rng(11)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(a, rng.standard_normal((60, d)))
        write_samples_csv(b, rng.standard_normal((50, d)))
        return str(a), str(b)

    def test_train_sample_and_diagnose_never_load_scipy(self, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text(TINY_CONFIG + "sampler.n_particles = 20\nsampler.n_steps = 50\n")
        run = tmp_path / "run"
        assert self.scipy_imports("train", str(config), "--out", str(run)) == []
        assert self.scipy_imports("sample-ground-truth", str(config), "--out", str(tmp_path / "gt")) == []
        assert self.scipy_imports("diagnose", str(run / "checkpoint.json"), "--probes", "5") == []

    @pytest.mark.parametrize("d, loaded", [(KNN_TREE_MAX_DIM + 1, False), (KNN_TREE_MAX_DIM, True)])
    def test_evaluate_loads_scipy_only_for_the_tree(self, tmp_path, d, loaded):
        assert ("scipy.spatial" in self.scipy_imports("evaluate", *self.sample_files(tmp_path, d))) == loaded

    @pytest.mark.parametrize(
        "d, metrics, at_blocks, at_end",
        [
            (2, "kl_knn,mmd2", [True], True),
            (2, "sliced_wd,kl_knn,mmd2,corr", [True], True),
            (2, "mmd2", [False], False),
        ],
    )
    def test_tree_loads_before_the_blocks(self, tmp_path, d, metrics, at_blocks, at_end):
        argv = ["evaluate", *self.sample_files(tmp_path, d), "--metrics", metrics]
        record = json.loads(self.python("-c", self.ORDER_SCRIPT, *argv).stdout.strip().splitlines()[-1])
        assert record == {"code": 0, "scipy_at_blocks": at_blocks, "scipy_at_end": at_end}
