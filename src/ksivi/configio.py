"""Experiment configuration: a TOML file read as dotted keys, and its one schema.

A config file is TOML, read by ``tomllib`` with nested tables flattened into
dotted keys; ``format_config`` writes one ``section.key = value`` line per key,
sorted, strings quoted as JSON does, so a written file parses back to the same
dict.  Unlike the hand parser this replaced, inline comments and ``[section]``
tables now work, while ``.5``, ``5.`` and a bare backslash inside ``"..."`` are
not valid TOML and are rejected.

The schema: ``KEYS`` gives each key outside ``target.*`` a kind and a default,
and ``TARGET_KEYS`` does so for each target's ``target.*`` keys.  A kind is
``int``, ``float`` (an integer widens), ``str``, ``bool`` or ``[kind]``, a list;
``true`` and ``false`` are not numbers.  ``REQUIRED`` keys have no default, and
a default of ``None`` leaves the key unset.  Unless set, the four seeds in
``SEED_OFFSETS`` (``init``, ``train``, ``eval``, ``sampler``) are ``run.seed``
plus 0, 1, 2 and 3.  ``MINIMUM`` bounds the seeds and sizes from below.  Any
other key is rejected by name.  ``config.txt`` holds the resolved config, every
key with the value the run used, so it reruns the run.

``sampler.burn_in`` and ``sampler.thin`` shape only ``SamplerRun.history``,
which no command collects yet.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Configuration problem tied to a named field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


def _flatten(table: dict, prefix: str, out: dict) -> dict:
    for key, value in table.items():
        if isinstance(value, dict):
            _flatten(value, f"{prefix}{key}.", out)
        elif prefix + key in out:  # a quoted key with a dot, e.g. "a.b" next to a.b
            raise ConfigError(prefix + key, "duplicate key")
        else:
            out[prefix + key] = value
    return out


def parse_config_text(text: str) -> dict:
    """Parse TOML text into a dict of dotted keys, nested tables flattened."""
    import tomllib  # here, so that loading this module does not load it

    try:
        return _flatten(tomllib.loads(text), "", {})
    except tomllib.TOMLDecodeError as err:
        raise ConfigError("config", str(err)) from None


def _format_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(item) for item in value) + "]"
    if isinstance(value, float):
        return repr(value)  # JSON would spell inf and nan its own way
    # JSON's true, false, integers and string escapes are TOML's, but TOML forbids a raw DEL
    return json.dumps(value, ensure_ascii=False).replace("\x7f", "\\u007f")


def format_config(flat: dict) -> str:
    """Render a dotted-key dict as TOML, one ``key = value`` line per key, keys sorted."""
    return "\n".join(f"{key} = {_format_value(flat[key])}" for key in sorted(flat)) + "\n"


def load_config_file(path) -> dict:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


REQUIRED = object()

KEYS = {
    "experiment.name": (str, "custom"),
    "run.seed": (int, 0),
    "run.threads": (int, 0),  # 0 leaves the BLAS default
    "target.name": (str, REQUIRED),
    "arch.widths": ([int], REQUIRED),
    "init.rho": (float, 0.0),
    "train.iterations": (int, REQUIRED),
    "train.batch_size": (int, REQUIRED),
    "train.learning_rate": (float, REQUIRED),
    "train.estimator": (str, "vanilla"),
    "train.log_every": (int, 1),
    "kernel.family": (str, "rbf"),
    "kernel.bandwidth": (float, 1.0),
    "kernel.offset": (float, 1.0),
    "kernel.smoothing": (float, 1e-8),
    "kernel.bandwidth_rule": (str, "median"),
    "anneal.start": (float, 1.0),
    "anneal.iterations": (int, 0),
    "reg.weight": (float, 0.0),
    "clip.norm": (float, None),
    "sampler.algorithm": (str, "sgld"),
    "sampler.n_particles": (int, 1000),
    "sampler.n_steps": (int, 10_000),
    "sampler.step_size": (float, 1e-4),
    "sampler.burn_in": (int, 0),
    "sampler.thin": (int, 1),
    "eval.sample_size": (int, 1000),
    "output.trace_wallclock": (bool, False),
}

SEED_OFFSETS = {"init.seed": 0, "train.seed": 1, "eval.seed": 2, "sampler.seed": 3}

# numpy takes no negative seed, and the data generators and samplers no empty size
MINIMUM = dict.fromkeys(["run.seed", *SEED_OFFSETS, "target.data_seed", "target.obs_seed"], 0)
MINIMUM.update(dict.fromkeys(["eval.sample_size", "target.synthetic_rows", "target.n_steps", "target.obs_stride"], 1))

TARGET_KEYS = {
    "banana": {},
    "multimodal": {},
    "xshaped": {},
    "gaussian": {"mean": ([float], REQUIRED), "variances": ([float], REQUIRED)},
    "student_product": {"nu": (float, 2.0), "width": (float, 1.0), "dim": (int, 2)},
    "blr": {
        "data_path": (str, REQUIRED),
        "synthetic_rows": (int, None),  # unset: a missing dataset is an error
        "data_seed": (int, 0),
        "alpha": (float, 0.01),
    },
    "conditioned_diffusion": {
        "obs_path": (str, REQUIRED),
        "obs_seed": (int, 0),
        "n_steps": (int, 100),
        "dt": (float, 0.01),
        "obs_stride": (int, 5),
    },
}


def _checked(key, value, kind):
    """``value`` as ``kind`` (see the module docstring), else a ``ConfigError`` on ``key``."""
    if isinstance(kind, list):
        return [_checked(key, item, kind[0]) for item in _checked(key, value, list)]
    # bool subclasses int, but true and false are not numbers
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(key, f"expected {kind.__name__}, got {type(value).__name__}")
    return float(value) if kind is float else value


def _take(flat, key, kind, default):
    if key not in flat:
        if default is REQUIRED:
            raise ConfigError(key, "missing required key")
        return default
    return _checked(key, flat[key], kind)


@contextmanager
def _blame(fieldname):
    """Re-raise a ``ValueError`` from the block as a ``ConfigError`` on ``fieldname``."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(fieldname, str(err)) from None


def thread_count(flat: dict) -> int:
    """``run.threads`` of a flat config; 0 leaves the BLAS default.

    Read without loading numpy, so the count can be pinned before the BLAS
    runtime starts; ``ExperimentConfig.from_flat`` loads numpy.
    """
    return _take(flat, "run.threads", *KEYS["run.threads"])


@dataclass
class ExperimentConfig:
    """Resolved experiment settings; ``flat`` holds every key of the schema."""

    name: str
    widths: tuple[int, ...]
    rho_init: float
    init_seed: int
    train: "object"  # ksivi.train.TrainConfig, constructed lazily
    sampler: dict  # the sampler.* keys, without the prefix
    eval_sample_size: int
    eval_seed: int
    flat: dict = field(repr=False)

    @classmethod
    def from_flat(cls, flat: dict) -> "ExperimentConfig":
        """Check ``flat`` against the schema, fill in its defaults and build the settings."""
        from .kernels import KernelSpec
        from .samplers import SamplerConfig
        from .train import TrainConfig

        target = _take(flat, "target.name", *KEYS["target.name"])
        if target not in TARGET_KEYS:
            raise ConfigError("target.name", f"unknown target {target!r}")
        seed = _take(flat, "run.seed", *KEYS["run.seed"])
        schema = {
            **KEYS,
            **{key: (int, seed + offset) for key, offset in SEED_OFFSETS.items()},
            **{f"target.{key}": spec for key, spec in TARGET_KEYS[target].items()},
        }
        unknown = sorted(set(flat) - set(schema))
        if unknown:
            raise ConfigError(", ".join(unknown), "unknown key")
        resolved = {key: _take(flat, key, *spec) for key, spec in schema.items()}
        flat = {key: value for key, value in resolved.items() if value is not None}
        for key, least in MINIMUM.items():
            if flat.get(key, least) < least:
                raise ConfigError(key, f"must be at least {least}, got {flat[key]}")

        widths = flat["arch.widths"]
        if len(widths) < 2 or min(widths) < 1:
            raise ConfigError("arch.widths", f"need a list of >= 2 positive integers, got {widths}")
        with _blame("kernel"):
            kernel = KernelSpec(
                family=flat["kernel.family"],
                bandwidth=flat["kernel.bandwidth"],
                offset=flat["kernel.offset"],
                smoothing=flat["kernel.smoothing"],
            )
        with _blame("train"):
            train = TrainConfig(
                iterations=flat["train.iterations"],
                batch_size=flat["train.batch_size"],
                learning_rate=flat["train.learning_rate"],
                estimator=flat["train.estimator"],
                kernel=kernel,
                bandwidth_rule=flat["kernel.bandwidth_rule"],
                anneal_start=flat["anneal.start"],
                anneal_iterations=flat["anneal.iterations"],
                reg_weight=flat["reg.weight"],
                clip_norm=flat.get("clip.norm"),
                seed=flat["train.seed"],
                log_every=flat["train.log_every"],
            )

        sampler = {key[len("sampler.") :]: value for key, value in flat.items() if key.startswith("sampler.")}
        if sampler["algorithm"] not in ("sgld", "mala"):
            raise ConfigError("sampler.algorithm", f"unknown algorithm {sampler['algorithm']!r}")
        try:
            SamplerConfig(**{key: value for key, value in sampler.items() if key != "algorithm"})
        except ValueError as err:
            # each of SamplerConfig's messages opens with the field it rejects
            fieldname, _, rule = str(err).partition(" ")
            raise ConfigError(f"sampler.{fieldname}", rule) from None
        return cls(
            name=flat["experiment.name"],
            widths=tuple(widths),
            rho_init=flat["init.rho"],
            init_seed=flat["init.seed"],
            train=train,
            sampler=sampler,
            eval_sample_size=flat["eval.sample_size"],
            eval_seed=flat["eval.seed"],
            flat=flat,
        )

    def resolved_flat(self) -> dict:
        """Every key of the schema with its resolved value; unset keys are left out."""
        return dict(self.flat)


def build_target(config: ExperimentConfig, data_dir) -> "object":
    """Construct the configured target, generating data files when allowed.

    Data paths resolve against ``data_dir``.  Synthetic regression data and
    diffusion observations are generated (seeded) and written on first use so
    preset experiments are self-contained and repeatable.  A value or a data
    file the target rejects raises a ``ConfigError`` naming its ``target.*`` key.
    """
    from . import targets

    name = config.flat["target.name"]
    params = {key: config.flat.get(f"target.{key}") for key in TARGET_KEYS[name]}
    data_dir = Path(data_dir)

    if name == "banana":
        return targets.Banana()
    if name == "multimodal":
        return targets.multimodal_target()
    if name == "xshaped":
        return targets.xshaped_target()
    if name == "gaussian":
        with _blame("target.mean, target.variances"):
            return targets.diagonal_gaussian(params["mean"], params["variances"])
    if name == "student_product":
        with _blame("target.nu, target.width, target.dim"):
            return targets.StudentTProduct(**params)
    if name == "blr":
        path = data_dir / params["data_path"]
        if not path.exists():
            if params["synthetic_rows"] is None:
                raise ConfigError("target.data_path", f"dataset {path} not found")
            path.parent.mkdir(parents=True, exist_ok=True)
            with _blame("target.synthetic_rows"):
                features, labels = targets.make_waveform_dataset(params["synthetic_rows"], params["data_seed"])
            targets.save_blr_dataset(path, features, labels)
        with _blame("target.data_path"):
            return targets.load_blr_dataset(path, alpha=params["alpha"])
    # conditioned_diffusion, the last name TARGET_KEYS admits
    path = data_dir / params["obs_path"]
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        with _blame("target.n_steps"):
            idx, obs, _ = targets.generate_cd_observations(
                params["obs_seed"], n_steps=params["n_steps"], dt=params["dt"], obs_stride=params["obs_stride"]
            )
        targets.save_cd_observations(path, idx, obs)
    with _blame("target.obs_path"):
        idx, obs = targets.load_cd_observations(path)
        return targets.ConditionedDiffusion(idx, obs, n_steps=params["n_steps"], dt=params["dt"])


def validate_against_target(config: ExperimentConfig, target) -> None:
    if config.widths[-1] != target.dim:
        raise ConfigError(
            "arch.widths",
            f"output width {config.widths[-1]} != target dimension {target.dim}",
        )
