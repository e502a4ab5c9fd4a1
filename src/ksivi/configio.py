"""Experiment configuration: a TOML file read as dotted keys, and its one schema.

A config file is TOML, read by ``tomllib`` with nested tables flattened into
dotted keys; ``format_config`` writes one ``section.key = value`` line per key,
sorted, strings quoted as JSON does, so a written file parses back to the same
dict.

The schema: ``KEYS`` gives each key outside ``target.*`` a kind and a default,
and ``TARGET_KEYS`` does so for each target's ``target.*`` keys.  The one
kernel key is ``kernel.family``, read into ``TrainConfig.kernel_family``: imq
trains at offset 1, and rbf at the median bandwidth of each iteration's
samples.  A kind is ``int``, ``float`` (an integer widens; ``inf`` and
``nan`` are refused), ``str``, ``bool`` or ``[kind]``, a list; ``true`` and
``false`` are not numbers.  ``REQUIRED`` keys have no default, and a default
of ``None`` leaves the key unset.  A key outside the schema is rejected by
name.  ``MINIMUM`` bounds the seeds, sizes and counts, and blr's prior
precision ``target.alpha``, from below.  The four random streams (``init``,
``train``, ``eval``, ``sampler``) are seeded with ``run.seed`` plus their
``SEED_OFFSETS``, 0, 1, 2 and 3; no key seeds one apart from the others.  A
value that ``TrainConfig`` or ``SamplerConfig`` rejects is named by its key:
each of their messages opens with the field, which ``TRAIN_FIELDS`` and
``SAMPLER_FIELDS`` map to the key.
Every other check of a ``target.*`` value is made where the target is built:
``build_target`` passes each target's keys but blr's to its constructor as
keyword arguments of the same names, and a constructor's refusal opens with
the argument, so it too is named by its key.  blr's ``target.data_seed`` seeds
only generated rows: with ``target.data_path`` set it is refused, and left
unset.  ``config.txt`` holds the resolved config, every key the run read with
the value it used, so it reruns the run: ``build_target`` makes a target's
generated data from its keys on every run and keeps no file of it.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
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
    "kernel.family": (str, "rbf"),
    "anneal.start": (float, 1.0),
    "anneal.iterations": (int, 0),
    "sampler.algorithm": (str, "sgld"),
    "sampler.n_particles": (int, 1000),
    "sampler.n_steps": (int, 10_000),
    "sampler.step_size": (float, 1e-4),
    "eval.sample_size": (int, 1000),
}

SEED_OFFSETS = {"init": 0, "train": 1, "eval": 2, "sampler": 3}  # each stream's seed is run.seed plus its offset

# numpy takes no negative seed, and the data generators, samplers and targets
# no empty size; a negative thread or annealing count would silently mean none,
# and a negative blr prior precision makes the posterior improper
MINIMUM = dict.fromkeys(["run.seed", "run.threads", "anneal.iterations"], 0)
MINIMUM.update(dict.fromkeys(["target.data_seed", "target.obs_seed", "target.alpha"], 0))
MINIMUM.update(dict.fromkeys(["eval.sample_size", "target.synthetic_rows", "target.dim"], 1))

# the fields of the settings built from the config, and their keys
TRAIN_FIELDS = {
    "iterations": "train.iterations",
    "batch_size": "train.batch_size",
    "learning_rate": "train.learning_rate",
    "estimator": "train.estimator",
    "kernel_family": "kernel.family",
    "anneal_start": "anneal.start",
    "anneal_iterations": "anneal.iterations",
}
SAMPLER_FIELDS = {field: f"sampler.{field}" for field in ("n_particles", "n_steps", "step_size")}

TARGET_KEYS = {
    "banana": {},
    "multimodal": {},
    "xshaped": {},
    "student_product": {"nu": (float, 2.0), "width": (float, 1.0), "dim": (int, 2)},
    "blr": {  # exactly one of data_path and synthetic_rows; data_seed seeds the synthetic rows
        "data_path": (str, None),
        "synthetic_rows": (int, None),
        "data_seed": (int, 0),
        "alpha": (float, 0.01),
    },
    "conditioned_diffusion": {
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
    if kind is float and not math.isfinite(value):  # nan passes every range check
        raise ConfigError(key, f"expected a finite float, got {value}")
    return float(value) if kind is float else value


def _take(flat, key, kind, default):
    if key not in flat:
        if default is REQUIRED:
            raise ConfigError(key, "missing required key")
        return default
    return _checked(key, flat[key], kind)


def _at_least(key, value):
    """``value``, else a ``ConfigError`` on ``key`` if it lies below ``MINIMUM[key]``."""
    if value < MINIMUM[key]:
        raise ConfigError(key, f"must be at least {MINIMUM[key]}, got {value}")
    return value


@contextmanager
def _blame_field(key_of):
    """Re-raise a ``ValueError`` whose message opens with a field as a ``ConfigError`` on ``key_of(field)``."""
    try:
        yield
    except ValueError as err:
        fieldname, _, rule = str(err).partition(" ")
        raise ConfigError(key_of(fieldname), rule) from None


def _settings(cls, fields: dict, flat: dict, **given):
    """``cls`` with each field whose key is in ``flat`` read from it, and ``given``.

    Each of ``cls``'s messages opens with the field it rejects, so its
    ``ValueError`` becomes a ``ConfigError`` on that field's key.
    """
    with _blame_field(fields.__getitem__):
        return cls(**{field: flat[key] for field, key in fields.items() if key in flat}, **given)


def thread_count(flat: dict) -> int:
    """``run.threads`` of a flat config; 0 leaves the BLAS default.

    Read and bounded by ``MINIMUM`` without loading numpy, so the count can be
    pinned before the BLAS runtime starts, and a refused one is not;
    ``ExperimentConfig.from_flat`` loads numpy.
    """
    return _at_least("run.threads", _take(flat, "run.threads", *KEYS["run.threads"]))


@dataclass
class ExperimentConfig:
    """Resolved experiment settings; ``flat`` holds every key the run reads, with its value."""

    name: str
    widths: tuple[int, ...]
    rho_init: float
    init_seed: int
    train: "object"  # ksivi.train.TrainConfig, constructed lazily
    sampler: dict  # the algorithm and every SamplerConfig field
    eval_sample_size: int
    eval_seed: int
    flat: dict = field(repr=False)

    @classmethod
    def from_flat(cls, flat: dict) -> "ExperimentConfig":
        """Check ``flat`` against the schema, fill in its defaults and build the settings."""
        from .samplers import RUNNERS, SamplerConfig
        from .train import TrainConfig

        target = _take(flat, "target.name", *KEYS["target.name"])
        if target not in TARGET_KEYS:
            raise ConfigError("target.name", f"unknown target {target!r}")
        schema = {**KEYS, **{f"target.{key}": spec for key, spec in TARGET_KEYS[target].items()}}
        unknown = sorted(set(flat) - set(schema))
        if unknown:
            raise ConfigError(", ".join(unknown), "unknown key")
        resolved = {key: _take(flat, key, *spec) for key, spec in schema.items()}
        if resolved.get("target.data_path") is not None:  # the file is the data; no seed makes it
            if "target.data_seed" in flat:
                raise ConfigError("target.data_seed", "does nothing when target.data_path is set")
            resolved["target.data_seed"] = None
        flat = {key: value for key, value in resolved.items() if value is not None}
        for key in MINIMUM:
            if key in flat:
                _at_least(key, flat[key])

        widths = flat["arch.widths"]
        if len(widths) < 2 or min(widths) < 1:
            raise ConfigError("arch.widths", f"need a list of >= 2 positive integers, got {widths}")
        seeds = {stream: flat["run.seed"] + offset for stream, offset in SEED_OFFSETS.items()}
        train = _settings(TrainConfig, TRAIN_FIELDS, flat, seed=seeds["train"])
        if flat["sampler.algorithm"] not in RUNNERS:
            raise ConfigError("sampler.algorithm", f"unknown algorithm {flat['sampler.algorithm']!r}")
        sampler = _settings(SamplerConfig, SAMPLER_FIELDS, flat, seed=seeds["sampler"])
        return cls(
            name=flat["experiment.name"],
            widths=tuple(widths),
            rho_init=flat["init.rho"],
            init_seed=seeds["init"],
            train=train,
            sampler={"algorithm": flat["sampler.algorithm"], **asdict(sampler)},
            eval_sample_size=flat["eval.sample_size"],
            eval_seed=seeds["eval"],
            flat=flat,
        )


def build_target(config: ExperimentConfig, data_dir) -> "object":
    """Construct the configured target from its ``target.*`` keys alone.

    Every target but blr is one call of its constructor with its keys as
    keyword arguments; the constructor checks their values, and a refusal's
    message opens with the argument, so a ``ConfigError`` names its key
    (``MINIMUM`` and the kinds of ``TARGET_KEYS`` are checked before, by
    ``ExperimentConfig.from_flat``).  Generated inputs are built in memory on
    every run and no file is written: blr's ``target.synthetic_rows`` rows of
    ``make_waveform_dataset`` from ``target.data_seed``, and the diffusion's
    path and observations, which ``ConditionedDiffusion`` draws from
    ``target.obs_seed``.  The one file read is blr's ``target.data_path``, a
    real dataset, which resolves against ``data_dir``; a blr config sets
    exactly one of the two, and a data file that the loader rejects is named
    by ``target.data_path``.
    """
    from . import targets

    name = config.flat["target.name"]
    params = {key: config.flat.get(f"target.{key}") for key in TARGET_KEYS[name]}
    if name == "blr":
        if (params["data_path"] is None) == (params["synthetic_rows"] is None):
            raise ConfigError("target.data_path, target.synthetic_rows", "set exactly one")
        if params["data_path"] is None:
            features, labels = targets.make_waveform_dataset(params["synthetic_rows"], params["data_seed"])
            return targets.LogisticRegression.from_features(features, labels, alpha=params["alpha"])
        try:
            return targets.load_blr_dataset(Path(data_dir) / params["data_path"], alpha=params["alpha"])
        except ValueError as err:
            raise ConfigError("target.data_path", str(err)) from None
    constructors = {
        "banana": targets.Banana,
        "multimodal": targets.multimodal_target,
        "xshaped": targets.xshaped_target,
        "student_product": targets.StudentTProduct,
        "conditioned_diffusion": targets.ConditionedDiffusion,
    }
    with _blame_field("target.{}".format):
        return constructors[name](**params)


def validate_against_target(config: ExperimentConfig, target) -> None:
    if config.widths[-1] != target.dim:
        raise ConfigError(
            "arch.widths",
            f"output width {config.widths[-1]} != target dimension {target.dim}",
        )
