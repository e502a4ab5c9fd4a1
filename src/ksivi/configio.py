"""Experiment configuration: a flat dotted-key text format plus validation.

The file format is a deliberately tiny subset of TOML so it stays
human-diffable and trivially parseable: one ``section.key = value`` pair per
line, ``#`` comments, values limited to integers, floats, booleans, quoted
strings, and flat lists thereof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Configuration problem tied to a named field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


def _parse_scalar(token: str, fieldname: str):
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ConfigError(fieldname, f"cannot parse value {token!r}")


def parse_config_text(text: str) -> dict:
    """Parse the flat key-value format into a dict of dotted keys."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        if key in out:
            raise ConfigError(key, "duplicate key")
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            items = [t for t in (s.strip() for s in inner.split(",")) if t] if inner else []
            out[key] = [_parse_scalar(t, key) for t in items]
        else:
            out[key] = _parse_scalar(value, key)
    return out


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(flat: dict) -> str:
    """Render a dotted-key dict back to the flat text format, keys sorted."""
    lines = []
    for key in sorted(flat):
        value = flat[key]
        if isinstance(value, (list, tuple)):
            rendered = "[" + ", ".join(_format_scalar(v) for v in value) + "]"
        else:
            rendered = _format_scalar(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def load_config_file(path) -> dict:
    return parse_config_text(Path(path).read_text())


def _take(flat, key, default=None, required=False, kind=None):
    if key not in flat:
        if required:
            raise ConfigError(key, "missing required key")
        return default
    value = flat[key]
    if kind is not None and not isinstance(value, kind):
        if kind is float and isinstance(value, int):
            return float(value)
        raise ConfigError(key, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


class _KeyReads(dict):
    """A flat config that records every key ``_take`` asks for (with ``in``)."""

    def __init__(self, flat):
        super().__init__(flat)
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def thread_count(flat: dict) -> int:
    """``run.threads`` of a flat config; 0 leaves the BLAS default.

    Read without loading numpy, so the count can be pinned before the BLAS
    runtime starts; ``ExperimentConfig.from_flat`` loads numpy.
    """
    return _take(flat, "run.threads", 0, kind=int)


@dataclass
class ExperimentConfig:
    """Resolved experiment settings; see ``from_flat`` for the schema."""

    name: str
    target_name: str
    target_params: dict
    widths: tuple[int, ...]
    rho_init: float
    init_seed: int
    train: "object"  # ksivi.train.TrainConfig, constructed lazily
    sampler: dict
    eval_sample_size: int
    eval_seed: int
    metrics: tuple[str, ...]
    master_seed: int
    threads: int
    trace_wallclock: bool
    flat: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_flat(cls, flat: dict, defaults_name: str = "custom") -> "ExperimentConfig":
        """Resolve a flat config, rejecting keys outside ``target.*`` that no setting reads."""
        from .kernels import KernelSpec
        from .train import TrainConfig

        flat = _KeyReads(flat)

        def take(key, default=None, required=False, kind=None):
            return _take(flat, key, default, required, kind)

        master_seed = take("run.seed", 0, kind=int)
        name = take("experiment.name", defaults_name, kind=str)
        target_name = take("target.name", required=True, kind=str)
        target_params = {
            key.split(".", 1)[1]: value
            for key, value in flat.items()
            if key.startswith("target.") and key != "target.name"
        }

        widths = take("arch.widths", required=True, kind=list)
        if not all(isinstance(w, int) and w >= 1 for w in widths) or len(widths) < 2:
            raise ConfigError("arch.widths", f"need a list of >= 2 positive integers, got {widths}")

        kernel = KernelSpec(
            family=take("kernel.family", "rbf", kind=str),
            bandwidth=take("kernel.bandwidth", 1.0, kind=float),
            offset=take("kernel.offset", 1.0, kind=float),
            smoothing=take("kernel.smoothing", 1e-8, kind=float),
        )
        clip = take("clip.norm", None, kind=float)
        try:
            train = TrainConfig(
                iterations=take("train.iterations", required=True, kind=int),
                batch_size=take("train.batch_size", required=True, kind=int),
                learning_rate=take("train.learning_rate", required=True, kind=float),
                estimator=take("train.estimator", "vanilla", kind=str),
                kernel=kernel,
                bandwidth_rule=take("kernel.bandwidth_rule", "median", kind=str),
                anneal_start=take("anneal.start", 1.0, kind=float),
                anneal_iterations=take("anneal.iterations", 0, kind=int),
                reg_weight=take("reg.weight", 0.0, kind=float),
                clip_norm=clip,
                seed=take("train.seed", master_seed + 1, kind=int),
                log_every=take("train.log_every", 1, kind=int),
            )
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError("train", str(err))

        sampler = {
            "algorithm": take("sampler.algorithm", "sgld", kind=str),
            "n_particles": take("sampler.n_particles", 1000, kind=int),
            "n_steps": take("sampler.n_steps", 10_000, kind=int),
            "step_size": take("sampler.step_size", 1e-4, kind=float),
            "burn_in": take("sampler.burn_in", 0, kind=int),
            "thin": take("sampler.thin", 1, kind=int),
            "seed": take("sampler.seed", master_seed + 3, kind=int),
        }
        if sampler["algorithm"] not in ("sgld", "mala"):
            raise ConfigError("sampler.algorithm", f"unknown algorithm {sampler['algorithm']!r}")

        metrics = take("metrics.list", ["sliced_wd", "kl_knn", "mmd2", "corr"], kind=list)

        config = cls(
            name=name,
            target_name=target_name,
            target_params=target_params,
            widths=tuple(widths),
            rho_init=take("init.rho", 0.0, kind=float),
            init_seed=take("init.seed", master_seed, kind=int),
            train=train,
            sampler=sampler,
            eval_sample_size=take("eval.sample_size", 1000, kind=int),
            eval_seed=take("eval.seed", master_seed + 2, kind=int),
            metrics=tuple(metrics),
            master_seed=master_seed,
            threads=thread_count(flat),
            trace_wallclock=take("output.trace_wallclock", False, kind=bool),
            flat=dict(flat),
        )
        unknown = sorted(k for k in flat if k not in flat.read and not k.startswith("target."))
        if unknown:
            raise ConfigError(", ".join(unknown), "unknown key")
        return config

    def resolved_flat(self) -> dict:
        """Flat dict with every derived default materialized."""
        out = dict(self.flat)
        out["experiment.name"] = self.name
        out["run.seed"] = self.master_seed
        out["init.seed"] = self.init_seed
        out["init.rho"] = self.rho_init
        out["train.seed"] = self.train.seed
        out["eval.seed"] = self.eval_seed
        out["eval.sample_size"] = self.eval_sample_size
        out["sampler.seed"] = self.sampler["seed"]
        out["metrics.list"] = list(self.metrics)
        out["output.trace_wallclock"] = self.trace_wallclock
        return out


def build_target(config: ExperimentConfig, data_dir) -> "object":
    """Construct the configured target, generating data files when allowed.

    Data paths resolve against ``data_dir``.  Synthetic regression data and
    diffusion observations are generated (seeded) and written on first use so
    preset experiments are self-contained and repeatable.
    """
    from . import targets

    params = config.target_params
    name = config.target_name
    data_dir = Path(data_dir)

    if name == "banana":
        return targets.Banana()
    if name == "multimodal":
        return targets.multimodal_target()
    if name == "xshaped":
        return targets.xshaped_target()
    if name == "gaussian":
        mean = params.get("mean")
        variances = params.get("variances")
        if mean is None or variances is None:
            raise ConfigError("target.mean", "gaussian target needs target.mean and target.variances")
        return targets.diagonal_gaussian(mean, variances)
    if name == "student_product":
        return targets.StudentTProduct(
            nu=params.get("nu", 2.0), width=params.get("width", 1.0), dim=params.get("dim", 2)
        )
    if name == "blr":
        rel = params.get("data_path")
        if rel is None:
            raise ConfigError("target.data_path", "blr target needs a dataset path")
        path = data_dir / rel
        if not path.exists():
            rows = params.get("synthetic_rows")
            if rows is None:
                raise ConfigError("target.data_path", f"dataset {path} not found")
            path.parent.mkdir(parents=True, exist_ok=True)
            features, labels = targets.make_waveform_dataset(rows, params.get("data_seed", 0))
            targets.save_blr_dataset(path, features, labels)
        return targets.load_blr_dataset(path, alpha=params.get("alpha", 0.01))
    if name == "conditioned_diffusion":
        n_steps = params.get("n_steps", 100)
        dt = params.get("dt", 0.01)
        stride = params.get("obs_stride", 5)
        rel = params.get("obs_path")
        if rel is None:
            raise ConfigError("target.obs_path", "conditioned diffusion needs an observation path")
        path = data_dir / rel
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            idx, obs, _ = targets.generate_cd_observations(
                params.get("obs_seed", 0), n_steps=n_steps, dt=dt, obs_stride=stride
            )
            targets.save_cd_observations(path, idx, obs)
        idx, obs = targets.load_cd_observations(path)
        return targets.ConditionedDiffusion(idx, obs, n_steps=n_steps, dt=dt)
    raise ConfigError("target.name", f"unknown target {name!r}")


def validate_against_target(config: ExperimentConfig, target) -> None:
    if config.widths[-1] != target.dim:
        raise ConfigError(
            "arch.widths",
            f"output width {config.widths[-1]} != target dimension {target.dim}",
        )
