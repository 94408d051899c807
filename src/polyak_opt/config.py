"""Experiment configuration and the flat key=value config-file format.

A config file is plain text, one ``key = value`` per line, with ``#``
starting a comment and blank lines ignored. Values run to the end of the
line (minus any trailing comment), so paths and comma-separated lists need
no quoting. Every key has a default and ``parse_config(dump_config(cfg))``
reproduces ``cfg`` exactly — floats are printed with shortest round-trip
repr.

The ``dataset`` value is either a LIBSVM file path or a synthetic spec
``synth:<mode>:n=<int>,d=<int>[,noise=<float>][,seed=<int>]`` resolved by
``resolve_dataset``.
"""

from __future__ import annotations

import dataclasses
import gzip
import math
import zlib
from dataclasses import dataclass

from .baselines import SGD_SCHEDULES
from .data import Dataset, InputError, load_libsvm, synth_dataset
from .losses import LossSpec
from .polyak import HyperParams


class ConfigError(InputError):
    """Malformed config file, key, or value."""


_FORMATS = ("csv", "json")
_ORACLES = ("none", "closed", "iter")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset, loss, method, hyperparameters, and output.

    ``lam`` is spelled ``lambda`` in config files and on the command line.
    ``methods`` (comparison list) and the two grid axes are comma-separated
    strings so the file format stays flat. ``budget`` caps the ``iter``
    oracle's Newton iterations and, like ``epochs``, must be >= 1.
    """

    dataset: str = "synth:separable:n=100,d=20"
    normalize: bool = False
    family: str = "logistic"
    sigma: float = 0.0
    power_r: float = 1.0
    method: str = "sp"
    gamma: float = 0.9
    gamma_tau: float = 0.1
    lam: float = 0.1
    beta: float = 0.0
    step_cap: float = math.inf
    schedule: str = "constant"
    mu: float = 0.0
    epochs: int = 50
    seed: int = 0
    tau: float = 0.0
    fi_star: float = 0.0
    oracle: str = "none"
    budget: int = 500000
    out: str = ""
    format: str = "csv"
    methods: str = "sp,taps,motaps,sgd,sag,svrg"
    gamma_grid: str = "0.01,0.1,0.4,0.7,0.9,1.0,1.1"
    gamma_tau_grid: str = "1e-05,0.0001,0.001,0.01,0.1,0.5,0.9"
    sgd_schedule: str = "inverse"

    def __post_init__(self):
        for key, allowed in (("format", _FORMATS), ("oracle", _ORACLES), ("sgd_schedule", SGD_SCHEDULES)):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, got {getattr(self, key)!r}")
        for key in ("epochs", "budget"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
# "lambda" is a Python keyword, so the attribute is lam but the file/CLI key
# stays the conventional spelling.
_KEY_OF = {name: ("lambda" if name == "lam" else name) for name in _FIELDS}
_FIELD_OF = {key: name for name, key in _KEY_OF.items()}


def _coerce(key: str, raw: str):
    kind = type(_FIELDS[_FIELD_OF[key]].default)
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None
    return raw


def parse_updates(text: str) -> dict:
    """The settings a config text makes, as field name -> coerced value."""
    updates = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected key = value, got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_OF:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        updates[_FIELD_OF[key]] = _coerce(key, raw)
    return updates


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse config text on top of ``base`` (defaults when omitted); a value
    ``ExperimentConfig`` rejects is the ConfigError it raises."""
    return dataclasses.replace(base or ExperimentConfig(), **parse_updates(text))


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize every field; parse_config(dump_config(cfg)) == cfg. A string
    that would not read back as itself (one holding ``#`` or a line break,
    or with surrounding whitespace) is a ConfigError naming its key."""
    lines = []
    for name in _FIELDS:
        value, key = getattr(cfg, name), _KEY_OF[name]
        if isinstance(value, str) and ("#" in value or value != value.strip() or len(value.splitlines()) > 1):
            raise ConfigError(f"{key} = {value!r} cannot be written to a config file: "
                              "it holds '#' or a line break, or starts or ends with whitespace")
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_float_list(raw: str) -> list[float]:
    """Comma-separated floats (used for the grid axes)."""
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ConfigError("empty value list")
    try:
        return [float(part) for part in items]
    except ValueError as exc:
        raise ConfigError(f"bad float list {raw!r}: {exc}") from None


def resolve_dataset(spec: str) -> Dataset:
    """Load a LIBSVM path or build a ``synth:...`` dataset; a spec the
    generator rejects, a file that is not UTF-8 text, or a corrupt or
    truncated gzip file is a ConfigError."""
    if not spec.startswith("synth:"):
        try:
            return load_libsvm(spec)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{spec} is not UTF-8 text: {exc.reason}") from None
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ConfigError(f"{spec} is not a readable gzip file: {exc}") from None
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"synthetic spec must be synth:<mode>:k=v,..., got {spec!r}")
    _, mode, kvs = parts
    params = {"noise": 0.0, "seed": 0}
    for item in kvs.split(","):
        if "=" not in item:
            raise ConfigError(f"bad synthetic parameter {item!r} in {spec!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in ("n", "d", "seed", "noise"):
            raise ConfigError(f"unknown synthetic parameter {key!r} in {spec!r}")
        try:
            params[key] = float(raw) if key == "noise" else int(raw)
        except ValueError:
            raise ConfigError(f"bad value for {key} in {spec!r}: {raw!r}") from None
    if "n" not in params or "d" not in params:
        raise ConfigError(f"synthetic spec needs n= and d=: {spec!r}")
    try:
        data, _ = synth_dataset(params["seed"], params["n"], params["d"], mode, params["noise"])
    except ValueError as exc:
        raise ConfigError(f"{spec}: {exc}") from None
    return data


def make_loss_spec(cfg: ExperimentConfig) -> LossSpec:
    """The loss of ``cfg``; a value LossSpec rejects is the InputError it raises."""
    return LossSpec(family=cfg.family, sigma=cfg.sigma, power_r=cfg.power_r)


def make_hyper(cfg: ExperimentConfig, **overrides) -> HyperParams:
    """The step-size knobs of ``cfg``, with ``overrides`` (HyperParams field
    names; None keeps the value of ``cfg``) on top; a value HyperParams
    rejects is the InputError it raises."""
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(HyperParams)}
    fields.update((k, v) for k, v in overrides.items() if v is not None)
    return HyperParams(**fields)
