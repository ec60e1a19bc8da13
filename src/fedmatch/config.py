"""Experiment configuration: strict JSON in, fully-defaulted dataclass out.

The frozen dataclasses below are the schema: the parser takes the allowed
keys, the required keys and each value's type from their fields.  Unknown
keys are rejected (typos must not silently fall back to defaults), every
field is type- and range-checked with the offending field named in the
error, and the materialized config can be echoed back to JSON so a run
directory records exactly what produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .losses import LossSettings
from .models import arch_for_task
from .tuner import HyperAxis, HyperGrid, default_grid

TASKS = ("mnist", "cifar10", "kws", "synthetic")
PARTITIONS = ("iid", "non_iid")
AGGREGATIONS = ("literal", "renormalized")
UPDATE_SIGNS = ("ascent", "descent")


class ConfigError(ValueError):
    """A config file is malformed; the message names the field."""


@dataclass(frozen=True)
class TunerConfig:
    axes: tuple[HyperAxis, ...] | None = None  # None -> task default grid
    window: int = 10
    hyper_lr: float = 0.1
    init_std: float = 0.2
    freeze_precision: bool = False
    update_sign: str = "ascent"


@dataclass(frozen=True)
class ScheduleConfig:
    """Fixed baseline: lr halves every rounds/3, iteration count constant."""

    initial_lr: float = 0.1
    iterations: int = 30


@dataclass(frozen=True)
class LossConfig:
    matching_coeff: float = 1.0
    wd_coeff: float = 0.1
    min_entropy: float = 0.5
    use_er: bool = True
    match_input_site: bool = True


@dataclass(frozen=True)
class SyntheticConfig:
    classes: int = 10
    per_class: int = 200
    test_per_class: int = 50
    input_dim: int = 784
    spread: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    seed: int
    output_dir: str = ""  # from_dict fills in runs/<task>-seed<seed>
    data_dir: str | None = None
    partition: str = "iid"
    use_tuner: bool = False
    use_matching: bool = False
    use_wd: bool = False
    aggregation: str = "literal"
    n_clients: int = 10
    client_fraction: float = 1.0
    rounds: int = 200
    batch_size: int = 64
    validation_size: int = 1000
    eval_every: int = 10
    train_subset: int | None = None
    parallel_clients: int = 1
    loss: LossConfig = field(default_factory=LossConfig)
    tuner: TunerConfig = field(default_factory=TunerConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)

    @property
    def arch_name(self) -> str:
        return arch_for_task(self.task)

    def loss_settings(self) -> LossSettings:
        return LossSettings(
            use_matching=self.use_matching,
            use_wd=self.use_wd,
            use_er=self.loss.use_er,
            matching_coeff=self.loss.matching_coeff,
            wd_coeff=self.loss.wd_coeff,
            min_entropy=self.loss.min_entropy,
        )

    def hyper_grid(self) -> HyperGrid:
        if self.tuner.axes is not None:
            return HyperGrid(axes=self.tuner.axes)
        return default_grid(self.task)


# ---------------------------------------------------------------------------
# Parsing: the dataclasses above are the schema


IDENTITY_KEYS = ("seed", "output_dir", "data_dir")


def strip_identity(d: dict) -> dict:
    """A config dict without the keys that name a run rather than an experiment."""
    return {k: v for k, v in d.items() if k not in IDENTITY_KEYS}


_KIND_NAMES = {bool: "a boolean", int: "an integer", str: "a string"}


def _number(v, label: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{label} must be a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{label} must be a finite number, got {v!r}")
    return v


def _value(kind, v, label: str):
    """Check one JSON value against a field's type and return it typed."""
    if is_dataclass(kind):
        if not isinstance(v, dict):
            raise ConfigError(f"{label} must be an object, got {v!r}")
        return _parse_section(kind, v, label)
    if isinstance(kind, UnionType):  # `X | None`
        kind = get_args(kind)[0]
        if get_origin(kind) is tuple:  # tuner.axes, where null is no grid
            return _parse_axes(v, label)
        if v is None:
            return None
    if kind is float:
        return _number(v, label)
    if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
        raise ConfigError(f"{label} must be {_KIND_NAMES[kind]}, got {v!r}")
    return v


def _parse_section(cls, d: dict, section: str = ""):
    """Build `cls` from `d`: keys, required keys and types come from its fields."""
    where = f" in section {section!r}" if section else ""
    fields_ = fields(cls)
    unknown = set(d) - {f.name for f in fields_}
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}{where}")
    kinds = get_type_hints(cls)
    values = {}
    for f in fields_:
        if f.name in d:
            label = f"{section}.{f.name}" if section else f.name
            values[f.name] = _value(kinds[f.name], d[f.name], label)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {f.name!r}{where}")
    return cls(**values)


def _parse_axes(raw, label: str) -> tuple[HyperAxis, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{label} must be a non-empty list")
    axes = []
    for i, entry in enumerate(raw):
        where = f"{label}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be an object")
        unknown = set(entry) - {"name", "values", "integer"}
        if unknown:
            raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section {where!r}")
        if "name" not in entry:
            raise ConfigError(f"missing required key 'name' in section {where!r}")
        name = _value(str, entry["name"], f"{where}.name")
        values = entry.get("values")
        if (not isinstance(values, list) or not values
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in values)):
            raise ConfigError(f"{where}.values must be a list of numbers")
        values = tuple(_number(v, f"{where}.values") for v in values)
        integer = entry.get("integer", all(v == int(v) for v in values))
        if not isinstance(integer, bool):
            raise ConfigError(f"{where}.integer must be a boolean")
        try:
            axes.append(HyperAxis(name, values, integer))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from e
    return tuple(axes)


def from_dict(d: dict) -> ExperimentConfig:
    """Validate a raw JSON object and fill in every default."""
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _parse_section(ExperimentConfig, d)
    if "output_dir" not in d:
        cfg = replace(cfg, output_dir=f"runs/{cfg.task}-seed{cfg.seed}")
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """Range and cross-field checks; the types are already checked."""
    if cfg.task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {cfg.task!r}")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if not cfg.output_dir:
        raise ConfigError("output_dir must be non-empty")
    loss, tuner, schedule, synthetic = cfg.loss, cfg.tuner, cfg.schedule, cfg.synthetic
    if loss.matching_coeff < 0 or loss.wd_coeff < 0 or loss.min_entropy < 0:
        raise ConfigError("loss coefficients must be non-negative")
    if tuner.window < 0:
        raise ConfigError("tuner.window must be non-negative")
    if tuner.hyper_lr < 0:
        raise ConfigError("tuner.hyper_lr must be non-negative")
    if tuner.init_std <= 0:
        raise ConfigError("tuner.init_std must be positive")
    if tuner.update_sign not in UPDATE_SIGNS:
        raise ConfigError(f"tuner.update_sign must be one of {UPDATE_SIGNS}")
    if schedule.initial_lr <= 0:
        raise ConfigError("schedule.initial_lr must be positive")
    if schedule.iterations < 1:
        raise ConfigError("schedule.iterations must be at least 1")
    if not 2 <= synthetic.classes <= 10:
        raise ConfigError("synthetic.classes must be between 2 and 10")
    if synthetic.per_class < 1 or synthetic.test_per_class < 1:
        raise ConfigError("synthetic per-class counts must be positive")
    if synthetic.input_dim != 784:
        raise ConfigError("synthetic.input_dim must be 784 to fit the mlp")
    if synthetic.spread <= 0:
        raise ConfigError("synthetic.spread must be positive")
    if cfg.partition not in PARTITIONS:
        raise ConfigError(f"partition must be one of {PARTITIONS}")
    if cfg.aggregation not in AGGREGATIONS:
        raise ConfigError(f"aggregation must be one of {AGGREGATIONS}")
    if cfg.use_matching and cfg.use_wd:
        raise ConfigError("use_matching and use_wd are mutually exclusive")
    if cfg.n_clients < 1:
        raise ConfigError("n_clients must be at least 1")
    if not 0 < cfg.client_fraction <= 1:
        raise ConfigError("client_fraction must be in (0, 1]")
    if cfg.rounds < 0:
        raise ConfigError("rounds must be non-negative")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be at least 1")
    if cfg.validation_size < 1:
        raise ConfigError("validation_size must be at least 1")
    if cfg.eval_every < 1:
        raise ConfigError("eval_every must be at least 1")
    if cfg.train_subset is not None and cfg.train_subset < cfg.n_clients:
        raise ConfigError("train_subset must cover at least one sample per client")
    if cfg.parallel_clients < 1:
        raise ConfigError("parallel_clients must be at least 1")
    if cfg.task != "synthetic" and not cfg.data_dir:
        raise ConfigError(f"data_dir is required for task {cfg.task!r}")
    if cfg.partition == "non_iid":
        classes = cfg.synthetic.classes if cfg.task == "synthetic" else 10
        if cfg.n_clients != classes:
            raise ConfigError(
                f"non_iid partition assigns one class per client, so n_clients "
                f"must equal the class count ({classes}), got {cfg.n_clients}")
    if cfg.use_tuner:
        grid = cfg.hyper_grid()
        names = sorted(a.name for a in grid.axes)
        if names != ["learning_rate", "sgd_iterations"]:
            raise ConfigError(
                "tuner.axes must define exactly 'learning_rate' and "
                f"'sgd_iterations', got {names}")
        for a in grid.axes:
            if a.name == "sgd_iterations" and not a.integer:
                raise ConfigError("tuner axis 'sgd_iterations' must be integer")
            if a.name == "learning_rate" and a.values[0] <= 0:
                raise ConfigError("tuner learning rates must be positive")
            if a.name == "sgd_iterations" and a.values[0] < 1:
                raise ConfigError("tuner iteration counts must be at least 1")


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from e
    return from_dict(raw)


# ---------------------------------------------------------------------------
# Echo / hashing


def to_dict(cfg: ExperimentConfig) -> dict:
    """Full materialized config as a JSON-ready dict (defaults included)."""
    d = asdict(cfg)
    d["tuner"]["axes"] = [{**asdict(a), "values": list(a.values)}
                          for a in cfg.hyper_grid().axes]
    return d


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of everything that defines the experiment except seed and paths.

    Runs that differ only in seed (or where their outputs land) share a
    hash, which is how result tables group repeats.
    """
    blob = json.dumps(strip_identity(to_dict(cfg)), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
