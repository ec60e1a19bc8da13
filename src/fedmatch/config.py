"""Experiment configuration: strict JSON in, fully-defaulted dataclass out.

The frozen dataclasses below are the schema: the parser takes the allowed
keys, the required keys and each value's type from their fields.  A
`Literal[...]` field admits only its listed values, a `tuple[X, ...]` field
is a non-empty JSON list of `X`, a field whose metadata declares a bound
(`"min"`, `"above"` for a strict lower bound, `"max"`) admits only values
within it, and a section whose constructor rejects its values (a tuner
axis that does not increase) fails under its label.  Unknown keys are
rejected (typos must not silently fall back to defaults), and every error
names the offending field.  `_validate` holds only the rules that read
more than one field, plus two pinned values (a non-empty `output_dir`,
`synthetic.input_dim`).  The materialized config can be echoed back to
JSON so a run directory records exactly what produced it.

The schema is the only place that checks a config value's range: the
modules a value flows into trust it and do not check it again.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

from .losses import LossConfig
from .models import arch_for_task
from .tuner import GridError, HyperAxis, HyperGrid, default_grid


class ConfigError(ValueError):
    """A config file is malformed; the message names the field."""


@dataclass(frozen=True)
class TunerConfig:
    axes: tuple[HyperAxis, ...] | None = None  # None -> task default grid
    window: int = field(default=10, metadata={"min": 0})
    hyper_lr: float = field(default=0.1, metadata={"min": 0})
    # The tuner keeps precision std**-2; from 1e-150 up, the summed
    # precision * (h - mu)**2 over two axes with |h - mu| <= 1 stays finite.
    init_std: float = field(default=0.2, metadata={"min": 1e-150})
    freeze_precision: bool = False
    update_sign: Literal["ascent", "descent"] = "ascent"


@dataclass(frozen=True)
class ScheduleConfig:
    """Fixed baseline: lr halves every rounds/3, iteration count constant."""

    initial_lr: float = field(default=0.1, metadata={"above": 0})
    iterations: int = field(default=30, metadata={"min": 1})


@dataclass(frozen=True)
class SyntheticConfig:
    classes: int = field(default=10, metadata={"min": 2, "max": 10})
    per_class: int = field(default=200, metadata={"min": 1})
    test_per_class: int = field(default=50, metadata={"min": 1})
    input_dim: int = 784
    spread: float = field(default=1.0, metadata={"above": 0})


@dataclass(frozen=True)
class ExperimentConfig:
    task: Literal["mnist", "cifar10", "kws", "synthetic"]
    seed: int = field(metadata={"min": 0})
    output_dir: str = ""  # from_dict fills in runs/<task>-seed<seed>
    data_dir: str | None = None
    partition: Literal["iid", "non_iid"] = "iid"
    use_tuner: bool = False
    use_matching: bool = False
    use_wd: bool = False
    aggregation: Literal["literal", "renormalized"] = "literal"
    n_clients: int = field(default=10, metadata={"min": 1})
    client_fraction: float = field(default=1.0, metadata={"above": 0, "max": 1})
    rounds: int = field(default=200, metadata={"min": 0})
    batch_size: int = field(default=64, metadata={"min": 1})
    validation_size: int = field(default=1000, metadata={"min": 1})
    eval_every: int = field(default=10, metadata={"min": 1})
    train_subset: int | None = None
    parallel_clients: int = field(default=1, metadata={"min": 1})
    loss: LossConfig = field(default_factory=LossConfig)
    tuner: TunerConfig = field(default_factory=TunerConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)

    @property
    def arch_name(self) -> str:
        return arch_for_task(self.task)

    def hyper_grid(self) -> HyperGrid:
        if self.tuner.axes is not None:
            return HyperGrid(axes=self.tuner.axes)
        return default_grid(self.task)


# ---------------------------------------------------------------------------
# Parsing: the dataclasses above are the schema


# Keys that name a run, or set how it runs without changing its bytes
# (`parallel_clients` only sets the client pool's width).
IDENTITY_KEYS = ("seed", "output_dir", "data_dir", "parallel_clients")


def strip_identity(d: dict) -> dict:
    """A config dict without the keys that name a run rather than an experiment."""
    return {k: v for k, v in d.items() if k not in IDENTITY_KEYS}


_KIND_NAMES = {bool: "a boolean", int: "an integer", str: "a string"}

# The bounds a field may declare in its metadata: (key, test, words).
_BOUNDS = (("min", operator.ge, "at least"), ("above", operator.gt, "greater than"),
           ("max", operator.le, "at most"))


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
        if v is None:
            return None
        kind = get_args(kind)[0]
    if get_origin(kind) is tuple:  # `tuple[X, ...]`
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{label} must be a non-empty list, got {v!r}")
        return tuple(_value(get_args(kind)[0], x, f"{label}[{i}]")
                     for i, x in enumerate(v))
    if get_origin(kind) is Literal:
        if v not in get_args(kind):
            raise ConfigError(f"{label} must be one of {get_args(kind)}, got {v!r}")
        return v
    if kind is float:
        return _number(v, label)
    if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
        raise ConfigError(f"{label} must be {_KIND_NAMES[kind]}, got {v!r}")
    return v


def _parse_section(cls, d: dict, section: str = ""):
    """Build `cls` from `d`: keys, required keys, types and bounds come from its fields."""
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
            v = values[f.name] = _value(kinds[f.name], d[f.name], label)
            for key, ok, words in _BOUNDS:
                bound = f.metadata.get(key)
                if bound is not None and v is not None and not ok(v, bound):
                    raise ConfigError(f"{label} must be {words} {bound}, got {v!r}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {f.name!r}{where}")
    try:
        return cls(**values)
    except ValueError as e:  # the section's own invariants
        raise ConfigError(f"{section}: {e}") from e


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
    """Cross-field rules and two pinned values; the parser checked each
    field's type, listed values and range."""
    if not cfg.output_dir:
        raise ConfigError("output_dir must be non-empty")
    if cfg.synthetic.input_dim != 784:
        raise ConfigError("synthetic.input_dim must be 784 to fit the mlp")
    if cfg.use_matching and cfg.use_wd:
        raise ConfigError("use_matching and use_wd are mutually exclusive")
    if cfg.train_subset is not None and cfg.train_subset < cfg.n_clients:
        raise ConfigError("train_subset must cover at least one sample per client")
    if cfg.task != "synthetic" and not cfg.data_dir:
        raise ConfigError(f"data_dir is required for task {cfg.task!r}")
    if cfg.partition == "non_iid":
        classes = cfg.synthetic.classes if cfg.task == "synthetic" else 10
        if cfg.n_clients != classes:
            raise ConfigError(
                f"non_iid partition assigns one class per client, so n_clients "
                f"must equal the class count ({classes}), got {cfg.n_clients}")
    try:
        grid = cfg.hyper_grid()
    except GridError as e:
        raise ConfigError(f"tuner.axes: {e}") from e
    if cfg.use_tuner:
        names = sorted(a.name for a in grid.axes)
        if names != ["learning_rate", "sgd_iterations"]:
            raise ConfigError(
                "tuner.axes must define exactly 'learning_rate' and "
                f"'sgd_iterations', got {names}")
        for i, a in enumerate(grid.axes):
            where = f"tuner.axes[{i}]"
            if a.name == "sgd_iterations" and not a.integer:
                raise ConfigError(f"{where}: axis 'sgd_iterations' must be integer")
            if a.name == "learning_rate" and a.values[0] <= 0:
                raise ConfigError(f"{where}: learning rates must be positive")
            if a.name == "sgd_iterations" and a.values[0] < 1:
                raise ConfigError(f"{where}: iteration counts must be at least 1")


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
    """Hash of everything that defines the experiment except seed, paths
    and `parallel_clients`.

    Runs that differ only in seed, where their outputs land or how many
    clients train at once share a hash.
    """
    blob = json.dumps(strip_identity(to_dict(cfg)), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
