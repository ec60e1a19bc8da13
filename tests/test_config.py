"""Strict config parsing, validation messages, and hashing."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fedmatch import nn
from fedmatch.config import (ConfigError, ExperimentConfig, config_hash, from_dict,
                             parse_config, to_dict)
from fedmatch.federation import run_experiment
from fedmatch.losses import LossConfig, total_loss_and_grads
from fedmatch.metrics import MetricsSink
from fedmatch.models import build_arch, build_matching_decoder

MINIMAL = {"task": "synthetic", "seed": 1}

TUNER_AXES = [
    {"name": "learning_rate", "values": [0.01, 0.05, 0.1], "integer": False},
    {"name": "sgd_iterations", "values": [10, 20]},
]


def parse(overrides=None, base=MINIMAL):
    cfg = dict(base)
    if overrides:
        cfg.update(overrides)
    return from_dict(cfg)


class TestDefaults:
    def test_minimal_config_parses(self):
        cfg = parse()
        assert cfg.task == "synthetic"
        assert cfg.seed == 1
        assert cfg.arch_name == "mnist_mlp"  # synthetic data feeds the mlp
        assert cfg.n_clients == 10
        assert cfg.client_fraction == 1.0
        assert cfg.aggregation == "literal"
        assert cfg.partition == "iid"
        assert not cfg.use_tuner and not cfg.use_matching and not cfg.use_wd

    def test_to_dict_is_a_fixed_point(self):
        # the echoed dict materializes defaults (e.g. the task's hyper grid),
        # so one more parse/echo cycle must reproduce it exactly
        cfg = parse()
        echoed = to_dict(cfg)
        assert to_dict(from_dict(echoed)) == echoed
        assert config_hash(from_dict(echoed)) == config_hash(cfg)

    def test_tuner_config_roundtrip(self):
        cfg = parse({"use_tuner": True, "tuner": {"axes": TUNER_AXES,
                                                  "window": 5,
                                                  "update_sign": "descent"}})
        again = from_dict(to_dict(cfg))
        assert again.tuner.window == 5
        assert again.tuner.update_sign == "descent"
        assert again.hyper_grid().size == 6

    def test_output_dir_default_names_task_and_seed(self):
        cfg = parse({"seed": 7})
        assert "synthetic" in cfg.output_dir and "7" in cfg.output_dir

    def test_parse_config_reads_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"task": "synthetic", "seed": 3}')
        assert parse_config(p).seed == 3

    def test_parse_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.json")

    def test_parse_config_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            parse_config(p)


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse({"archh": "mlp"})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="tuner"):
            parse({"tuner": {"axes": TUNER_AXES, "bogus": 3}})

    def test_arch_is_not_configurable(self):
        # the model family follows the task; a stray arch key is unknown
        with pytest.raises(ConfigError, match="unknown"):
            parse({"arch": "mnist_mlp"})

    def test_wrong_type_names_the_field(self):
        with pytest.raises(ConfigError, match="seed"):
            parse({"seed": "one"})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse({"rounds": True})

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="task"):
            from_dict({"seed": 3})

    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="task"):
            parse({"task": "imagenet"})

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            from_dict(["task"])


class TestValidation:
    def test_real_task_requires_data_dir(self):
        with pytest.raises(ConfigError, match="data_dir"):
            parse({"task": "mnist"})

    def test_client_fraction_range(self):
        with pytest.raises(ConfigError, match="client_fraction"):
            parse({"client_fraction": 0.0})
        with pytest.raises(ConfigError, match="client_fraction"):
            parse({"client_fraction": 1.5})

    def test_non_iid_needs_client_per_class(self):
        with pytest.raises(ConfigError, match="n_clients"):
            parse({"partition": "non_iid", "n_clients": 7})

    def test_non_iid_ok_when_counts_match(self):
        cfg = parse({"partition": "non_iid", "n_clients": 10})
        assert cfg.partition == "non_iid"

    def test_non_iid_follows_synthetic_class_count(self):
        cfg = parse({"partition": "non_iid", "n_clients": 4,
                     "synthetic": {"classes": 4}})
        assert cfg.n_clients == 4

    def test_matching_and_wd_exclusive(self):
        with pytest.raises(ConfigError, match="exclusive"):
            parse({"use_matching": True, "use_wd": True})

    def test_tuner_axes_must_name_both_hypers(self):
        with pytest.raises(ConfigError, match="axes"):
            parse({"use_tuner": True,
                   "tuner": {"axes": [TUNER_AXES[0]]}})

    def test_tuner_iterations_must_be_integer_axis(self):
        bad = [TUNER_AXES[0],
               {"name": "sgd_iterations", "values": [10.5, 20.0],
                "integer": False}]
        with pytest.raises(ConfigError, match="integer"):
            parse({"use_tuner": True, "tuner": {"axes": bad}})

    def test_aggregation_enum(self):
        cfg = parse({"aggregation": "renormalized"})
        assert cfg.aggregation == "renormalized"
        with pytest.raises(ConfigError, match="aggregation"):
            parse({"aggregation": "mean"})

    def test_update_sign_enum(self):
        with pytest.raises(ConfigError, match="update_sign"):
            parse({"tuner": {"axes": TUNER_AXES, "update_sign": "sideways"}})

    def test_synthetic_input_dim_is_pinned(self):
        with pytest.raises(ConfigError, match="input_dim"):
            parse({"synthetic": {"input_dim": 100}})

    def test_zero_rounds_allowed_negative_rejected(self):
        assert parse({"rounds": 0}).rounds == 0
        with pytest.raises(ConfigError, match="rounds"):
            parse({"rounds": -1})

    def test_axis_values_must_be_sorted_unique(self):
        bad = [{"name": "learning_rate", "values": [0.1, 0.1, 0.2],
                "integer": False}, TUNER_AXES[1]]
        with pytest.raises(ConfigError):
            parse({"use_tuner": True, "tuner": {"axes": bad}})


class TestTunerSection:
    def test_grid_built_from_axes(self):
        cfg = parse({"tuner": {"axes": TUNER_AXES}})
        grid = cfg.hyper_grid()
        assert grid.size == 6
        assert grid.shape == (3, 2)
        assert [a.name for a in grid.axes] == ["learning_rate", "sgd_iterations"]

    def test_integer_flag_inferred_from_values(self):
        cfg = parse({"tuner": {"axes": TUNER_AXES}})
        lr, iters = cfg.hyper_grid().axes
        assert not lr.integer
        assert iters.integer

    def test_default_grid_when_axes_omitted(self):
        cfg = parse({"use_tuner": True})
        grid = cfg.hyper_grid()
        assert sorted(a.name for a in grid.axes) == ["learning_rate",
                                                     "sgd_iterations"]
        assert grid.size >= 4

    def test_null_axes_mean_the_default_grid(self):
        omitted = parse({"use_tuner": True})
        null = parse({"use_tuner": True, "tuner": {"axes": None}})
        assert null.tuner.axes is None
        assert to_dict(null) == to_dict(omitted)
        assert config_hash(null) == config_hash(omitted)

    def test_tuner_defaults(self):
        cfg = parse()
        assert cfg.tuner.window == 10
        assert cfg.tuner.hyper_lr == pytest.approx(0.1)
        assert cfg.tuner.update_sign == "ascent"
        assert not cfg.tuner.freeze_precision


class TestHash:
    def test_hash_is_stable_across_seed_and_paths(self):
        a = parse({"seed": 1})
        b = parse({"seed": 77, "output_dir": "elsewhere"})
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12
        assert all(c in "0123456789abcdef" for c in config_hash(a))

    def test_hash_changes_with_substance(self):
        a = parse()
        assert config_hash(a) != config_hash(parse({"rounds": 99}))
        assert config_hash(a) != config_hash(parse({"use_matching": True}))

    def test_hash_reflects_defaults_not_spelling(self):
        # explicit defaults hash the same as omitted ones
        a = parse()
        b = parse({"n_clients": 10, "batch_size": 64})
        assert config_hash(a) == config_hash(b)


# ---------------------------------------------------------------------------
# Golden pins: the config echo, its hash and the run records must stay
# byte-stable, since results are grouped by config_hash and compared
# through rounds.jsonl.

README_QUICK_START = {
    "task": "synthetic",
    "seed": 0,
    "rounds": 20,
    "n_clients": 4,
    "partition": "non_iid",
    "use_tuner": True,
    "batch_size": 32,
    "validation_size": 40,
    "eval_every": 5,
    "synthetic": {"classes": 4, "per_class": 50, "test_per_class": 20},
    "tuner": {"axes": [
        {"name": "learning_rate", "values": [0.01, 0.02, 0.05]},
        {"name": "sgd_iterations", "values": [5, 10], "integer": True},
    ]},
}

GOLDEN_CONFIGS = {
    "minimal": MINIMAL,
    "readme_quick_start": README_QUICK_START,
    "cifar_matching": {"task": "cifar10", "seed": 3, "data_dir": "data/cifar",
                       "use_matching": True,
                       "loss": {"match_input_site": False},
                       "train_subset": 500},
    "kws_wd": {"task": "kws", "seed": 4, "data_dir": "data/kws", "use_wd": True,
               "aggregation": "renormalized",
               "schedule": {"initial_lr": 0.05, "iterations": 12},
               "train_subset": None},
    "mnist_tuned": {"task": "mnist", "seed": 5, "data_dir": "data/mnist",
                    "use_tuner": True, "output_dir": "runs/mnist-tuned",
                    "parallel_clients": 2},
}

# name -> (config_hash, sha256 of the config.json text without its newline)
GOLDEN_ECHO = {
    "minimal": ("01b829e1132e",
                "d70aa5f022c33131e28f968657b480f4c98397e7386f2cf00a09ce4dc8e114de"),
    "readme_quick_start": ("94f009f1bd9d",
                           "fbcf58ac212cdca5a04e0f240656214569e5ee4eeb4671f27fee79a6500c9427"),
    "cifar_matching": ("3b68b869a0e5",
                       "0b136aa40f064371845a7837bd467a8c946b04c0af4d4176cec13bd19e75661e"),
    "kws_wd": ("ca4587aa9bb1",
               "bc9a7db61b6eb8a8ecda5adc903f19c9c496e0b41070b6da386c69a0ef1bbe3d"),
    "mnist_tuned": ("f1e2904f3cb7",
                    "b0663b8890a9e30a175304755ad20da52ce64e03a240aee3f41a74eaa4f43dea"),
}

RUN_BASE = {
    "task": "synthetic", "seed": 5, "partition": "non_iid", "n_clients": 4,
    "rounds": 4, "batch_size": 16, "validation_size": 20, "eval_every": 2,
    "schedule": {"initial_lr": 0.05, "iterations": 3},
    "synthetic": {"classes": 4, "per_class": 30, "test_per_class": 10},
}

RUN_VARIANTS = {
    "tuned_matching": {"use_tuner": True, "use_matching": True,
                       "loss": {"matching_coeff": 0.1},
                       "tuner": {"axes": [
                           {"name": "learning_rate", "values": [0.01, 0.05]},
                           {"name": "sgd_iterations", "values": [2, 3]}]}},
    "wd": {"use_wd": True},
    "fixed": {},
}

# name -> (sha256 of rounds.jsonl, sha256 of evals.jsonl); recorded with
# numpy + OpenBLAS on x86-64 in float64.  A BLAS that rounds differently
# changes these digests without any change to the program.
GOLDEN_RUNS = {
    "tuned_matching": ("1711672a8b8a98db73f4617abc269100f9eded2ec19fdbc4f702bce1393b99ba",
                       "771485146e300cc19249f68fd69a5b8a91193a94f083e7703a07a74b80e8e1dc"),
    "wd": ("7b3577965a100c2c84ad7b9018d2de2db9f71ad8562cce60039c0f3f95f51862",
           "c1bfa85e9d086cec4cc5c6dbacc9ab1629085e04a214d7d037e022027a7dd92e"),
    "fixed": ("9711fc700c366791a40b581d2a27bd15d35e16a5cd6a241ce57fc23788f3a068",
              "c1bfa85e9d086cec4cc5c6dbacc9ab1629085e04a214d7d037e022027a7dd92e"),
}

# arch -> sha256 of repr(breakdown) plus every w and theta gradient from one
# matching `total_loss_and_grads` call.  These pin the dense, transposed-conv,
# unpool and reshape decoder stages; same BLAS caveat as GOLDEN_RUNS.
GOLDEN_MATCHING = {
    "cifar_cnn": "e151de7bf0868e66279c20496f6a8d48eaae71186b3e9aadb077b4e4e22975bc",
    "kws_cnn": "6e7c8d8f16373a2aa734ce4b825e917995da9dc99d805b9456519861bdf2f20a",
    "mnist_mlp": "0cbbb55bb44d2726a2e1ab95a521456edbc959a0cd5d86a12b87dcb2f08a6e7f",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_config_echo_and_hash_are_pinned(self, name):
        cfg = from_dict(GOLDEN_CONFIGS[name])
        echo = json.dumps(to_dict(cfg), indent=2, sort_keys=True)
        assert (config_hash(cfg), _sha256(echo.encode())) == GOLDEN_ECHO[name]

    @pytest.mark.parametrize("name", sorted(RUN_VARIANTS))
    def test_run_records_are_pinned(self, name, tmp_path):
        cfg = from_dict({**RUN_BASE, **RUN_VARIANTS[name]})
        with MetricsSink(tmp_path) as sink:
            run_experiment(cfg, sink=sink)
        digests = (_sha256((tmp_path / "rounds.jsonl").read_bytes()),
                   _sha256((tmp_path / "evals.jsonl").read_bytes()))
        assert digests == GOLDEN_RUNS[name]

    @pytest.mark.parametrize("arch_name", sorted(GOLDEN_MATCHING))
    def test_matching_loss_and_grads_are_pinned(self, arch_name):
        arch = build_arch(arch_name)
        rng = np.random.default_rng(11)
        decoder, theta = build_matching_decoder(arch, rng)
        w_round = nn.init_params(arch.graph, rng)
        w_local = w_round.map(lambda a: a + 0.01 * rng.normal(size=a.shape))
        x = rng.normal(size=(6, *arch.graph.input_shape))
        y = rng.integers(0, 10, size=6)
        breakdown, w_grads, theta_grads = total_loss_and_grads(
            arch.graph, x, y, w_local, w_round, decoder, theta,
            LossConfig(matching_coeff=0.3))
        h = hashlib.sha256(repr(breakdown).encode())
        for grads in (w_grads, theta_grads):
            for k, v in grads.items():
                h.update(k.encode())
                h.update(v.tobytes())
        assert h.hexdigest() == GOLDEN_MATCHING[arch_name]


def _non_default(f, current):
    """A valid value for field `f` that differs from `current`."""
    special = {
        "task": "kws", "partition": "non_iid", "aggregation": "renormalized",
        "update_sign": "descent", "output_dir": "elsewhere",
        "data_dir": "data", "train_subset": 500, "classes": 4,
    }
    if f.name in special:
        return special[f.name]
    if isinstance(current, bool):
        return not current
    if isinstance(current, int):
        return current + 1
    return current / 2


def _scalar_fields():
    sections = [f.name for f in dataclasses.fields(ExperimentConfig)
                if dataclasses.is_dataclass(f.default_factory)]
    out = []
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in sections:
            out.append(pytest.param("", f, id=f.name))
    for section in sections:
        cls = type(getattr(from_dict(MINIMAL), section))
        for f in dataclasses.fields(cls):
            if f.name == "axes":
                continue  # not a scalar; the tuner tests round-trip it
            if f.name == "input_dim":
                continue  # pinned to 784: there is no valid other value
            out.append(pytest.param(section, f, id=f"{section}.{f.name}"))
    return out


@pytest.mark.parametrize("section,f", _scalar_fields())
def test_every_scalar_field_round_trips(section, f):
    echoed = to_dict(from_dict(MINIMAL))
    current = echoed[section][f.name] if section else echoed[f.name]
    value = _non_default(f, current)
    assert value != current
    raw = dict(MINIMAL)
    if section:
        raw[section] = {f.name: value}
    else:
        raw[f.name] = value
    if f.name == "task":
        raw["data_dir"] = "data"
    if f.name == "partition":
        raw["n_clients"] = 10
    cfg = from_dict(raw)
    again = from_dict(to_dict(cfg))
    holder = getattr(again, section) if section else again
    assert getattr(holder, f.name) == value
    assert to_dict(again) == to_dict(cfg)


# json.loads accepts NaN and Infinity, so the parser must reject them.
NON_FINITE = [
    ('{"schedule": {"initial_lr": NaN}}', "schedule.initial_lr", "nan"),
    ('{"loss": {"matching_coeff": NaN}}', "loss.matching_coeff", "nan"),
    ('{"tuner": {"init_std": NaN}}', "tuner.init_std", "nan"),
    ('{"tuner": {"hyper_lr": Infinity}}', "tuner.hyper_lr", "inf"),
    ('{"synthetic": {"spread": Infinity}}', "synthetic.spread", "inf"),
    ('{"loss": {"min_entropy": -Infinity}}', "loss.min_entropy", "-inf"),
    ('{"schedule": {"initial_lr": 1e400}}', "schedule.initial_lr", "inf"),
    ('{"loss": {"wd_coeff": 1%s}}' % ("0" * 400), "loss.wd_coeff", "inf"),
    ('{"tuner": {"axes": [{"name": "learning_rate", "values": [0.1, Infinity]},'
     ' {"name": "sgd_iterations", "values": [1, 2]}]}}',
     "tuner.axes[0].values", "inf"),
    ('{"tuner": {"axes": [{"name": "learning_rate", "values": [0.1]},'
     ' {"name": "sgd_iterations", "values": [NaN]}]}}',
     "tuner.axes[1].values", "nan"),
]


@pytest.mark.parametrize("text,label,shown", NON_FINITE,
                         ids=[f"{label}={shown}" for _, label, shown in NON_FINITE])
def test_non_finite_numbers_are_rejected(text, label, shown):
    with pytest.raises(ConfigError) as err:
        parse(json.loads(text))
    assert str(err.value) == f"{label} must be a finite number, got {shown}"


def _readme_config_reference() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration reference", 1)[1]
    return section.split("\n## ", 1)[0]


def _documented_fields():
    classes = [ExperimentConfig] + [
        f.default_factory for f in dataclasses.fields(ExperimentConfig)
        if dataclasses.is_dataclass(f.default_factory)]
    return [pytest.param(f, id=f"{cls.__name__}.{f.name}")
            for cls in classes for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("f", _documented_fields())
def test_readme_documents_every_config_field(f):
    reference = _readme_config_reference()
    assert f"`{f.name}`" in reference
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
        assert f"| `{f.name}` | required |" in reference
