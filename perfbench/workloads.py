"""The benchmark's three workloads: config, inputs and program set-up.

Everything a workload feeds the program comes from the benchmark's
``--seed``.  ``mlp_tuned_p2`` uses the program's own synthetic task, so
``federation.setup_experiment`` builds it.  The synthetic task only fits
the 784-d MLP, so the two conv workloads draw class-conditional image
blobs here.  ``kws_wd`` writes them as the program's feature containers
(``data.write_features``) and ``setup_experiment`` loads them, so its
set-up is the program's own.  ``cifar_match`` cannot do that, because
``data.load_cifar10`` requires the full 50k/10k image set; it assembles
server and clients from the public pieces ``setup_experiment`` uses:
``models.build_arch``, ``models.build_matching_decoder``,
``nn.init_params`` and ``federation.evaluate_loss``.

Functions are reached through their module attributes (``nn.init_params``,
not a name imported from ``nn``) so the tracer's rebinding sees the calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fedmatch import config, data, federation, models, nn

# Feature containers the benchmark writes for kws_wd, one directory per seed.
DATA_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out" / "data"

# The fixed schedule halves its lr every rounds/3 rounds; no run gets near
# a third of this, so the conv workloads train at one lr throughout.
SCHEDULE_ROUNDS = 300
# Client shard size of the conv workloads.
SHARD_SIZE = 64


@dataclass(frozen=True)
class ConvInputs:
    """Per-client shards and a validation set drawn by the benchmark."""

    shards: tuple[tuple[np.ndarray, np.ndarray], ...]
    val_x: np.ndarray
    val_y: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[int], config.ExperimentConfig]
    make_inputs: Callable[[int, config.ExperimentConfig], ConvInputs | None]
    min_rounds: int  # every run reaches this round; val_loss_final is read there
    # The validation loss after min_rounds must be at least this far below
    # the loss after set-up, or the run is not correct.
    min_loss_drop: float

    def setup(self, cfg: config.ExperimentConfig, inputs: ConvInputs | None):
        """Program set-up: returns (server, clients, arch, decoder)."""
        if inputs is None:
            server, clients, arch, decoder, _test = federation.setup_experiment(cfg)
            return server, clients, arch, decoder
        return _setup_conv(cfg, inputs)


def _rng(seed: int, *path: int) -> np.random.Generator:
    # Benchmark-side streams; the leading 1000 keeps them apart from the
    # program's own substream purposes.
    return np.random.default_rng(np.random.SeedSequence((seed, 1000, *path)))


def blob_images(rng: np.random.Generator, labels: np.ndarray,
                templates: np.ndarray, noise: float = 0.1) -> np.ndarray:
    """Noisy copies of each label's template, clipped to [0, 1]."""
    x = templates[labels] + rng.normal(0.0, noise, (labels.size,) + templates.shape[1:])
    return np.clip(x, 0.0, 1.0)


def blob_templates(rng: np.random.Generator, shape: tuple[int, int, int],
                   classes: int = 10, bumps: int = 3) -> np.ndarray:
    """One smooth image per class: a sum of Gaussian bumps in [0, 1]."""
    c, h, w = shape
    yy, xx = np.mgrid[0:h, 0:w] / max(h - 1, 1)
    out = np.zeros((classes, c, h, w))
    for k in range(classes):
        for _ in range(bumps):
            cy, cx = rng.uniform(0.15, 0.85, 2)
            r = rng.uniform(0.08, 0.2)
            amp = rng.uniform(0.3, 1.0, c)
            bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))
            out[k] += amp[:, None, None] * bump
    return np.clip(0.8 * out, 0.0, 1.0)


def balanced_labels(rng: np.random.Generator, n: int, classes: int = 10) -> np.ndarray:
    return rng.permutation(np.arange(n) % classes).astype(np.int64)


def _cifar_inputs(seed: int, cfg: config.ExperimentConfig) -> ConvInputs:
    rng = _rng(seed, 0)
    templates = blob_templates(rng, (3, 32, 32))
    shards = []
    for _ in range(cfg.n_clients):
        y = balanced_labels(rng, SHARD_SIZE)
        shards.append((blob_images(rng, y, templates), y))
    val_y = balanced_labels(rng, cfg.validation_size)
    return ConvInputs(tuple(shards), blob_images(rng, val_y, templates), val_y)


def _kws_inputs(seed: int, cfg: config.ExperimentConfig) -> None:
    """Write the train and test containers setup_experiment reads for kws.

    The train file holds every client's shard plus the validation set,
    which setup_experiment splits off again.  The test set is never read.
    """
    rng = _rng(seed, 0)
    templates = blob_templates(rng, (1, 32, 32))
    out = Path(cfg.data_dir)
    out.mkdir(parents=True, exist_ok=True)
    sizes = {"kws_train.fedf": cfg.n_clients * SHARD_SIZE + cfg.validation_size,
             "kws_test.fedf": 10}
    for name, n in sizes.items():
        y = balanced_labels(rng, n)
        data.write_features(out / name, data.Dataset(blob_images(rng, y, templates), y))
    return None


def _setup_conv(cfg: config.ExperimentConfig, inputs: ConvInputs):
    """setup_experiment for cifar_match, minus data loading.

    It exists because data.load_cifar10 requires the full 50k/10k set.
    """
    arch = models.build_arch(cfg.arch_name)
    decoder = None
    clients = []
    for k, (x, y) in enumerate(inputs.shards):
        theta = None
        if cfg.use_matching:
            decoder, theta = models.build_matching_decoder(
                arch, _rng(cfg.seed, 1, k), include_input_site=cfg.loss.match_input_site)
        clients.append(federation.ClientState(client_id=k, x=x, y=y, theta=theta))
    params = nn.init_params(arch.graph, _rng(cfg.seed, 2))
    server = federation.ServerState(
        params=params, val_x=inputs.val_x, val_y=inputs.val_y,
        total_datapoints=sum(int(y.size) for _, y in inputs.shards))
    server.current_loss = federation.evaluate_loss(arch.graph, params,
                                                   inputs.val_x, inputs.val_y)
    return server, clients, arch, decoder


# The matching term sums squared error over every feature of every site,
# so at the default coefficient of 1 it swamps the cross-entropy gradient
# and the validation loss stays at ln 10.  The workloads scale it down so
# that training moves the loss, which the correctness gate checks; the
# matching arithmetic runs in full either way.
def _mlp_config(seed: int) -> config.ExperimentConfig:
    return config.from_dict({
        "task": "synthetic", "seed": seed, "partition": "non_iid",
        "use_tuner": True, "use_matching": True,
        "n_clients": 10, "batch_size": 64, "validation_size": 200,
        "parallel_clients": 2,
        "synthetic": {"per_class": 200},
        "loss": {"matching_coeff": 0.1},
        "tuner": {"axes": [
            {"name": "learning_rate", "values": [0.01, 0.02, 0.05, 0.1]},
            {"name": "sgd_iterations", "values": [10, 20, 30]}]},
    })


def _conv_config(task: str, seed: int, **overrides) -> config.ExperimentConfig:
    raw = {
        "task": task, "seed": seed,
        "n_clients": 4, "client_fraction": 0.5, "batch_size": 32,
        # Two of four clients train per round; literal FedAvg would halve
        # every server step.
        "aggregation": "renormalized",
        "rounds": SCHEDULE_ROUNDS,
    }
    raw.update(overrides)
    return config.from_dict(raw)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mlp_tuned_p2",
            why="paper MNIST-style MLP with matching and the REINFORCE tuner on "
                "2 client threads: per-call overhead, dense kernels and BLAS "
                "thread contention",
            make_config=_mlp_config,
            make_inputs=lambda seed, cfg: None,
            min_rounds=6,
            min_loss_drop=0.05,
        ),
        Workload(
            name="cifar_match",
            why="cifar_cnn with matching on 3x32x32 blobs: 5x5 conv backward, "
                "transposed-conv/unpool decoder and the round-start forward",
            make_config=lambda seed: _conv_config(
                "cifar10", seed, use_matching=True, validation_size=64,
                # Never read: the benchmark draws the data and builds the clients.
                data_dir="unused",
                loss={"matching_coeff": 1e-4},
                schedule={"initial_lr": 0.1, "iterations": 2}),
            make_inputs=_cifar_inputs,
            min_rounds=3,
            min_loss_drop=0.005,
        ),
        Workload(
            name="kws_wd",
            why="kws_cnn with weight divergence on 1x32x32 blobs: 3x3 64-channel "
                "convs, validation forward and per-tensor wd over 4.3M params; "
                "no decoder",
            make_config=lambda seed: _conv_config(
                "kws", seed, use_wd=True, validation_size=128,
                data_dir=str(DATA_DIR / f"kws-seed{seed}"),
                schedule={"initial_lr": 0.3, "iterations": 2}),
            make_inputs=_kws_inputs,
            min_rounds=3,
            min_loss_drop=0.003,
        ),
    )
}
