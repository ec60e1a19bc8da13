"""Synchronous federated averaging rounds.

One round, in order: sample this round's hyper-parameters (tuned or from
the fixed schedule), select clients, run local SGD on each selected client
from the broadcast parameters, aggregate the deltas, evaluate the
validation loss, score the reward, and update the tuning distribution.

Clients can run serially or on a thread pool; results reduce in client-id
order either way, so both paths are bitwise identical.  The pool is never
wider than the cores that each client's BLAS threads leave free.  Every
random draw comes from a named substream of the experiment seed (see
`seeding`), which pins the whole run, including the bytes of its metrics
files.
"""

from __future__ import annotations

import ctypes
import functools
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn, seeding
from .config import ConfigError, ExperimentConfig
from .data import (
    Dataset,
    load_cifar10,
    load_features,
    load_mnist,
    make_synthetic,
    partition_by_class,
    partition_iid,
    stratified_holdout,
)
from .losses import LossBreakdown, cross_entropy, total_loss_and_grads
from .models import MatchStage, ModelArch, build_arch, build_matching_decoder
from .nn import ModelGraph, ParamSet
from .tuner import (
    HyperDist,
    HyperGrid,
    initial_dist,
    mu_raw,
    reinforce_update,
    reward,
    sample,
    score,
)


@dataclass
class ClientState:
    """One simulated client: its shard and its persistent decoder params."""

    client_id: int
    x: np.ndarray
    y: np.ndarray
    theta: ParamSet | None = None

    @property
    def n_samples(self) -> int:
        return int(self.y.shape[0])


@dataclass
class ServerState:
    """Everything the server carries between rounds."""

    params: ParamSet
    val_x: np.ndarray
    val_y: np.ndarray
    total_datapoints: int
    round: int = 0  # rounds completed so far
    current_loss: float = float("nan")  # validation loss at `params`
    grid: HyperGrid | None = None
    dist: HyperDist | None = None
    window: deque | None = None  # (reward, score) pairs, capacity min(tuner.window, rounds) + 1


@dataclass(frozen=True)
class ClientResult:
    client_id: int
    n_samples: int
    params: ParamSet
    theta: ParamSet | None
    losses: LossBreakdown
    short_batch: bool


@dataclass(frozen=True)
class RoundRecord:
    """Everything worth keeping about one round.

    `wall_time_sec` is informational only and is deliberately left out of
    the serialized metrics so reruns of the same seed write identical
    files.
    """

    round: int
    selected: tuple[int, ...]
    lr: float
    iterations: int
    h_norm: tuple[float, ...] | None
    mu_norm: tuple[float, ...] | None
    mu_raw: dict[str, float] | None
    loss_before: float
    loss_after: float
    reward: float | None
    client_losses: tuple[dict, ...]
    wall_time_sec: float = 0.0


@dataclass(frozen=True)
class EvalRecord:
    round: int
    test_accuracy: float


@dataclass
class ExperimentResult:
    records: list[RoundRecord]
    evals: list[EvalRecord]
    params: ParamSet
    final_test_accuracy: float
    final_validation_loss: float


# ---------------------------------------------------------------------------
# Round building blocks


def select_clients(n_clients: int, fraction: float,
                   rng: np.random.Generator) -> tuple[int, ...]:
    """Choose max(1, round(fraction * n_clients)) distinct ids, ascending."""
    m = max(1, round(fraction * n_clients))
    picked = rng.choice(n_clients, size=m, replace=False)
    return tuple(sorted(int(i) for i in picked))


def _batch_indices(n: int, batch_size: int, iterations: int,
                   rng: np.random.Generator):
    """Yield `iterations` batches of sample indices.

    Shuffled epochs are chained: a permutation's leftover tail joins the
    head of the next permutation, so every batch has exactly `batch_size`
    samples.  A shard smaller than one batch is used whole every step
    (flagged by the second yield element).
    """
    if n < batch_size:
        whole = np.arange(n)
        for _ in range(iterations):
            yield whole, True
        return
    perm = rng.permutation(n)
    pos = 0
    for _ in range(iterations):
        if pos + batch_size <= n:
            yield perm[pos:pos + batch_size], False
            pos += batch_size
        else:
            tail = perm[pos:]
            perm = rng.permutation(n)
            pos = batch_size - tail.size
            yield np.concatenate([tail, perm[:pos]]), False


def train_client(client: ClientState, w_round: ParamSet, graph: ModelGraph,
                 decoder: tuple[MatchStage, ...] | None, lr: float, iterations: int,
                 cfg: ExperimentConfig, rng: np.random.Generator) -> ClientResult:
    """Run `iterations` steps of local SGD from the broadcast parameters.

    The objective follows `cfg.loss` and `cfg.use_wd`, with matching on
    exactly when `decoder` is given; batches have `cfg.batch_size` samples.
    Model and decoder parameters step together at rate `lr`.  The
    returned breakdown is from the last iteration (the loss the client
    ended on).
    """
    w = w_round
    theta = client.theta
    breakdown = None
    short = False
    for idx, is_short in _batch_indices(client.n_samples, cfg.batch_size,
                                        iterations, rng):
        short = short or is_short
        xb = client.x[idx]
        yb = client.y[idx]
        breakdown, w_grads, theta_grads = total_loss_and_grads(
            graph, xb, yb, w, w_round, decoder, theta, cfg.loss, cfg.use_wd)
        w = nn.sgd_step(w, w_grads, lr)
        if theta_grads is not None:
            theta = nn.sgd_step(theta, theta_grads, lr)
    if breakdown is None:  # zero iterations: nothing moved
        breakdown = LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
    return ClientResult(client_id=client.client_id, n_samples=client.n_samples,
                        params=w, theta=theta, losses=breakdown, short_batch=short)


def aggregate(w_round: ParamSet, results: list[ClientResult],
              total_datapoints: int, mode: str = "literal") -> ParamSet:
    """Weighted average of client deltas applied to the broadcast params.

    literal mode weighs each client by n_k / N (N = all datapoints across
    all clients); renormalized mode weighs by n_k / sum of the selected
    clients' n_k.  Accumulation runs in ascending client order, so the
    result does not depend on who computed what where.  A client whose
    tensor names or shapes differ from `w_round` raises ShapeError.
    """
    ordered = sorted(results, key=lambda r: r.client_id)
    denom = float(total_datapoints if mode == "literal" else sum(r.n_samples for r in ordered))
    new = {k: w_round[k].copy() for k in w_round}
    for r in ordered:
        w_round.check_structure(r.params)
        coef = r.n_samples / denom
        for k in new:
            new[k] += np.multiply(coef, d := r.params[k] - w_round[k], out=d)
    return ParamSet(new)


# Samples per evaluation forward.  It bounds the memory of a validation or
# test pass, and it is part of the result: a dense layer's GEMM bytes
# depend on its row count, so changing it changes the recorded losses.
EVAL_BATCH = 512


def _batched_logits(graph: ModelGraph, params: ParamSet, x: np.ndarray,
                    y: np.ndarray):
    """(logits, labels) of consecutive batches of at most `EVAL_BATCH`."""
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty set")
    for lo in range(0, x.shape[0], EVAL_BATCH):
        hi = lo + EVAL_BATCH
        yield nn.forward_logits(graph, params, x[lo:hi]), y[lo:hi]


def evaluate_loss(graph: ModelGraph, params: ParamSet, x: np.ndarray,
                  y: np.ndarray) -> float:
    """Mean cross-entropy over a dataset, batched to bound memory."""
    total = 0.0
    for logits, yb in _batched_logits(graph, params, x, y):
        total += cross_entropy(logits, yb)[0] * yb.shape[0]
    return total / x.shape[0]


def evaluate_accuracy(graph: ModelGraph, params: ParamSet, x: np.ndarray,
                      y: np.ndarray) -> float:
    """Fraction of a dataset whose top logit is the label."""
    hits = 0
    for logits, yb in _batched_logits(graph, params, x, y):
        hits += int((logits.argmax(axis=1) == yb).sum())
    return hits / x.shape[0]


def _schedule_lr(cfg: ExperimentConfig, t: int) -> float:
    """Fixed baseline: halve the lr each third of the round budget."""
    stage_len = max(1, cfg.rounds // 3)
    stage = min((t - 1) // stage_len, 2) if cfg.rounds >= 3 else 0
    return cfg.schedule.initial_lr * (0.5 ** stage)


# Thread-count getters of OpenBLAS builds: the plain name, and the
# 64-bit-integer build that numpy wheels bundle.
_BLAS_THREAD_GETTERS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


@functools.cache
def _blas_thread_getter():
    """ctypes getter of the loaded OpenBLAS's thread count, or None.

    Looks the getter up through numpy's linalg extension: a symbol lookup
    on its handle also searches the libraries it links, so it finds the
    OpenBLAS copy numpy loaded, wherever it lives.  Never sets the count:
    the bytes of a GEMM can depend on it.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):  # a numpy without that extension file
        return None
    for name in _BLAS_THREAD_GETTERS:
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter
    return None


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs each GEMM on; None if unknown."""
    getter = _blas_thread_getter()
    return None if getter is None else int(getter())


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_width(parallel_clients: int, blas_threads: int | None, cores: int) -> int:
    """Client threads to run at once.

    Each client's GEMMs already run on `blas_threads` threads, so more
    clients than `cores // blas_threads` only oversubscribe the cores.
    With the BLAS thread count unknown, `parallel_clients` stands.
    """
    if blas_threads is None:
        return parallel_clients
    return min(parallel_clients, max(1, cores // blas_threads))


def run_round(server: ServerState, clients: list[ClientState],
              arch: ModelArch, decoder: tuple[MatchStage, ...] | None,
              cfg: ExperimentConfig) -> RoundRecord:
    """Advance the federation by one synchronous round (in place)."""
    t = server.round + 1
    start = time.perf_counter()

    # 1. hyper-parameters for this round
    if cfg.use_tuner:
        rng = seeding.substream(cfg.seed, seeding.HYPER_SAMPLE, t)
        i = sample(server.grid, server.dist, rng)
        raw = server.grid.raw_values(i)
        lr, iterations = float(raw["learning_rate"]), int(raw["sgd_iterations"])
        h_norm = tuple(float(v) for v in server.grid.points[i])
        mu_norm = tuple(float(v) for v in server.dist.mu)
        mu_raw_now = mu_raw(server.grid, server.dist)
    else:
        lr, iterations = _schedule_lr(cfg, t), cfg.schedule.iterations
        h_norm = mu_norm = mu_raw_now = None

    # 2. participating clients
    sel_rng = seeding.substream(cfg.seed, seeding.CLIENT_SELECT, t)
    selected = select_clients(cfg.n_clients, cfg.client_fraction, sel_rng)

    # 3. local work (serial or thread pool; same reduction order either way)
    def work(cid: int) -> ClientResult:
        crng = seeding.substream(cfg.seed, seeding.CLIENT_TRAIN, t, cid)
        return train_client(clients[cid], server.params, arch.graph, decoder,
                            lr, iterations, cfg, crng)

    workers = _pool_width(cfg.parallel_clients, _blas_threads(), _cores())
    if workers > 1 and len(selected) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, selected))
    else:
        results = [work(cid) for cid in selected]

    # 4. aggregate and persist decoder params
    new_params = aggregate(server.params, results, server.total_datapoints,
                           cfg.aggregation)
    for r in results:
        if r.theta is not None:
            clients[r.client_id].theta = r.theta

    # 5. reward and tuner update
    loss_before = server.current_loss
    loss_after = evaluate_loss(arch.graph, new_params, server.val_x, server.val_y)
    r_t = None
    if cfg.use_tuner:
        r_t = reward(loss_before, loss_after)
        server.window.append((r_t, score(server.grid, server.dist, i)))
        server.dist = reinforce_update(
            server.dist, server.window, cfg.tuner.hyper_lr,
            sign=1.0 if cfg.tuner.update_sign == "ascent" else -1.0,
            freeze_precision=cfg.tuner.freeze_precision)

    server.params = new_params
    server.current_loss = loss_after
    server.round = t

    client_losses = tuple(
        {"client": r.client_id, **asdict(r.losses), "short_batch": r.short_batch}
        for r in results)
    return RoundRecord(
        round=t,
        selected=selected,
        lr=lr,
        iterations=iterations,
        h_norm=h_norm,
        mu_norm=mu_norm,
        mu_raw=mu_raw_now,
        loss_before=loss_before,
        loss_after=loss_after,
        reward=r_t,
        client_losses=client_losses,
        wall_time_sec=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Whole experiments


def _load_task_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if cfg.task == "synthetic":
        s = cfg.synthetic
        rng = seeding.substream(cfg.seed, seeding.SYNTHETIC_DATA)
        full = make_synthetic(rng, classes=s.classes,
                              per_class=s.per_class + s.test_per_class,
                              input_dim=s.input_dim, spread=s.spread)
        return stratified_holdout(full, s.classes * s.test_per_class, rng)
    if cfg.task == "mnist":
        return load_mnist(cfg.data_dir)
    if cfg.task == "cifar10":
        return load_cifar10(cfg.data_dir)
    d = Path(cfg.data_dir)  # "kws": the schema admits no other task
    return load_features(d / "kws_train.fedf"), load_features(d / "kws_test.fedf")


def setup_experiment(cfg: ExperimentConfig):
    """Build server, clients, arch and decoder for a fresh run.

    Returns (server, clients, arch, decoder, test_set).
    """
    train, test = _load_task_data(cfg)
    arch = build_arch(cfg.arch_name)
    if train.samples.shape[1:] != arch.graph.input_shape:
        raise ConfigError(
            f"data_dir {cfg.data_dir!r}: {cfg.task} samples of shape "
            f"{train.samples.shape[1:]} do not fit {arch.name} input {arch.graph.input_shape}")

    if cfg.train_subset is not None and cfg.train_subset < train.n:
        sub_rng = seeding.substream(cfg.seed, seeding.TRAIN_SUBSET)
        train = stratified_holdout(train, cfg.train_subset, sub_rng)[1]

    val_rng = seeding.substream(cfg.seed, seeding.VALIDATION_SPLIT)
    if train.n - cfg.validation_size < cfg.n_clients:
        raise ConfigError(
            f"validation_size {cfg.validation_size} leaves fewer training samples "
            f"than n_clients {cfg.n_clients} (train size {train.n})")
    train, val = stratified_holdout(train, cfg.validation_size, val_rng)

    if cfg.partition == "iid":
        part_rng = seeding.substream(cfg.seed, seeding.PARTITION)
        shards = partition_iid(train.n, cfg.n_clients, part_rng)
    else:
        shards = partition_by_class(train.labels, cfg.n_clients)

    decoder = None
    clients: list[ClientState] = []
    for k, idx in enumerate(shards):
        theta = None
        if cfg.use_matching:
            drng = seeding.substream(cfg.seed, seeding.INIT_DECODER, k)
            # The stages are the same for every client; theta is its own.
            decoder, theta = build_matching_decoder(
                arch, drng, include_input_site=cfg.loss.match_input_site)
        clients.append(ClientState(client_id=k, x=train.samples[idx],
                                   y=train.labels[idx], theta=theta))

    init_rng = seeding.substream(cfg.seed, seeding.INIT_PARAMS)
    params = nn.init_params(arch.graph, init_rng)

    server = ServerState(
        params=params,
        val_x=val.samples,
        val_y=val.labels,
        total_datapoints=train.n,
    )
    if cfg.use_tuner:
        server.grid = cfg.hyper_grid()
        server.dist = initial_dist(server.grid, cfg.tuner.init_std)
        # A run appends one pair per round, so a window wider than the run
        # never drops one; capping it keeps a huge `tuner.window` allocatable.
        server.window = deque(maxlen=min(cfg.tuner.window, cfg.rounds) + 1)
    server.current_loss = evaluate_loss(arch.graph, params, val.samples, val.labels)
    return server, clients, arch, decoder, test


def run_experiment(cfg: ExperimentConfig, sink=None,
                   progress=None) -> ExperimentResult:
    """Run a full experiment; stream records to `sink` if given.

    `sink` needs write_round(RoundRecord) and write_eval(EvalRecord);
    `progress` is an optional callable(str) for status lines.
    """
    server, clients, arch, decoder, test = setup_experiment(cfg)
    if progress is not None:
        blas, cores = _blas_threads(), _cores()
        progress(f"client pool: {_pool_width(cfg.parallel_clients, blas, cores)} "
                 f"thread(s) (parallel_clients {cfg.parallel_clients}, BLAS threads "
                 f"{'unknown' if blas is None else blas}, cores {cores}); "
                 f"heap reuse {'on' if nn.HEAP_REUSE else 'unavailable'}")
    records: list[RoundRecord] = []
    evals: list[EvalRecord] = []

    def run_eval(t: int) -> None:
        acc = evaluate_accuracy(arch.graph, server.params, test.samples, test.labels)
        ev = EvalRecord(round=t, test_accuracy=acc)
        evals.append(ev)
        if sink is not None:
            sink.write_eval(ev)
        if progress is not None:
            progress(f"round {t}: test accuracy {acc:.4f}")

    run_eval(0)
    for t in range(1, cfg.rounds + 1):
        rec = run_round(server, clients, arch, decoder, cfg)
        records.append(rec)
        if sink is not None:
            sink.write_round(rec)
        if progress is not None and (t % 10 == 0 or t == cfg.rounds):
            progress(f"round {t}/{cfg.rounds}: val loss {rec.loss_after:.4f} "
                     f"lr {rec.lr:g} iters {rec.iterations} "
                     f"({rec.wall_time_sec:.2f}s)")
        if t % cfg.eval_every == 0:
            run_eval(t)

    if cfg.rounds % cfg.eval_every == 0:
        final_acc = evals[-1].test_accuracy
    else:
        final_acc = evaluate_accuracy(arch.graph, server.params,
                                      test.samples, test.labels)
    return ExperimentResult(records=records, evals=evals, params=server.params,
                            final_test_accuracy=final_acc,
                            final_validation_loss=server.current_loss)
