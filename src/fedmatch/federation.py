"""Synchronous federated averaging rounds.

One round, in order: sample this round's hyper-parameters (tuned or from
the fixed schedule), select clients, run local SGD on each selected client
from the broadcast parameters, aggregate the deltas, evaluate the
validation loss, score the reward, and update the tuning distribution.

Clients train on a thread pool, and a serial run (`parallel_clients` 1)
is a pool one thread wide, so serial and threaded rounds run the same
code; results reduce in client-id order, so both write the same bytes.
The pool is never wider than the cores that each client's BLAS threads
leave free.  A model without conv layers trains and evaluates on one
BLAS thread, so its clients fill the cores (`_model_blas_count`).  Every
random draw comes from a named substream of the experiment seed (see
`seeding`), which pins the whole run, including the bytes of its metrics
files.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
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

    It holds no timing, so reruns of the same seed write identical files;
    `run_experiment` times each round for its progress line only.
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
    """Yield `iterations` index arrays, one per batch.

    Shuffled epochs are chained into one stream: the
    ceil(iterations * batch_size / n) permutations the steps need are
    drawn in order and concatenated, and each batch is the next
    `batch_size` indices, so a batch can span two epochs.  A shard smaller
    than one batch is used whole every step; `train_client` flags that
    case from the shard size.
    """
    if n < batch_size:
        whole = np.arange(n)
        for _ in range(iterations):
            yield whole
        return
    epochs = -(-iterations * batch_size // n)
    stream = np.concatenate([np.empty(0, np.int64),
                             *(rng.permutation(n) for _ in range(epochs))])
    for lo in range(0, iterations * batch_size, batch_size):
        yield stream[lo:lo + batch_size]


def train_client(client: ClientState, w_round: ParamSet, graph: ModelGraph,
                 decoder: tuple[MatchStage, ...] | None, lr: float, iterations: int,
                 cfg: ExperimentConfig, rng: np.random.Generator) -> ClientResult:
    """Run `iterations` (at least 1) steps of local SGD from the broadcast params.

    The objective follows `cfg.loss` and `cfg.use_wd`, with matching on
    exactly when `decoder` is given; batches have `cfg.batch_size` samples,
    or a shard smaller than that is used whole on every step and the
    result's `short_batch` says so.  Model and decoder parameters step
    together at rate `lr`.  The returned breakdown is from the last
    iteration (the loss the client ended on).
    """
    w = w_round
    theta = client.theta
    for idx in _batch_indices(client.n_samples, cfg.batch_size, iterations, rng):
        xb = client.x[idx]
        yb = client.y[idx]
        breakdown, w_grads, theta_grads = total_loss_and_grads(
            graph, xb, yb, w, w_round, decoder, theta, cfg.loss, cfg.use_wd)
        w = nn.sgd_step(w, w_grads, lr)
        if theta_grads is not None:
            theta = nn.sgd_step(theta, theta_grads, lr)
    return ClientResult(client_id=client.client_id, n_samples=client.n_samples,
                        params=w, theta=theta, losses=breakdown,
                        short_batch=client.n_samples < cfg.batch_size)


def aggregate(w_round: ParamSet, results: list[ClientResult],
              total_datapoints: int, mode: str = "literal") -> ParamSet:
    """Weighted average of client deltas applied to the broadcast params.

    literal mode weighs each client by n_k / N (N = all datapoints across
    all clients); renormalized mode weighs by n_k / sum of the selected
    clients' n_k.  Accumulation runs in ascending client order, so the
    result does not depend on who computed what where.
    """
    ordered = sorted(results, key=lambda r: r.client_id)
    denom = float(total_datapoints if mode == "literal" else sum(r.n_samples for r in ordered))
    new = {k: w_round[k].copy() for k in w_round}
    for r in ordered:
        coef = r.n_samples / denom
        for k in new:
            new[k] += np.multiply(coef, d := r.params[k] - w_round[k], out=d)
    return new


# Samples per evaluation forward.  It bounds the memory of a validation or
# test pass, and it is part of the result: a dense layer's GEMM bytes
# depend on its row count, so changing it changes the recorded losses.
EVAL_BATCH = 512


def _batched_logits(graph: ModelGraph, params: ParamSet, x: np.ndarray,
                    y: np.ndarray):
    """(logits, labels) of consecutive batches of at most `EVAL_BATCH`, on
    the BLAS threads of `_model_blas_count`."""
    with _model_blas_threads(graph):
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


# Thread-count calls of OpenBLAS builds, "get" or "set" in the braces: the
# plain names, and the 64-bit-integer build that numpy wheels bundle.
_BLAS_THREAD_CALLS = ("openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_")


@functools.cache
def _blas_thread_calls():
    """(getter, setter) of the loaded OpenBLAS's thread count: the setter is
    None if it has none, and both are None if it has no getter.

    Looks them up through numpy's linalg extension: a symbol lookup on its
    handle also searches the libraries it links, so it finds the OpenBLAS
    copy numpy loaded, wherever it lives.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):  # a numpy without that extension file
        return None, None
    for name in _BLAS_THREAD_CALLS:
        if (get := getattr(lib, name.format("get"), None)) is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            if (put := getattr(lib, name.format("set"), None)) is not None:
                put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None, None


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs each GEMM on; None if unknown."""
    get = _blas_thread_calls()[0]
    return None if get is None else int(get())


def _model_blas_count(graph: ModelGraph) -> int | None:
    """Threads `graph`'s GEMMs run on inside `_model_blas_threads`: 1 for a
    model without conv layers when this thread can set the count, else the
    library's count (None if unknown).

    One BLAS thread makes a dense-only model's bytes independent of the
    library's count, and lets its clients fill the cores (`_pool_width`):
    mnist_mlp (and so its decoder) on 2 cores trains two clients at once.
    A serial run (`parallel_clients` 1) then leaves the other cores idle,
    and its rounds are slower than on the library's count; serial and
    pooled runs must use one count to write the same bytes.  Conv GEMMs
    gain about 30% from 2 threads, so a conv model keeps the library's
    count.  The count is global to the process, so only the main thread
    sets it: driven from another thread, a run keeps the library's count,
    and its dense-only bytes again depend on it.
    """
    dense_only = not any(spec.kind.endswith("conv2d") for spec in graph.layers)
    main = threading.current_thread() is threading.main_thread()
    settable = main and None not in _blas_thread_calls()
    return 1 if dense_only and settable else _blas_threads()


@contextlib.contextmanager
def _model_blas_threads(graph: ModelGraph):
    """Run the block's GEMMs on `_model_blas_count(graph)` threads and yield
    that count.  The count is set only when it differs from the library's,
    never while a client trains, and the old one comes back even when the
    block raises.
    """
    before, count = _blas_threads(), _model_blas_count(graph)
    if count == before:
        yield count
        return
    put = _blas_thread_calls()[1]
    put(count)
    try:
        yield count
    finally:
        put(before)


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

    # 3. local work on the pool, results in `selected` order; a serial
    # round is a 1-wide pool.  The BLAS count is set here, on the calling
    # thread, before any client starts.
    def work(cid: int) -> ClientResult:
        crng = seeding.substream(cfg.seed, seeding.CLIENT_TRAIN, t, cid)
        return train_client(clients[cid], server.params, arch.graph, decoder,
                            lr, iterations, cfg, crng)

    with _model_blas_threads(arch.graph) as blas:
        workers = _pool_width(cfg.parallel_clients, blas, _cores())
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, selected))

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
    # The one check of the task data: the loaders only parse their formats,
    # and the splits, partitions, forward, loss and accuracy trust it.
    where, classes = f"data_dir {cfg.data_dir!r}: {cfg.task} ", arch.graph.output_shape[0]
    for split, ds in (("train", train), ("test", test)):
        if ds.samples.shape[1:] != arch.graph.input_shape:
            raise ConfigError(
                f"{where}samples of shape {ds.samples.shape[1:]} do not fit {arch.name} "
                f"input {arch.graph.input_shape} in the {split} set")
        if ds.labels.shape != ds.samples.shape[:1]:
            raise ConfigError(f"{where}{split} set has labels of shape {ds.labels.shape} "
                              f"for {ds.samples.shape[0]} samples")
        if ds.n == 0:
            raise ConfigError(f"{where}{split} set is empty")
        if not np.isfinite(ds.samples).all():
            raise ConfigError(f"{where}{split} set has non-finite samples")
        if ds.labels.max() >= classes:
            raise ConfigError(f"{where}label {ds.labels.max()} in the {split} set is not "
                              f"one of {arch.name}'s {classes} classes (0-{classes - 1})")

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
        # _validate makes n_clients the task's class count; a split can empty a class.
        counts = np.bincount(train.labels, minlength=cfg.n_clients)
        if not counts.all():
            raise ConfigError(
                f"{where}train set, after the train subset and validation split, lacks "
                f"classes {np.flatnonzero(counts == 0).tolist()}; the non_iid partition "
                f"gives each of the {cfg.n_clients} clients one class")
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
        blas, cores = _model_blas_count(arch.graph), _cores()
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
        start = time.perf_counter()
        rec = run_round(server, clients, arch, decoder, cfg)
        wall = time.perf_counter() - start
        records.append(rec)
        if sink is not None:
            sink.write_round(rec)
        if progress is not None and (t % 10 == 0 or t == cfg.rounds):
            progress(f"round {t}/{cfg.rounds}: val loss {rec.loss_after:.4f} "
                     f"lr {rec.lr:g} iters {rec.iterations} "
                     f"({wall:.2f}s)")
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
