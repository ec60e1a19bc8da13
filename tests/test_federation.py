"""Round mechanics: selection, local SGD, aggregation, full runs."""

import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedmatch import federation, nn
from fedmatch.cli import main
from fedmatch.config import ConfigError, from_dict
from fedmatch.data import Dataset, write_features
from fedmatch.federation import (
    ClientState,
    _batch_indices,
    _blas_threads,
    _pool_width,
    _schedule_lr,
    aggregate,
    evaluate_loss,
    run_experiment,
    run_round,
    select_clients,
    setup_experiment,
    train_client,
)
from fedmatch.losses import LossConfig
from fedmatch.metrics import MetricsSink
from fedmatch.models import build_arch, build_matching_decoder
from fedmatch.nn import ModelGraph, ParamSet, dense, relu

from test_data import make_mnist_dir, write_idx

BASE = {
    "task": "synthetic",
    "seed": 11,
    "n_clients": 4,
    "rounds": 3,
    "batch_size": 16,
    "validation_size": 20,
    "eval_every": 2,
    "synthetic": {"classes": 4, "per_class": 30, "test_per_class": 10},
    "schedule": {"initial_lr": 0.05, "iterations": 4},
}


def make_cfg(overrides=None):
    cfg = dict(BASE)
    if overrides:
        for k, v in overrides.items():
            if isinstance(v, dict) and isinstance(cfg.get(k), dict):
                cfg[k] = {**cfg[k], **v}
            else:
                cfg[k] = v
    return from_dict(cfg)


def tiny_graph():
    return ModelGraph((8,), (dense(8, 6), relu(), dense(6, 3)))


def params_equal(a: ParamSet, b: ParamSet) -> bool:
    return all(np.array_equal(a[k], b[k]) for k in a)


class TestSelectClients:
    def test_full_participation_is_everyone_ascending(self):
        sel = select_clients(7, 1.0, np.random.default_rng(0))
        assert sel == tuple(range(7))

    def test_partial_selection_is_distinct_sorted_in_range(self):
        sel = select_clients(10, 0.5, np.random.default_rng(3))
        assert len(sel) == 5
        assert sel == tuple(sorted(set(sel)))
        assert all(0 <= c < 10 for c in sel)

    def test_at_least_one_client(self):
        assert len(select_clients(10, 0.01, np.random.default_rng(0))) == 1

    def test_deterministic_given_stream(self):
        a = select_clients(20, 0.3, np.random.default_rng(5))
        b = select_clients(20, 0.3, np.random.default_rng(5))
        assert a == b


class TestBatchIndices:
    def test_every_batch_full_when_shard_is_larger(self):
        batches = list(_batch_indices(10, 4, 6, np.random.default_rng(0)))
        assert len(batches) == 6
        for idx in batches:
            assert idx.size == 4

    def test_epochs_chain_without_repeats_inside_an_epoch(self):
        batches = list(_batch_indices(10, 5, 6, np.random.default_rng(1)))
        flat = np.concatenate(batches)
        # 30 draws over shard size 10: each consecutive block of 10 is a
        # permutation, so every sample appears exactly 3 times overall
        assert flat.size == 30
        for lo in range(0, 30, 10):
            assert np.array_equal(np.sort(flat[lo:lo + 10]), np.arange(10))

    def test_small_shard_used_whole(self):
        batches = list(_batch_indices(3, 16, 4, np.random.default_rng(0)))
        assert len(batches) == 4
        for idx in batches:
            assert np.array_equal(np.sort(idx), np.arange(3))

    def test_zero_iterations_yields_nothing(self):
        assert list(_batch_indices(10, 4, 0, np.random.default_rng(0))) == []

    @pytest.mark.parametrize("n, batch_size, iterations", [
        (10, 4, 0), (10, 4, 1), (10, 4, 6), (10, 5, 6), (16, 16, 1), (16, 16, 5),
        (12, 4, 3), (12, 4, 7), (7, 3, 40), (9, 2, 100), (3, 16, 4), (1, 1, 5),
        (40, 16, 6), (100, 33, 12),
    ])
    def test_one_stream_draws_the_epochs_of_the_chained_loop(self, n, batch_size,
                                                              iterations):
        def chained(rng):
            # The rule before epochs became one stream: a permutation's tail
            # joins the head of the next, drawn when a batch crosses it.
            if n < batch_size:
                for _ in range(iterations):
                    yield np.arange(n)
                return
            perm, pos = rng.permutation(n), 0
            for _ in range(iterations):
                if pos + batch_size <= n:
                    yield perm[pos:pos + batch_size]
                    pos += batch_size
                else:
                    tail, perm = perm[pos:], rng.permutation(n)
                    pos = batch_size - tail.size
                    yield np.concatenate([tail, perm[:pos]])

        got = list(_batch_indices(n, batch_size, iterations, np.random.default_rng(n)))
        want = list(chained(np.random.default_rng(n)))
        assert len(got) == len(want) == iterations
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestTrainClient:
    def _client(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 8))
        y = rng.integers(0, 3, n)
        return ClientState(client_id=0, x=x, y=y)

    def _cfg(self, **loss):
        return replace(make_cfg(), loss=LossConfig(**loss))

    def test_sgd_reduces_training_loss(self):
        graph = tiny_graph()
        w = nn.init_params(graph, np.random.default_rng(1))
        client = self._client()
        before = evaluate_loss(graph, w, client.x, client.y)
        res = train_client(client, w, graph, None,
                           0.2, 50,
                           self._cfg(use_er=False), np.random.default_rng(2))
        after = evaluate_loss(graph, res.params, client.x, client.y)
        assert after < before

    def test_short_batch_flagged(self):
        # batch 16: a shard below one batch is used whole on every step; a
        # shard of one batch or more never is, over one step or several epochs
        graph = tiny_graph()
        w = nn.init_params(graph, np.random.default_rng(1))
        for n, iterations, short in ((5, 2, True), (3, 4, True), (16, 1, False),
                                     (40, 6, False)):
            res = train_client(self._client(n=n), w, graph, None,
                               0.1, iterations,
                               self._cfg(use_er=False), np.random.default_rng(2))
            assert res.short_batch is short

    def test_decoder_params_move_with_matching_on(self):
        arch = build_arch("mnist_mlp")
        decoder, theta0 = build_matching_decoder(arch, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        client = ClientState(client_id=0, x=rng.normal(size=(20, 784)) * 0.1,
                             y=rng.integers(0, 10, 20), theta=theta0)
        w = nn.init_params(arch.graph, np.random.default_rng(5))
        res = train_client(client, w, arch.graph, decoder,
                           0.05, 3,
                           self._cfg(), np.random.default_rng(6))
        assert res.theta is not None
        assert not params_equal(res.theta, theta0)
        assert res.losses.matching > 0.0

    def test_first_step_reuses_the_local_trace_as_the_fixed_one(self, monkeypatch):
        arch = build_arch("mnist_mlp")
        decoder, theta = build_matching_decoder(arch, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        client = ClientState(client_id=0, x=rng.normal(size=(20, 784)) * 0.1,
                             y=rng.integers(0, 10, 20), theta=theta)
        w = nn.init_params(arch.graph, np.random.default_rng(5))
        calls = []
        real_forward = nn.forward

        def counted(*args):
            calls.append(args[1])
            return real_forward(*args)

        monkeypatch.setattr(nn, "forward", counted)
        train_client(client, w, arch.graph, decoder,
                     0.05, 2,
                     self._cfg(), np.random.default_rng(6))
        # step 1: local (= fixed); step 2: local, then fixed at the broadcast
        assert len(calls) == 3
        assert calls[0] is w and calls[1] is not w and calls[2] is w


class TestAggregate:
    def _setup(self):
        graph = tiny_graph()
        w = nn.init_params(graph, np.random.default_rng(0))
        return graph, w

    def _result(self, cid, n, params):
        from fedmatch.federation import ClientResult
        from fedmatch.losses import LossBreakdown
        return ClientResult(client_id=cid, n_samples=n, params=params,
                            theta=None, losses=LossBreakdown(0, 0, 0, 0, 0),
                            short_batch=False)

    def test_noop_when_clients_return_broadcast(self):
        _, w = self._setup()
        out = aggregate(w, [self._result(0, 10, w), self._result(1, 10, w)], 20)
        assert params_equal(out, w)

    def test_literal_scales_by_global_count(self):
        _, w = self._setup()
        moved = {k: a + np.ones_like(a) for k, a in w.items()}
        # one client holding 10 of 40 datapoints moves the average by 1/4
        out = aggregate(w, [self._result(0, 10, moved)], 40, "literal")
        expect = {k: a + 0.25 for k, a in w.items()}
        assert all(np.allclose(out[k], expect[k]) for k in w)

    def test_renormalized_ignores_absent_clients(self):
        _, w = self._setup()
        moved = {k: a + 1.0 for k, a in w.items()}
        out = aggregate(w, [self._result(0, 10, moved)], 40, "renormalized")
        assert all(np.allclose(out[k], w[k] + 1.0) for k in w)

    def test_modes_agree_under_full_participation(self):
        _, w = self._setup()
        rng = np.random.default_rng(7)
        results = [self._result(c, n, {k: a + rng.normal(size=a.shape)
                                       for k, a in w.items()})
                   for c, n in [(0, 5), (1, 12), (2, 23)]]
        lit = aggregate(w, results, 40, "literal")
        ren = aggregate(w, results, 40, "renormalized")
        assert params_equal(lit, ren)

    def test_result_order_does_not_matter(self):
        _, w = self._setup()
        rng = np.random.default_rng(8)
        results = [self._result(c, 10, {k: a + rng.normal(size=a.shape)
                                        for k, a in w.items()})
                   for c in range(4)]
        fwd = aggregate(w, list(results), 40)
        rev = aggregate(w, list(reversed(results)), 40)
        assert params_equal(fwd, rev)


class TestScheduleLr:
    def test_halves_each_third(self):
        cfg = make_cfg({"rounds": 90, "schedule": {"initial_lr": 0.2}})
        assert _schedule_lr(cfg, 1) == pytest.approx(0.2)
        assert _schedule_lr(cfg, 30) == pytest.approx(0.2)
        assert _schedule_lr(cfg, 31) == pytest.approx(0.1)
        assert _schedule_lr(cfg, 60) == pytest.approx(0.1)
        assert _schedule_lr(cfg, 61) == pytest.approx(0.05)
        assert _schedule_lr(cfg, 90) == pytest.approx(0.05)

    def test_never_decays_past_a_quarter(self):
        cfg = make_cfg({"rounds": 30, "schedule": {"initial_lr": 0.2}})
        assert _schedule_lr(cfg, 30) == pytest.approx(0.05)

    def test_tiny_budgets_stay_at_initial(self):
        cfg = make_cfg({"rounds": 2, "schedule": {"initial_lr": 0.2}})
        assert _schedule_lr(cfg, 1) == pytest.approx(0.2)
        assert _schedule_lr(cfg, 2) == pytest.approx(0.2)


class TestEvaluate:
    def test_kws_run_with_an_empty_test_file_names_the_empty_set(self, tmp_path):
        # Set-up rejects, naming data_dir, the task and the split, each kws
        # container the model cannot train or score on.  Nothing later
        # checks: the forward, the loss and the accuracy trust the data, and
        # an out-of-range test label would only score 0.
        rng = np.random.default_rng(0)
        y = np.arange(24) % 4
        good = Dataset(rng.random((24, 1, 32, 32)), y)
        bad_label = Dataset(good.samples, np.where(y == 3, 12, y))
        nan_sample = Dataset(good.samples.copy(), y)
        nan_sample.samples[5, 0, 7, 9] = np.nan
        non_iid = {"partition": "non_iid", "n_clients": 10}
        cases = [
            ("test", Dataset(rng.random((24, 1, 16, 16)), y),
             r"samples of shape \(1, 16, 16\) do not fit kws_cnn input \(1, 32, 32\) "
             r"in the test set", {}),
            ("test", Dataset(np.zeros((0, 1, 32, 32)), np.zeros(0, dtype=np.int64)),
             r"test set is empty", {}),
            ("train", bad_label, r"label 12 in the train set is not one of kws_cnn's 10 ", {}),
            ("test", bad_label, r"label 12 in the test set is not one of kws_cnn's 10 ", {}),
            ("train", nan_sample, r"train set has non-finite samples", {}),
            ("test", nan_sample, r"test set has non-finite samples", {}),
            ("train", Dataset(good.samples, np.arange(24) % 9),
             r"train set, after the train subset and validation split, lacks classes \[9\]",
             non_iid),
        ]
        where = re.escape(f"data_dir {str(tmp_path)!r}: kws ")
        for split, bad, message, overrides in cases:
            for name in ("train", "test"):
                write_features(tmp_path / f"kws_{name}.fedf", bad if name == split else good)
            cfg = make_cfg({"task": "kws", "data_dir": str(tmp_path), "n_clients": 2,
                            "validation_size": 4, **overrides})
            with pytest.raises(ConfigError, match=f"^{where}{message}"):
                run_experiment(cfg)

    @pytest.mark.parametrize("labels, message", [
        (np.zeros(7), r"train set has labels of shape \(7,\) for 40 samples"),
        (np.where(np.arange(40) == 3, 12, np.arange(40) % 10),
         r"label 12 in the train set is not one of mnist_mlp's 10 "),
    ])
    def test_mnist_run_with_bad_train_labels_names_the_train_set(self, tmp_path, labels,
                                                                 message):
        # The MNIST loader only parses the IDX files; set-up checks the labels.
        make_mnist_dir(tmp_path)
        write_idx(tmp_path / "train-labels-idx1-ubyte", labels)
        cfg = make_cfg({"task": "mnist", "data_dir": str(tmp_path), "n_clients": 2,
                        "validation_size": 4})
        where = re.escape(f"data_dir {str(tmp_path)!r}: mnist ")
        with pytest.raises(ConfigError, match=f"^{where}{message}"):
            run_experiment(cfg)


class TestClientPool:
    @pytest.mark.parametrize("parallel, blas, cores, width", [
        (4, None, 2, 4),  # BLAS thread count unknown: parallel_clients stands
        (2, 1, 2, 2),
        (4, 1, 2, 2),
        (2, 2, 2, 1),
        (1, 1, 2, 1),
        (4, 8, 2, 1),  # more BLAS threads than cores
        (8, 2, 16, 8),
    ])
    def test_pool_width_leaves_each_client_its_blas_threads(self, parallel, blas,
                                                            cores, width):
        assert _pool_width(parallel, blas, cores) == width

    def test_probe_reads_the_blas_thread_count_from_the_environment(self):
        if _blas_threads() is None:
            pytest.skip("no OpenBLAS thread-count getter in this process")
        out = subprocess.run(
            [sys.executable, "-c",
             "from fedmatch import federation; print(federation._blas_threads())"],
            env=_env_with_blas_threads(1), capture_output=True, text=True, timeout=60,
            check=True)
        assert out.stdout.strip() == "1"

    @pytest.mark.parametrize("model", ["mnist_mlp", "kws_cnn"])
    def test_bytes_do_not_depend_on_the_blas_thread_count(self, model, tmp_path):
        # Serial and pooled runs at OPENBLAS_NUM_THREADS 1 and 2 write the
        # same records.  mnist_mlp trains and evaluates on one BLAS thread
        # whatever the library's count; with the library's count its
        # rounds.jsonl differs between 1 and 2 threads on a 2-core machine.
        # kws_cnn keeps the library's count, and its GEMMs give the same
        # bytes on 1 and 2 threads at these shapes.  OpenBLAS
        # caps its count at the cores, so this shows equality only up to
        # this machine's cores.
        _skip_unless_blas_is_settable()
        if model == "mnist_mlp":
            cfg = {**BASE, "use_tuner": True, "use_matching": True, "batch_size": 64,
                   "validation_size": 200, "synthetic": {"classes": 4, "per_class": 80,
                                                         "test_per_class": 10},
                   "loss": {"matching_coeff": 0.1},
                   "tuner": {"axes": [{"name": "learning_rate", "values": [0.01, 0.05]},
                                      {"name": "sgd_iterations", "values": [2, 3]}]}}
        else:
            rng = np.random.default_rng(0)
            for split, n in (("train", 40), ("test", 24)):
                write_features(tmp_path / f"kws_{split}.fedf",
                               Dataset(rng.random((n, 1, 32, 32)), np.arange(n) % 4))
            cfg = {**BASE, "task": "kws", "data_dir": str(tmp_path), "use_wd": True,
                   "n_clients": 4, "validation_size": 8, "rounds": 2, "batch_size": 4,
                   "eval_every": 1, "schedule": {"initial_lr": 0.05, "iterations": 2}}
        runs = set()
        for threads in (1, 2):
            for parallel in (1, 2):
                out = tmp_path / f"t{threads}p{parallel}"
                cfg_path = tmp_path / f"t{threads}p{parallel}.json"
                cfg_path.write_text(json.dumps({**cfg, "parallel_clients": parallel,
                                                "output_dir": str(out)}))
                subprocess.run([sys.executable, "-m", "fedmatch.cli", "run", "--quiet",
                                str(cfg_path)], env=_env_with_blas_threads(threads),
                               capture_output=True, timeout=300, check=True)
                runs.add(tuple((out / name).read_bytes()
                               for name in ("rounds.jsonl", "evals.jsonl")))
        assert len(runs) == 1

    def test_forced_pool_trains_on_several_threads_with_serial_bytes(
            self, monkeypatch, tmp_path):
        serial = _rounds_bytes(tmp_path / "serial", 1)
        monkeypatch.setattr(federation, "_pool_width", lambda *args: 2)
        threads, running = _pair_clients(monkeypatch)
        pooled = _rounds_bytes(tmp_path / "pooled", 4)
        assert len(threads) >= 2
        assert running[1] == 2  # the width, not parallel_clients
        assert pooled == serial

    def test_mlp_pool_trains_two_clients_at_once_with_serial_bytes(
            self, monkeypatch, tmp_path):
        # One BLAS thread per client leaves a core for a second client.
        _skip_unless_blas_is_settable()
        if federation._cores() < 2:
            pytest.skip("one core: the pool is one client wide")
        serial = _rounds_bytes(tmp_path / "serial", 1)
        threads, running = _pair_clients(monkeypatch)
        pooled = _rounds_bytes(tmp_path / "pooled", 2)
        assert len(threads) >= 2
        assert running[1] == 2
        assert pooled == serial

    def test_a_serial_round_trains_on_a_pool_thread(self, monkeypatch):
        # parallel_clients 1 is a pool one thread wide, not a second path
        # on the caller's thread.
        threads = set()
        real_train = federation.train_client

        def record(*args):
            threads.add(threading.get_ident())
            return real_train(*args)

        monkeypatch.setattr(federation, "train_client", record)
        run_experiment(make_cfg({"rounds": 1, "parallel_clients": 1}))
        assert len(threads) == 1 and threading.get_ident() not in threads

    def test_blas_count_comes_back_after_a_run_and_a_failed_round(self, monkeypatch):
        put = _skip_unless_blas_is_settable()
        before = _blas_threads()
        if before == 1:  # make the pin to 1 visible
            put(2)
        try:
            outer = _blas_threads()
            run_experiment(make_cfg({"parallel_clients": 2}))
            assert _blas_threads() == outer
            seen = []

            def diverge(*args):
                seen.append(_blas_threads())
                raise nn.NonFiniteError("non-finite values in loss")

            monkeypatch.setattr(federation, "train_client", diverge)
            with pytest.raises(nn.NonFiniteError):
                run_experiment(make_cfg({"parallel_clients": 2}))
            assert set(seen) == {1}  # every client trained on one BLAS thread
            assert _blas_threads() == outer
        finally:
            put(before)

    def test_only_a_dense_only_model_sets_the_blas_count(self, monkeypatch, tmp_path):
        put = _skip_unless_blas_is_settable()
        before = _blas_threads()
        calls = _spy_on_the_blas_setter(monkeypatch)
        rng = np.random.default_rng(0)
        y = np.arange(24) % 4
        for split in ("train", "test"):
            write_features(tmp_path / f"kws_{split}.fedf",
                           Dataset(rng.random((24, 1, 32, 32)), y))
        try:
            if before == 1:  # make the pin to 1 visible
                put(2)
            outer = _blas_threads()
            run_experiment(make_cfg({"task": "kws", "data_dir": str(tmp_path),
                                     "n_clients": 2, "validation_size": 4, "rounds": 1,
                                     "batch_size": 4, "parallel_clients": 2,
                                     "schedule": {"initial_lr": 0.05, "iterations": 1}}))
            assert calls == []
            run_experiment(make_cfg({"rounds": 1, "parallel_clients": 2}))
            assert calls and calls == [1, outer] * (len(calls) // 2)
        finally:
            put(before)

    def test_a_run_off_the_main_thread_keeps_the_blas_count(self, monkeypatch):
        # Only the main thread sets the process-wide count; elsewhere the
        # rounds run on the library's count, and the progress line says so.
        _skip_unless_blas_is_settable()
        calls = _spy_on_the_blas_setter(monkeypatch)
        lines = []
        worker = threading.Thread(target=run_experiment, args=(make_cfg({"rounds": 1}),),
                                  kwargs={"progress": lines.append})
        worker.start()
        worker.join()
        assert calls == []
        assert f"BLAS threads {_blas_threads()}," in lines[0]
        blas = federation._model_blas_count(build_arch("mnist_mlp").graph)
        assert blas == 1 and calls == []  # on the main thread, reading sets nothing

    def test_run_names_the_pool_on_stderr_only(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "run"
        cfg_path.write_text(json.dumps({**BASE, "rounds": 1, "parallel_clients": 3,
                                        "output_dir": str(out)}))
        assert main(["run", str(cfg_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        cores = federation._cores()
        if None in federation._blas_thread_calls():
            blas = _blas_threads()
            width = _pool_width(3, blas, cores)
        else:  # mnist_mlp's rounds run on one BLAS thread, a client per core
            blas, width = 1, min(3, cores)
        assert err[0] == (
            f"client pool: {width} thread(s) (parallel_clients 3, "
            f"BLAS threads {'unknown' if blas is None else blas}, cores {cores}); "
            f"heap reuse {'on' if nn.HEAP_REUSE else 'unavailable'}")
        for name in ("rounds.jsonl", "evals.jsonl", "config.json"):
            text = (out / name).read_text()
            assert "client pool" not in text and "heap reuse" not in text


def _env_with_blas_threads(threads: int) -> dict:
    """This environment, with fedmatch importable and OpenBLAS at `threads`."""
    src = Path(federation.__file__).resolve().parents[1]
    return {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                        os.environ.get("PYTHONPATH")]))}


def _skip_unless_blas_is_settable():
    """The OpenBLAS thread-count setter; skips the test without one."""
    get, put = federation._blas_thread_calls()
    if get is None or put is None:
        pytest.skip("no OpenBLAS thread-count getter and setter in this process")
    return put


def _spy_on_the_blas_setter(monkeypatch) -> list[int]:
    """Record every count the program sets; the setter still sets it."""
    get, put = federation._blas_thread_calls()
    calls = []

    def spy(n):
        calls.append(n)
        put(n)

    monkeypatch.setattr(federation, "_blas_thread_calls", lambda: (get, spy))
    return calls


def _rounds_bytes(out: Path, parallel: int) -> bytes:
    with MetricsSink(out) as sink:
        run_experiment(make_cfg({"parallel_clients": parallel, "use_matching": True}),
                       sink=sink)
    return (out / "rounds.jsonl").read_bytes()


def _pair_clients(monkeypatch):
    """Make each client wait for a partner, so a pool must run two at once.

    Returns the set of threads that trained and [running now, most at once].
    """
    threads = set()
    lock = threading.Lock()
    running = [0, 0]
    pair = threading.Barrier(2, timeout=30)
    real_train = federation.train_client

    def paired(*args):
        with lock:
            threads.add(threading.get_ident())
            running[0] += 1
            running[1] = max(running)
        try:
            pair.wait()
            return real_train(*args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(federation, "train_client", paired)
    return threads, running


class TestRounds:
    def test_round_advances_server_and_records_losses(self):
        cfg = make_cfg()
        server, clients, arch, decoder, _ = setup_experiment(cfg)
        loss0 = server.current_loss
        rec = run_round(server, clients, arch, decoder, cfg)
        assert server.round == 1
        assert rec.round == 1
        assert rec.loss_before == pytest.approx(loss0)
        assert rec.loss_after == pytest.approx(server.current_loss)
        assert rec.selected == (0, 1, 2, 3)
        assert rec.reward is None and rec.h_norm is None
        assert len(rec.client_losses) == 4

    def test_decoder_state_persists_across_rounds(self):
        cfg = make_cfg({"use_matching": True})
        server, clients, arch, decoder, _ = setup_experiment(cfg)
        theta_start = clients[0].theta
        run_round(server, clients, arch, decoder, cfg)
        theta_r1 = clients[0].theta
        run_round(server, clients, arch, decoder, cfg)
        theta_r2 = clients[0].theta
        assert not params_equal(theta_r1, theta_start)
        assert not params_equal(theta_r2, theta_r1)

    def test_tuned_round_records_hyper_state(self):
        cfg = make_cfg({"use_tuner": True, "tuner": {
            "axes": [
                {"name": "learning_rate", "values": [0.01, 0.05],
                 "integer": False},
                {"name": "sgd_iterations", "values": [2, 4]},
            ]}})
        server, clients, arch, decoder, _ = setup_experiment(cfg)
        rec = run_round(server, clients, arch, decoder, cfg)
        assert rec.h_norm is not None and len(rec.h_norm) == 2
        assert rec.mu_norm == (0.0, 0.0)  # logged before the update
        assert set(rec.mu_raw) == {"learning_rate", "sgd_iterations"}
        assert rec.reward is not None
        assert rec.lr in (0.01, 0.05)
        assert rec.iterations in (2, 4)

    def test_non_iid_setup_gives_single_class_shards(self):
        cfg = make_cfg({"partition": "non_iid",
                        "synthetic": {"classes": 4}})
        _, clients, _, _, _ = setup_experiment(cfg)
        for k, c in enumerate(clients):
            assert np.all(c.y == k)

    def test_validation_must_leave_training_data(self):
        # 4 classes x 20 samples: 80 training samples before validation,
        # which must leave at least one sample per client
        for overrides in ({"validation_size": 120}, {"validation_size": 77},
                          {"n_clients": 200}):
            cfg = make_cfg({"synthetic": {"per_class": 20}, **overrides})
            with pytest.raises(ConfigError,
                               match=r"validation_size.*n_clients.*train size 80\)"):
                setup_experiment(cfg)

    def test_kws_data_of_the_wrong_shape_names_data_dir_and_task(self, tmp_path):
        rng = np.random.default_rng(0)
        y = np.arange(24) % 4
        for split in ("train", "test"):
            write_features(tmp_path / f"kws_{split}.fedf", Dataset(rng.random((24, 1, 16, 16)), y))
        cfg = make_cfg({"task": "kws", "data_dir": str(tmp_path), "n_clients": 2,
                        "validation_size": 4})
        with pytest.raises(ConfigError, match=r"^data_dir .*: kws samples of shape "
                                              r"\(1, 16, 16\) do not fit kws_cnn"):
            setup_experiment(cfg)

    @pytest.mark.parametrize("window", [0, 2])
    def test_tuner_window_holds_z_plus_one_rounds(self, window):
        cfg = make_cfg({"use_tuner": True, "tuner": {"window": window, "axes": [
            {"name": "learning_rate", "values": [0.01, 0.05], "integer": False},
            {"name": "sgd_iterations", "values": [2, 4]},
        ]}})
        server, clients, arch, decoder, _ = setup_experiment(cfg)
        mu0 = tuple(float(v) for v in server.dist.mu)
        records = [run_round(server, clients, arch, decoder, cfg) for _ in range(5)]
        assert len(server.window) == window + 1
        if window == 0:  # r - rbar is 0 in a one-pair window: mu never moves
            assert all(rec.mu_norm == mu0 for rec in records)
            assert tuple(float(v) for v in server.dist.mu) == mu0

    @pytest.mark.parametrize("hyper_lr", [1e6, 1e12, 1e100, 1e300])
    def test_huge_hyper_lr_keeps_the_tuner_finite(self, hyper_lr):
        # Unclamped, log_precision overflowed exp by round 4 at 1e12 and
        # above, and sampling failed on NaN probabilities.
        cfg = make_cfg({"use_tuner": True, "tuner": {"hyper_lr": hyper_lr, "axes": [
            {"name": "learning_rate", "values": [0.01, 0.05], "integer": False},
            {"name": "sgd_iterations", "values": [1, 2]},
        ]}})
        server, clients, arch, decoder, _ = setup_experiment(cfg)
        with np.errstate(over="ignore"):
            records = [run_round(server, clients, arch, decoder, cfg) for _ in range(6)]
        assert [rec.round for rec in records] == list(range(1, 7))
        assert np.all(np.isfinite(server.dist.precision))

    def test_huge_tuner_window_runs_like_one_wider_than_the_run(self, tmp_path):
        def rounds_bytes(window):
            cfg = make_cfg({"rounds": 2, "use_tuner": True,
                            "tuner": {"window": window}})
            with MetricsSink(tmp_path / str(window)) as sink:
                run_experiment(cfg, sink=sink)
            return (tmp_path / str(window) / "rounds.jsonl").read_bytes()

        assert rounds_bytes(2**63) == rounds_bytes(10)


class TestExperiments:
    def test_record_and_eval_counts(self):
        cfg = make_cfg({"rounds": 4, "eval_every": 2})
        result = run_experiment(cfg)
        assert len(result.records) == 4
        assert [e.round for e in result.evals] == [0, 2, 4]
        assert result.final_test_accuracy == result.evals[-1].test_accuracy
        assert result.final_validation_loss == pytest.approx(
            result.records[-1].loss_after)

    def test_offcycle_final_round_gets_fresh_eval(self):
        cfg = make_cfg({"rounds": 3, "eval_every": 2})
        result = run_experiment(cfg)
        assert [e.round for e in result.evals] == [0, 2]
        assert 0.0 <= result.final_test_accuracy <= 1.0

    def test_rerun_is_bitwise_identical(self):
        cfg = make_cfg()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert params_equal(a.params, b.params)
        assert a.records == b.records

    def test_parallel_clients_match_serial_bitwise(self):
        serial = run_experiment(make_cfg({"parallel_clients": 1}))
        pooled = run_experiment(make_cfg({"parallel_clients": 4}))
        assert params_equal(serial.params, pooled.params)
        assert ([r.loss_after for r in serial.records]
                == [r.loss_after for r in pooled.records])

    def test_aggregation_modes_identical_at_full_participation(self):
        lit = run_experiment(make_cfg({"aggregation": "literal"}))
        ren = run_experiment(make_cfg({"aggregation": "renormalized"}))
        assert params_equal(lit.params, ren.params)

    def test_sampled_fraction_changes_participants(self):
        cfg = make_cfg({"n_clients": 8, "client_fraction": 0.5,
                        "synthetic": {"classes": 4, "per_class": 40}})
        result = run_experiment(cfg)
        rounds_seen = {r.selected for r in result.records}
        assert all(len(s) == 4 for s in rounds_seen)

    def test_loss_improves_on_easy_synthetic_data(self):
        cfg = make_cfg({"rounds": 6, "schedule": {"initial_lr": 0.1,
                                                  "iterations": 15}})
        result = run_experiment(cfg)
        assert result.records[-1].loss_after < result.records[0].loss_before
