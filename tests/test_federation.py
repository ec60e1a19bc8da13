"""Round mechanics: selection, local SGD, aggregation, full runs."""

import json
import os
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
    evaluate_accuracy,
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
        for idx, short in batches:
            assert idx.size == 4
            assert not short

    def test_epochs_chain_without_repeats_inside_an_epoch(self):
        batches = list(_batch_indices(10, 5, 6, np.random.default_rng(1)))
        flat = np.concatenate([idx for idx, _ in batches])
        # 30 draws over shard size 10: each consecutive block of 10 is a
        # permutation, so every sample appears exactly 3 times overall
        assert flat.size == 30
        for lo in range(0, 30, 10):
            assert np.array_equal(np.sort(flat[lo:lo + 10]), np.arange(10))

    def test_small_shard_used_whole_and_flagged(self):
        batches = list(_batch_indices(3, 16, 4, np.random.default_rng(0)))
        assert len(batches) == 4
        for idx, short in batches:
            assert short
            assert np.array_equal(np.sort(idx), np.arange(3))

    def test_zero_iterations_yields_nothing(self):
        assert list(_batch_indices(10, 4, 0, np.random.default_rng(0))) == []


class TestTrainClient:
    def _client(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 8))
        y = rng.integers(0, 3, n)
        return ClientState(client_id=0, x=x, y=y)

    def _cfg(self, **loss):
        return replace(make_cfg(), loss=LossConfig(**loss))

    def test_zero_iterations_returns_broadcast_untouched(self):
        graph = tiny_graph()
        w = nn.init_params(graph, np.random.default_rng(1))
        res = train_client(self._client(), w, graph, None,
                           0.1, 0,
                           self._cfg(use_er=False), np.random.default_rng(2))
        assert params_equal(res.params, w)
        assert res.losses.total == 0.0

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
        graph = tiny_graph()
        w = nn.init_params(graph, np.random.default_rng(1))
        res = train_client(self._client(n=5), w, graph, None,
                           0.1, 2,
                           self._cfg(use_er=False), np.random.default_rng(2))
        assert res.short_batch

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
        delta = w.map(lambda a: np.ones_like(a))
        moved = w.zip_with(delta, lambda a, d: a + d)
        # one client holding 10 of 40 datapoints moves the average by 1/4
        out = aggregate(w, [self._result(0, 10, moved)], 40, "literal")
        expect = w.map(lambda a: a + 0.25)
        assert all(np.allclose(out[k], expect[k]) for k in w)

    def test_renormalized_ignores_absent_clients(self):
        _, w = self._setup()
        moved = w.map(lambda a: a + 1.0)
        out = aggregate(w, [self._result(0, 10, moved)], 40, "renormalized")
        assert all(np.allclose(out[k], w[k] + 1.0) for k in w)

    def test_modes_agree_under_full_participation(self):
        _, w = self._setup()
        rng = np.random.default_rng(7)
        results = [self._result(c, n, w.map(lambda a: a + rng.normal(size=a.shape)))
                   for c, n in [(0, 5), (1, 12), (2, 23)]]
        lit = aggregate(w, results, 40, "literal")
        ren = aggregate(w, results, 40, "renormalized")
        assert params_equal(lit, ren)

    def test_result_order_does_not_matter(self):
        _, w = self._setup()
        rng = np.random.default_rng(8)
        results = [self._result(c, 10, w.map(lambda a: a + rng.normal(size=a.shape)))
                   for c in range(4)]
        fwd = aggregate(w, list(results), 40)
        rev = aggregate(w, list(reversed(results)), 40)
        assert params_equal(fwd, rev)

    @pytest.mark.parametrize("bad", [
        pytest.param({"0.b": np.zeros(1)}, id="bias-shape"),
        pytest.param({"9.x": np.zeros(2)}, id="extra-tensor"),
    ])
    def test_mismatched_client_params_rejected(self, bad):
        _, w = self._setup()
        client = ParamSet({**w, **bad})
        with pytest.raises(nn.ShapeError):
            aggregate(w, [self._result(0, 10, w), self._result(1, 10, client)], 20)


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
    @pytest.mark.parametrize("evaluate", [evaluate_loss, evaluate_accuracy])
    def test_empty_set_is_a_value_error(self, evaluate):
        graph = tiny_graph()
        params = nn.init_params(graph, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty set"):
            evaluate(graph, params, np.zeros((0, 8)), np.zeros(0, dtype=np.int64))

    def test_kws_run_with_an_empty_test_file_names_the_empty_set(self, tmp_path):
        rng = np.random.default_rng(0)
        y = np.arange(24) % 4
        write_features(tmp_path / "kws_train.fedf", Dataset(rng.random((24, 1, 32, 32)), y))
        write_features(tmp_path / "kws_test.fedf",
                       Dataset(np.zeros((0, 1, 32, 32)), np.zeros(0, dtype=np.int64)))
        cfg = make_cfg({"task": "kws", "data_dir": str(tmp_path), "n_clients": 2,
                        "validation_size": 4})
        with pytest.raises(ValueError, match="empty set"):
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
        src = Path(federation.__file__).resolve().parents[1]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c",
             "from fedmatch import federation; print(federation._blas_threads())"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "1"

    def test_forced_pool_trains_on_several_threads_with_serial_bytes(
            self, monkeypatch, tmp_path):
        def rounds_bytes(tag, parallel):
            with MetricsSink(tmp_path / tag) as sink:
                run_experiment(make_cfg({"parallel_clients": parallel,
                                         "use_matching": True}), sink=sink)
            return (tmp_path / tag / "rounds.jsonl").read_bytes()

        serial = rounds_bytes("serial", 1)
        monkeypatch.setattr(federation, "_pool_width", lambda *args: 2)
        threads = set()
        lock = threading.Lock()
        running = [0, 0]  # now, most at once
        # Each client waits for a partner, so the pool must run two at once.
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
        pooled = rounds_bytes("pooled", 4)
        assert len(threads) >= 2
        assert running[1] == 2  # the width, not parallel_clients
        assert pooled == serial

    def test_run_names_the_pool_on_stderr_only(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "run"
        cfg_path.write_text(json.dumps({**BASE, "rounds": 1, "parallel_clients": 3,
                                        "output_dir": str(out)}))
        assert main(["run", str(cfg_path)]) == 0
        err = capsys.readouterr().err.splitlines()
        blas = _blas_threads()
        cores = federation._cores()
        assert err[0] == (
            f"client pool: {_pool_width(3, blas, cores)} thread(s) (parallel_clients 3, "
            f"BLAS threads {'unknown' if blas is None else blas}, cores {cores}); "
            f"heap reuse {'on' if nn.HEAP_REUSE else 'unavailable'}")
        for name in ("rounds.jsonl", "evals.jsonl", "config.json"):
            text = (out / name).read_text()
            assert "client pool" not in text and "heap reuse" not in text


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
        assert [r.loss_after for r in a.records] == [r.loss_after for r in b.records]
        assert a.records[-1] == type(a.records[-1])(
            **{**a.records[-1].__dict__, "wall_time_sec": a.records[-1].wall_time_sec})

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
