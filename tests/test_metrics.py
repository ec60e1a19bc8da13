"""Run artifacts and the command line around them."""

import csv
import json
import shutil

import pytest

from fedmatch.cli import main
from fedmatch.config import from_dict
from fedmatch.federation import run_experiment
from fedmatch.metrics import (
    SCHEMA_VERSION,
    MetricsSink,
    TRAJECTORY_COLUMNS,
    build_table,
    export_trajectory,
    format_table,
    read_jsonl,
    round_to_dict,
    write_summary,
)

BASE = {
    "task": "synthetic",
    "seed": 5,
    "n_clients": 4,
    "rounds": 3,
    "batch_size": 16,
    "validation_size": 20,
    "eval_every": 2,
    "synthetic": {"classes": 4, "per_class": 30, "test_per_class": 10},
    "schedule": {"initial_lr": 0.05, "iterations": 4},
}

TUNED = {
    **BASE,
    "use_tuner": True,
    "tuner": {"axes": [
        {"name": "learning_rate", "values": [0.01, 0.05], "integer": False},
        {"name": "sgd_iterations", "values": [2, 4]},
    ]},
}


def run_to_dir(run_dir, overrides=None):
    cfg = from_dict({**BASE, **(overrides or {})})
    with MetricsSink(run_dir) as sink:
        result = run_experiment(cfg, sink=sink)
    (run_dir / "config.json").write_text(json.dumps({**BASE, **(overrides or {})}))
    return result


class TestRecords:
    def test_round_dict_has_schema_and_no_wall_time(self):
        cfg = from_dict(BASE)
        result = run_experiment(cfg)
        d = round_to_dict(result.records[0])
        assert d["schema_version"] == SCHEMA_VERSION
        assert "wall_time_sec" not in d
        assert d["round"] == 1
        json.dumps(d)  # everything JSON-ready

    def test_sink_writes_one_line_per_record(self, tmp_path):
        result = run_to_dir(tmp_path)
        rounds = read_jsonl(tmp_path / "rounds.jsonl")
        evals = read_jsonl(tmp_path / "evals.jsonl")
        assert len(rounds) == len(result.records) == 3
        assert len(evals) == len(result.evals) == 2
        assert [e["round"] for e in evals] == [0, 2]

    def test_rerun_bytes_identical(self, tmp_path):
        run_to_dir(tmp_path / "a")
        run_to_dir(tmp_path / "b")
        for name in ("rounds.jsonl", "evals.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_readers_name_the_file_a_run_directory_lacks(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="rounds.jsonl"):
            export_trajectory(tmp_path)
        with pytest.raises(FileNotFoundError, match="summary.json"):
            build_table([tmp_path])


class TestTrajectory:
    def test_columns_and_row_count(self, tmp_path):
        run_to_dir(tmp_path, TUNED)
        path = export_trajectory(tmp_path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert tuple(rows[0]) == TRAJECTORY_COLUMNS
        assert len(rows) == 1 + 3
        # tuned runs fill every column
        for row in rows[1:]:
            assert all(cell != "" for cell in row)

    def test_fixed_schedule_leaves_tuner_columns_empty(self, tmp_path):
        run_to_dir(tmp_path)
        path = export_trajectory(tmp_path, tmp_path / "out.csv")
        with open(path) as f:
            rows = list(csv.reader(f))
        for row in rows[1:]:
            assert row[1] == "" and row[2] == "" and row[5] == ""
            assert float(row[3]) > 0


class TestTable:
    def _full_run(self, run_dir, seed, parallel_clients=1):
        cfg = from_dict({**BASE, "seed": seed, "parallel_clients": parallel_clients})
        from fedmatch.config import config_hash, to_dict
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.json").write_text(json.dumps(to_dict(cfg)))
        with MetricsSink(run_dir) as sink:
            result = run_experiment(cfg, sink=sink)
        write_summary(run_dir, {
            "config_hash": config_hash(cfg),
            "final_test_accuracy": result.final_test_accuracy,
            "final_validation_loss": result.final_validation_loss,
        })
        return result

    def test_groups_across_seeds(self, tmp_path):
        # The pool width changes no byte, so it does not split the group.
        r1 = self._full_run(tmp_path / "s1", 1)
        r2 = self._full_run(tmp_path / "s2", 2, parallel_clients=2)
        rows = build_table([tmp_path / "s1", tmp_path / "s2"])
        assert len(rows) == 1
        row = rows[0]
        assert row["runs"] == 2
        assert sorted(row["seeds"]) == [1, 2]
        expect = (r1.final_test_accuracy + r2.final_test_accuracy) / 2
        assert row["mean_accuracy"] == pytest.approx(expect)
        assert row["std_accuracy"] >= 0

    def test_single_run_reports_zero_std(self, tmp_path):
        self._full_run(tmp_path / "s1", 1)
        rows = build_table([tmp_path / "s1"])
        assert rows[0]["std_accuracy"] == 0.0
        assert rows[0]["variant"] == "fixed"

    def test_missing_summary_is_an_error(self, tmp_path):
        run_to_dir(tmp_path / "incomplete")
        with pytest.raises(FileNotFoundError, match="summary"):
            build_table([tmp_path / "incomplete"])

    def test_table_reads_no_records(self, tmp_path):
        intact = [tmp_path / "intact" / "s1", tmp_path / "intact" / "s2"]
        self._full_run(intact[0], 1)
        self._full_run(intact[1], 2)
        shutil.copytree(tmp_path / "intact", tmp_path / "bare")
        bare = [tmp_path / "bare" / "s1", tmp_path / "bare" / "s2"]
        for run_dir in bare:
            (run_dir / "rounds.jsonl").unlink()
            (run_dir / "evals.jsonl").unlink()
        assert build_table(bare) == build_table(intact)

    def test_format_table_prints_every_row(self, tmp_path):
        self._full_run(tmp_path / "s1", 1)
        text = format_table(build_table([tmp_path / "s1"]))
        assert "synthetic" in text
        assert "+/-" in text


class TestCli:
    def _write_config(self, tmp_path, overrides=None):
        cfg = {**BASE, "output_dir": str(tmp_path / "run"),
               **(overrides or {})}
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_run_creates_artifacts(self, tmp_path, capsys):
        p = self._write_config(tmp_path)
        assert main(["run", str(p), "--quiet"]) == 0
        printed = capsys.readouterr().out.strip()
        run_dir = tmp_path / "run"
        assert printed == str(run_dir)
        for name in ("config.json", "rounds.jsonl", "evals.jsonl", "summary.json"):
            assert (run_dir / name).exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["schema_version"] == SCHEMA_VERSION
        assert 0.0 <= summary["final_test_accuracy"] <= 1.0
        assert len(summary["config_hash"]) == 12

    def test_run_refuses_to_overwrite(self, tmp_path, capsys):
        p = self._write_config(tmp_path)
        assert main(["run", str(p), "--quiet"]) == 0
        assert main(["run", str(p), "--quiet"]) == 1
        assert "already contains" in capsys.readouterr().err

    def test_rerun_after_a_failed_setup_writes_a_fresh_runs_bytes(self, tmp_path, capsys):
        # 100 training samples cannot cover 200 clients: set-up fails after
        # the run directory, its config and its empty record files exist
        assert main(["run", str(self._write_config(tmp_path, {"n_clients": 200})),
                     "--quiet"]) == 1
        assert "n_clients" in capsys.readouterr().err
        assert main(["run", str(self._write_config(tmp_path)), "--quiet"]) == 0
        fresh = tmp_path / "fresh"
        assert main(["run", str(self._write_config(tmp_path, {"output_dir": str(fresh)})),
                     "--quiet"]) == 0
        for name in ("rounds.jsonl", "evals.jsonl"):
            assert (tmp_path / "run" / name).read_bytes() == (fresh / name).read_bytes()

    def test_echoed_config_reparses_to_same_hash(self, tmp_path):
        from fedmatch.config import config_hash, parse_config
        p = self._write_config(tmp_path)
        main(["run", str(p), "--quiet"])
        original = parse_config(p)
        echoed = parse_config(tmp_path / "run" / "config.json")
        assert config_hash(echoed) == config_hash(original)

    def test_output_root_env_reroots_relative_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDMATCH_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = {**BASE, "output_dir": "nested/run"}
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--quiet"]) == 0
        assert (tmp_path / "root" / "nested" / "run" / "rounds.jsonl").exists()

    def test_bad_config_is_one_error_line(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({**BASE, "bogus_key": 1}))
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bogus_key" in err

    def test_export_and_table_subcommands(self, tmp_path, capsys):
        p = self._write_config(tmp_path, TUNED)
        main(["run", str(p), "--quiet"])
        capsys.readouterr()
        assert main(["export-trajectory", str(tmp_path / "run")]) == 0
        csv_path = capsys.readouterr().out.strip()
        assert csv_path.endswith("trajectory.csv")
        assert main(["table", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "tuned" in out

    def test_missing_run_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["export-trajectory", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err
