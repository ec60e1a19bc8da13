"""Run artifacts: JSONL metrics, trajectory export, result tables.

A run directory contains:

* config.json   - the materialized config that produced the run
* rounds.jsonl  - one record per round, schema_version tagged
* evals.jsonl   - periodic test accuracy (round 0 included)
* summary.json  - final numbers, schema_version tagged, written once at the end

Records are append-only and flushed per write.  Nothing time- or
host-dependent goes into these files: rerunning a config with the same
seed must reproduce them byte for byte.

Each reader opens only the files it uses: `export_trajectory` reads
rounds.jsonl, and `build_table` reads config.json and summary.json.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import asdict
from pathlib import Path

from .config import strip_identity
from .federation import EvalRecord, RoundRecord

SCHEMA_VERSION = 1


def round_to_dict(rec: RoundRecord) -> dict:
    return {"schema_version": SCHEMA_VERSION, **asdict(rec)}


def eval_to_dict(rec: EvalRecord) -> dict:
    return {"schema_version": SCHEMA_VERSION, **asdict(rec)}


class MetricsSink:
    """Append-only JSONL writers for one run directory."""

    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._rounds = open(self.run_dir / "rounds.jsonl", "a")
        self._evals = open(self.run_dir / "evals.jsonl", "a")

    def write_round(self, rec: RoundRecord) -> None:
        self._rounds.write(json.dumps(round_to_dict(rec)) + "\n")
        self._rounds.flush()

    def write_eval(self, rec: EvalRecord) -> None:
        self._evals.write(json.dumps(eval_to_dict(rec)) + "\n")
        self._evals.flush()

    def close(self) -> None:
        self._rounds.close()
        self._evals.close()

    def __enter__(self) -> "MetricsSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_summary(run_dir: str | Path, summary: dict) -> None:
    path = Path(run_dir) / "summary.json"
    summary = {"schema_version": SCHEMA_VERSION, **summary}
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def read_jsonl(path: str | Path) -> list[dict]:
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


# ---------------------------------------------------------------------------
# Trajectory export


TRAJECTORY_COLUMNS = ("round", "mu_learning_rate_raw", "mu_sgd_iterations_raw",
                      "sampled_lr", "sampled_iters", "reward")


def export_trajectory(run_dir: str | Path, out_path: str | Path | None = None) -> Path:
    """Write the tuner trajectory of a run as CSV; returns the CSV path.

    Works for fixed-schedule runs too (the mu and reward columns are just
    empty), so plots can overlay both kinds of run.
    """
    d = Path(run_dir)
    rounds = read_jsonl(d / "rounds.jsonl")
    path = Path(out_path) if out_path is not None else d / "trajectory.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRAJECTORY_COLUMNS)
        for rec in rounds:
            mu = rec.get("mu_raw") or {}
            w.writerow([
                rec["round"],
                mu.get("learning_rate", ""),
                mu.get("sgd_iterations", ""),
                rec["lr"],
                rec["iterations"],
                rec["reward"] if rec.get("reward") is not None else "",
            ])
    return path


# ---------------------------------------------------------------------------
# Result tables


def build_table(run_dirs: list[str | Path]) -> list[dict]:
    """Group runs by config (ignoring `config.IDENTITY_KEYS`) and aggregate
    final accuracy.

    Runs share a group exactly when their stripped configs are equal.
    Std is the sample standard deviation (ddof=1); a single run reports 0.
    """
    if not run_dirs:
        raise ValueError("no run directories given")
    groups: dict[str, dict] = {}
    for rd in run_dirs:
        d = Path(rd)
        if not (d / "summary.json").exists():
            raise FileNotFoundError(f"{rd} has no summary.json (run incomplete?)")
        config = json.loads((d / "config.json").read_text())
        summary = json.loads((d / "summary.json").read_text())
        stripped = strip_identity(config)
        key = json.dumps(stripped, sort_keys=True)
        g = groups.setdefault(key, {"config": stripped, "accuracies": [], "seeds": []})
        g["accuracies"].append(summary["final_test_accuracy"])
        g["seeds"].append(config.get("seed"))
    rows = []
    for g in groups.values():
        accs = g["accuracies"]
        mean = sum(accs) / len(accs)
        std = statistics.stdev(accs) if len(accs) > 1 else 0.0
        cfg = g["config"]
        variant = []
        if cfg.get("use_tuner"):
            variant.append("tuned")
        if cfg.get("use_matching"):
            variant.append("matching")
        if cfg.get("use_wd"):
            variant.append("wd")
        rows.append({
            "task": cfg.get("task"),
            "partition": cfg.get("partition"),
            "variant": "+".join(variant) if variant else "fixed",
            "client_fraction": cfg.get("client_fraction"),
            "runs": len(accs),
            "seeds": g["seeds"],
            "mean_accuracy": mean,
            "std_accuracy": std,
        })
    rows.sort(key=lambda r: (str(r["task"]), str(r["partition"]), str(r["variant"])))
    return rows


def format_table(rows: list[dict]) -> str:
    header = f"{'task':<10} {'partition':<9} {'variant':<16} {'C':>4} " \
             f"{'runs':>4} {'accuracy':>18}"
    lines = [header, "-" * len(header)]
    for r in rows:
        acc = f"{100 * r['mean_accuracy']:.2f} +/- {100 * r['std_accuracy']:.2f}"
        lines.append(f"{r['task']:<10} {r['partition']:<9} {r['variant']:<16} "
                     f"{r['client_fraction']:>4.2f} {r['runs']:>4} {acc:>18}")
    return "\n".join(lines)
