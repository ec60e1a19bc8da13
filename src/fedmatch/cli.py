"""Command line interface.

Subcommands:

* ``fedmatch run CONFIG.json``          - run one experiment end to end
* ``fedmatch export-trajectory RUNDIR`` - dump a run's tuner trajectory CSV
* ``fedmatch table RUNDIR [RUNDIR...]`` - aggregate final accuracies

Exit status is 0 on success and 1 on any failure, with a single
diagnostic line on stderr.  FEDMATCH_OUTPUT_ROOT, when set, re-roots
relative output directories.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import config_hash, parse_config, to_dict
from .federation import run_experiment
from .metrics import MetricsSink, build_table, export_trajectory, format_table, write_summary

OUTPUT_ROOT_ENV = "FEDMATCH_OUTPUT_ROOT"


def resolve_output_dir(output_dir: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    p = Path(output_dir)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    run_dir = resolve_output_dir(cfg.output_dir)
    # A run that failed during set-up leaves its record files empty, and the
    # sink appends, so only a file that holds a record blocks a rerun.
    if any((run_dir / name).exists() and (run_dir / name).stat().st_size
           for name in ("rounds.jsonl", "evals.jsonl")):
        raise FileExistsError(
            f"{run_dir} already contains run artifacts; pick a fresh output_dir")
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(
        json.dumps(to_dict(cfg), indent=2, sort_keys=True) + "\n")

    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    with MetricsSink(run_dir) as sink:
        result = run_experiment(cfg, sink=sink, progress=progress)
    write_summary(run_dir, {
        "config_hash": config_hash(cfg),
        "task": cfg.task,
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "final_test_accuracy": result.final_test_accuracy,
        "final_validation_loss": result.final_validation_loss,
    })
    print(str(run_dir))
    return 0


def cmd_export_trajectory(args) -> int:
    path = export_trajectory(args.run_dir, args.out)
    print(str(path))
    return 0


def cmd_table(args) -> int:
    rows = build_table(args.run_dirs)
    print(format_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fedmatch",
        description="Deterministic federated averaging simulator with "
                    "representation matching and online hyper-parameter tuning.")
    p.add_argument("--version", action="version", version=f"fedmatch {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("config", help="path to the config file")
    runp.add_argument("--quiet", action="store_true", help="suppress progress lines")
    runp.set_defaults(fn=cmd_run)

    exp = sub.add_parser("export-trajectory",
                         help="write a run's hyper-parameter trajectory as CSV")
    exp.add_argument("run_dir", help="run directory containing rounds.jsonl")
    exp.add_argument("--out", default=None, help="CSV destination "
                     "(default: RUNDIR/trajectory.csv)")
    exp.set_defaults(fn=cmd_export_trajectory)

    tab = sub.add_parser("table", help="aggregate final accuracies across runs")
    tab.add_argument("run_dirs", nargs="+", help="run directories to tabulate")
    tab.set_defaults(fn=cmd_table)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # one diagnostic line, nonzero exit
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
