"""Round-throughput benchmark for fedmatch.

One workload per process:

    python3 perfbench/run.py --workload mlp_tuned_p2 --seed 1 --seconds 20 --trace 0

``--trace 0`` times set-up and rounds with nothing wrapped and prints the
end-to-end metrics.  ``--trace 1`` runs the same rounds untraced, then
traced, and prints the per-layer metrics; its span file goes to
``.perfbench_out/``.  Either way the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

Every workload in a fresh process, untraced then traced, with a summary
and a check of every metric name and unit against BENCHMARK.json:

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]
    python3 perfbench/run.py --all --smoke     # one round per workload

The benchmark drives the program only through its public functions and
leaves the BLAS thread count as the user's environment sets it; the
environment is recorded with every result instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Units of the end-to-end metrics, in report order.
END_TO_END = {
    "setup_s": "s",
    "round_s_p50": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "val_loss_final": "nats",
}
# Rounds a run never exceeds, however fast the program gets.
MAX_ROUNDS = 60
# setup_s is the median of set-ups made in three phases of a run: before
# the timed rounds, after them and after the replay, so that one slow spell
# of the machine does not hold every sample.  Each phase sets up until
# SETUP_PHASE_S seconds have passed, at least SETUP_PHASE_MIN and at most
# SETUP_PHASE_MAX times.
SETUP_PHASE_S = 1.5
SETUP_PHASE_MIN = 2
SETUP_PHASE_MAX = 15


# fedmatch, and workloads and tracer which import it, are imported inside
# functions: only after _import_program has put this checkout's src/ first
# on the path.
def _import_program():
    """Import fedmatch from this checkout's src/ or exit without a result."""
    src = ROOT / "src"
    if not (src / "fedmatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'fedmatch'}; run from a "
                 f"fedmatch checkout")
    sys.path.insert(0, str(src))
    import fedmatch
    if Path(fedmatch.__file__).resolve().parent != (src / "fedmatch").resolve():
        sys.exit(f"perfbench: imported fedmatch from {fedmatch.__file__}, "
                 f"not from {src}")


def fingerprint() -> dict:
    """What the round bytes and timings depend on besides the code."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": blas_id,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def round_bytes(rec) -> bytes:
    """The line rounds.jsonl gets for this round."""
    from fedmatch import metrics
    return (json.dumps(metrics.round_to_dict(rec)) + "\n").encode()


def state_digest(server, clients) -> str:
    """Hash of everything set-up produces that rounds read."""
    h = hashlib.sha256()
    for ps in [server.params] + [c.theta for c in clients if c.theta is not None]:
        for k in ps:
            h.update(k.encode())
            h.update(ps[k].tobytes())
    h.update(repr(server.current_loss).encode())
    for c in clients:
        h.update(c.x.tobytes())
        h.update(c.y.tobytes())
    return h.hexdigest()


@dataclasses.dataclass
class Rounds:
    """Outcome of driving one set-up through consecutive rounds."""

    walls: list[float] = dataclasses.field(default_factory=list)
    digests: list[str] = dataclasses.field(default_factory=list)
    losses: list[float] = dataclasses.field(default_factory=list)
    samples: int = 0  # local-SGD examples: selected x iterations x batch
    workers: int = 1  # clients that trained at once
    error: str | None = None


def drive(state, cfg, min_rounds: int, seconds: float, tracer=None) -> Rounds:
    """Run rounds until `seconds` have passed and `min_rounds` are done.

    A round that raises ends the run: its state is no longer valid, and a
    failure is never retried.
    """
    from fedmatch import federation
    server, clients, arch, decoder = state
    out = Rounds()
    start = time.perf_counter()
    while len(out.walls) < MAX_ROUNDS and (
            len(out.walls) < min_rounds or time.perf_counter() - start < seconds):
        if tracer is not None:
            tracer.round = server.round + 1
        t0 = time.perf_counter()
        try:
            rec = federation.run_round(server, clients, arch, decoder, cfg)
        except Exception as e:  # counted as a failed round, reported below
            out.error = f"round {server.round + 1}: {type(e).__name__}: {e}"
            break
        out.walls.append(time.perf_counter() - t0)
        out.digests.append(hashlib.sha256(round_bytes(rec)).hexdigest())
        out.samples += len(rec.selected) * rec.iterations * cfg.batch_size
        out.losses.append(rec.loss_after)
        out.workers = max(out.workers, min(cfg.parallel_clients, len(rec.selected)))
    return out


def compare(ref: list[str], other: list[str], label: str, problems: list[str]) -> int:
    """Count rounds whose digest in `other` differs from, or lacks, `ref`'s."""
    bad = sum(1 for a, b in zip(ref, other) if a != b)
    missing = len(ref) - len(other)
    if bad or missing > 0:
        problems.append(f"{label}: {bad} round digests differ, "
                        f"{max(missing, 0)} rounds missing")
    return bad + max(missing, 0)


def check_loss_drop(wl, initial: float, losses: list[float], min_rounds: int,
                    problems: list[str]) -> None:
    """Training must move the validation loss clearly below its start.

    Broken arithmetic that is applied consistently (zeroed gradients, an
    sgd_step that does nothing) passes every digest comparison, because
    all runs in the process share it; it does not pass this.
    """
    if min_rounds < wl.min_rounds or len(losses) < min_rounds:
        return  # too few rounds for the workload's floor (a smoke run)
    drop = initial - losses[min_rounds - 1]
    if not drop >= wl.min_loss_drop:
        problems.append(f"validation loss fell by {drop:.6g} from {initial:.6g} in "
                        f"{min_rounds} rounds; the floor is {wl.min_loss_drop}")


def setup_phase(wl, cfg, inputs, times: list[float], digests: set[str]):
    """Time one phase of repeated set-ups; return the last state."""
    state, n, spent = None, 0, 0.0
    while n < SETUP_PHASE_MAX and (n < SETUP_PHASE_MIN or spent < SETUP_PHASE_S):
        state = None  # drop the previous set-up before building the next
        t0 = time.perf_counter()
        state = wl.setup(cfg, inputs)
        times.append(time.perf_counter() - t0)
        digests.add(state_digest(state[0], state[1]))
        n, spent = n + 1, spent + times[-1]
    return state


def run_untraced(wl, cfg, inputs, seconds: float, min_rounds: int):
    problems: list[str] = []
    setup_times: list[float] = []
    digests: set[str] = set()
    state = setup_phase(wl, cfg, inputs, setup_times, digests)
    initial_loss = state[0].current_loss
    timed = drive(state, cfg, min_rounds, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    state = None
    setup_phase(wl, cfg, inputs, setup_times, digests)

    # Replay from a fresh set-up: serially for the threaded workload (it
    # must match the threads byte for byte), else the first round only.
    serial_cfg = dataclasses.replace(cfg, parallel_clients=1)
    replay_rounds = len(timed.walls) if cfg.parallel_clients > 1 else 1
    replay = drive(wl.setup(serial_cfg, inputs), serial_cfg, replay_rounds, 0.0)
    setup_phase(wl, cfg, inputs, setup_times, digests)
    if len(digests) != 1:
        problems.append(f"{len(digests)} different states from {len(setup_times)} set-ups")
    attempted = len(timed.walls) + (timed.error is not None)
    failed = (timed.error is not None) + compare(
        timed.digests[:replay_rounds], replay.digests, "serial replay", problems)
    if timed.error:
        problems.append(timed.error)
    if replay.error:
        problems.append("replay " + replay.error)
    if not all(math.isfinite(v) for v in timed.losses):
        problems.append("non-finite validation loss")
    check_loss_drop(wl, initial_loss, timed.losses, min_rounds, problems)

    metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb}
    if timed.walls:
        metrics["round_s_p50"] = statistics.median(timed.walls)
        metrics["samples_per_s"] = timed.samples / sum(timed.walls)
    if len(timed.losses) >= min_rounds:
        metrics["val_loss_final"] = timed.losses[min_rounds - 1]
    info = {"rounds": len(timed.walls), "setup_samples": len(setup_times),
            "round_walls": timed.walls, "digests": timed.digests,
            "val_loss_start": initial_loss, "val_loss_round": min_rounds,
            "replayed_rounds": len(replay.walls)}
    return metrics, attempted, failed, problems, info


def run_traced(wl, cfg, inputs, seconds: float, min_rounds: int, out_dir: Path, tag: str):
    import tracer as tracing
    problems: list[str] = []
    state = wl.setup(cfg, inputs)
    initial_loss = state[0].current_loss
    untraced = drive(state, cfg, min_rounds, seconds)
    state = None
    n = len(untraced.walls)
    check_loss_drop(wl, initial_loss, untraced.losses, min_rounds, problems)

    from fedmatch import models
    tr = tracing.Tracer(models.build_arch(cfg.arch_name).graph.input_shape)
    with tr.installed():
        tr.round = 0
        state = wl.setup(cfg, inputs)
        traced = drive(state, cfg, n, 0.0, tracer=tr)
        state = None
    failed = compare(untraced.digests, traced.digests, "traced vs untraced", problems)

    if cfg.parallel_clients > 1:
        serial_cfg = dataclasses.replace(cfg, parallel_clients=1)
        serial = drive(wl.setup(serial_cfg, inputs), serial_cfg, n, 0.0)
        failed += compare(untraced.digests, serial.digests, "serial vs threaded", problems)
        serial_walls = serial.walls
    else:
        serial = None
        serial_walls = untraced.walls
    for label, r in (("untraced", untraced), ("traced", traced), ("serial", serial)):
        if r is not None and r.error:
            problems.append(f"{label} {r.error}")
    attempted = n + (untraced.error is not None)
    failed += untraced.error is not None

    metrics = {}
    if traced.walls and serial_walls:
        metrics = tracing.per_layer_metrics(tr, traced.walls, traced.workers,
                                            untraced.walls[:len(traced.walls)],
                                            statistics.median(serial_walls))
    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"spans-{tag}.jsonl"
    tr.write(span_path)
    info = {"rounds": n, "spans": len(tr.spans), "span_file": str(span_path.relative_to(ROOT)),
            "gflop": "computed from argument shapes", "digests": untraced.digests}
    return metrics, attempted, failed, problems, info


def run_one(args) -> int:
    _import_program()
    import tracer as tracing
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    min_rounds = args.rounds or wl.min_rounds
    cfg = wl.make_config(args.seed)
    inputs = wl.make_inputs(args.seed, cfg)
    env = fingerprint()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, attempted, failed, problems, info = run_traced(
            wl, cfg, inputs, args.seconds, min_rounds, OUT, tag)
        units = tracing.per_layer_units()
    else:
        metrics, attempted, failed, problems, info = run_untraced(
            wl, cfg, inputs, args.seconds, min_rounds)
        units = END_TO_END
    missing = [k for k in units if k not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for p in problems:
        print("problem: " + p)
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<38} {metrics[name]:>14.6g} {unit}")
    rounds_note = (f"{info['rounds']} rounds (round_s_p50 over {info['rounds']} samples, "
                   f"setup_s over {info['setup_samples']}, val_loss_final after "
                   f"round {info['val_loss_round']})") if not args.trace else \
        f"{info['rounds']} rounds traced, {info['spans']} spans in {info['span_file']}"
    print(f"  {rounds_note}")
    print(f"  failed_frac {failed / max(attempted, 1):g} ({failed}/{attempted} rounds)")
    result = {"correct": not problems and failed == 0,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items() if k in metrics}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
         "env": env, "problems": problems, **info, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced."""
    from workloads import WORKLOADS
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    seconds = 0 if args.smoke else args.seconds
    summary, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            if args.smoke:
                cmd += ["--rounds", "1"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"FAIL {name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            res = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                print(f"FAIL {name} trace={trace}: metrics/units differ from "
                      f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want[trace].items()))}")
                ok = False
            if not res["correct"] or res["failed"]:
                print(f"FAIL {name} trace={trace}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}")
                ok = False
            summary.setdefault(name, {})["per_layer" if trace else "end_to_end"] = res
    cols = [f"{k} [{u}]" for k, u in want[0].items()] + ["failed_frac"]
    print("\n" + f"{'workload':<14}" + "".join(f"{c:>22}" for c in cols))
    for name, parts in summary.items():
        res = parts.get("end_to_end")
        if res is not None:
            vals = [f"{res['metrics'][k]['value']:.6g}" if k in res["metrics"] else "-"
                    for k in want[0]] + [f"{res['failed'] / res['attempted']:g}"]
            print(f"{name:<14}" + "".join(f"{v:>22}" for v in vals))
    OUT.mkdir(exist_ok=True)
    path = OUT / ("smoke.json" if args.smoke else f"all-seed{args.seed}.json")
    path.write_text(json.dumps({"seed": args.seed, "seconds": seconds,
                                "env": fingerprint(),
                                "workloads": summary}, indent=1) + "\n")
    print(f"{'ok' if ok else 'FAILED'}: {len(summary)} workloads, results in "
          f"{path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload in this process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="time rounds for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=0,
                   help="minimum rounds (default: the workload's own)")
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced, in fresh processes")
    p.add_argument("--smoke", action="store_true",
                   help="with --all: one round per workload")
    args = p.parse_args(argv)
    if args.all or args.smoke:
        _import_program()
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
