"""Outside-in tracing of fedmatch's public functions.

`Tracer.installed()` rebinds the module attributes that callers look up
(``nn.conv2d_backward``, ``federation.train_client``, the names
``federation`` imported from ``losses`` and ``tuner``, ...) to wrappers
that record one span per call, and restores the originals on exit.  The
program itself is not modified.  Private helpers such as
``nn._check_finite`` are not wrapped: their cost stays in the self time of
the public function that calls them.

Spans live in memory (name, thread, parent, round, start, end, time spent
in child spans) and are written out once at the end.  A kernel called
from inside another kernel (the conv inside a transposed conv, the unpool
inside maxpool backward) is not a span of its own: its time belongs to
the outer kernel, so kernel times never double count.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from pathlib import Path

from fedmatch import federation, losses, models, nn, tuner

KERNELS = tuple(f"{kind}_{d}" for kind in ("dense", "conv2d", "transposed_conv2d",
                                           "maxpool2x2", "unpool2x2", "relu")
                for d in ("forward", "backward"))


def _conv_out(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


# Floating-point operations of each GEMM-like kernel, computed from the
# argument shapes (multiply and add count as two).  Backward counts dW and dX.
def _dense_fwd_flop(x, w, b=None):
    return 2 * x.shape[0] * w.shape[0] * w.shape[1]


def _dense_bwd_flop(x, w, g):
    return 2 * _dense_fwd_flop(x, w)


def _conv_fwd_flop(x, w, b=None, stride=1, padding=0):
    oh = _conv_out(x.shape[2], w.shape[2], stride, padding)
    ow = _conv_out(x.shape[3], w.shape[3], stride, padding)
    return 2 * x.shape[0] * w.shape[0] * w.shape[1] * w.shape[2] * w.shape[3] * oh * ow


def _conv_bwd_flop(x, w, g, stride=1, padding=0):
    return 4 * g.size * w.shape[1] * w.shape[2] * w.shape[3]


def _tconv_fwd_flop(x, w, b=None, padding=0):
    k = w.shape[2]
    oh = x.shape[2] + k - 1 - 2 * padding
    ow = x.shape[3] + k - 1 - 2 * padding
    return 2 * x.shape[0] * w.shape[0] * w.shape[1] * k * k * oh * ow


def _tconv_bwd_flop(x, w, g, padding=0):
    return 4 * g.size * w.shape[0] * w.shape[2] * w.shape[3]


FLOP = {
    "dense_forward": _dense_fwd_flop,
    "dense_backward": _dense_bwd_flop,
    "conv2d_forward": _conv_fwd_flop,
    "conv2d_backward": _conv_bwd_flop,
    "transposed_conv2d_forward": _tconv_fwd_flop,
    "transposed_conv2d_backward": _tconv_bwd_flop,
}

# (module, attribute) pairs that get rebound.  Several pairs can name the
# same function (losses.cross_entropy is also federation.cross_entropy);
# they share one wrapper and one span name.
TARGETS = (
    *((nn, k) for k in KERNELS),
    (nn, "forward"), (nn, "backward"), (nn, "sgd_step"), (nn, "init_params"),
    (losses, "cross_entropy"), (losses, "er_loss"), (losses, "wd_loss"),
    (losses, "matching_loss"), (losses, "matching_backward"),
    (federation, "total_loss_and_grads"), (federation, "cross_entropy"),
    (federation, "sample"), (federation, "score"), (federation, "reinforce_update"),
    (federation, "make_synthetic"), (federation, "build_matching_decoder"),
    (models, "build_matching_decoder"),
    (federation, "train_client"), (federation, "aggregate"),
    (federation, "evaluate_loss"),
)

TUNER_STEP = ("tuner.sample", "tuner.score", "tuner.reinforce_update")


class Span:
    __slots__ = ("name", "tid", "parent", "round", "t0", "t1", "child_s",
                 "gflop", "layer0")

    def __init__(self, name, tid, parent, rnd):
        self.name = name
        self.tid = tid
        self.parent = parent
        self.round = rnd
        self.t0 = self.t1 = 0.0
        self.child_s = 0.0
        self.gflop = 0.0
        self.layer0 = False

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[Span] = []
        self.in_kernel = False


class Tracer:
    """Span recorder for one workload run.

    `round` is set by the caller before each round (0 during set-up) and
    stamped on every span that starts while it holds.
    """

    def __init__(self, input_shape: tuple[int, ...]):
        self.input_shape = tuple(input_shape)
        self.spans: list[Span] = []
        self.round = 0
        self._local = _ThreadState()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        is_kernel = fn.__module__ == nn.__name__ and fn.__name__ in KERNELS
        flop = FLOP.get(fn.__name__) if is_kernel else None
        layer0 = is_kernel and fn.__name__ == "conv2d_backward"
        local, spans = self._local, self.spans

        def traced(*args, **kwargs):
            if local.in_kernel:
                return fn(*args, **kwargs)
            stack = local.stack
            span = Span(name, threading.get_ident(), stack[-1] if stack else None,
                        self.round)
            if flop is not None:
                span.gflop = flop(*args, **kwargs) * 1e-9
            if layer0:
                span.layer0 = args[0].shape[1:] == self.input_shape
            spans.append(span)
            stack.append(span)
            local.in_kernel = is_kernel
            span.t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                local.in_kernel = False
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.dur

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper; restore on exit."""
        wrappers = {}
        saved = []
        try:
            for mod, attr in TARGETS:
                fn = getattr(mod, attr)
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path: Path) -> None:
        """One JSON line per span; ids are list positions."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "parent": ids[id(s.parent)] if s.parent else None,
                       "name": s.name, "tid": s.tid, "round": s.round,
                       "t0": s.t0, "t1": s.t1, "self_s": s.self_s}
                if s.gflop:
                    rec["gflop"] = s.gflop
                f.write(json.dumps(rec) + "\n")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for k in KERNELS:
        units[f"nn.{k}.s"] = "s/round"
        units[f"nn.{k}.calls"] = "calls/round"
        if k in FLOP:
            units[f"nn.{k}.gflop"] = "GFLOP/round"
            units[f"nn.{k}.gflops"] = "GFLOP/s"
    units.update({
        "nn.conv2d_backward.layer0_s": "s/round",
        "nn.forward.self_s": "s/round",
        "nn.backward.self_s": "s/round",
        "nn.sgd_step.s": "s/round",
        "nn.forward.calls_per_step": "ratio",
        "losses.total_loss_and_grads.s": "s/round",
        "losses.matching_loss.s": "s/round",
        "losses.matching_backward.s": "s/round",
        "losses.wd_loss.s": "s/round",
        "losses.cross_entropy.s": "s/round",
        "losses.er_loss.s": "s/round",
        "federation.train_client.busy_s": "s/round",
        "federation.client_phase.wall_s": "s/round",
        "federation.client_parallel_eff": "ratio",
        "federation.straggler_ratio": "ratio",
        "federation.serial_round_s_p50": "s",
        "federation.aggregate.s": "s/round",
        "federation.evaluate_loss.s": "s/round",
        "tuner.step.s": "s/round",
        "data.make_synthetic.s": "s",
        "models.build_matching_decoder.s": "s",
        "nn.init_params.s": "s",
        "trace.overhead_frac": "frac",
        "trace.nn_frac": "frac",
    })
    return units


def per_layer_metrics(tracer: Tracer, round_walls: list[float], workers: int,
                      untraced_walls: list[float], serial_p50: float) -> dict[str, float]:
    """Reduce the spans of the traced rounds to the per-layer metrics.

    Per-round values average over the traced rounds; set-up values cover
    the one traced set-up (round 0).  A layer that never runs in the
    workload reads 0.
    """
    n = len(round_walls)
    by_name: dict[str, list[Span]] = {}
    setup: dict[str, float] = {}
    for s in tracer.spans:
        if s.round == 0:
            setup[s.name] = setup.get(s.name, 0.0) + s.dur
        else:
            by_name.setdefault(s.name, []).append(s)

    def total(name: str, attr: str = "dur") -> float:
        return sum(getattr(s, attr) for s in by_name.get(name, ()))

    m: dict[str, float] = {}
    kernel_s = 0.0
    for k in KERNELS:
        spans = by_name.get(f"nn.{k}", [])
        secs = sum(s.dur for s in spans)
        kernel_s += secs
        m[f"nn.{k}.s"] = secs / n
        m[f"nn.{k}.calls"] = len(spans) / n
        if k in FLOP:
            gflop = sum(s.gflop for s in spans)
            m[f"nn.{k}.gflop"] = gflop / n
            m[f"nn.{k}.gflops"] = gflop / secs if secs else 0.0
    m["nn.conv2d_backward.layer0_s"] = sum(
        s.dur for s in by_name.get("nn.conv2d_backward", ()) if s.layer0) / n
    m["nn.forward.self_s"] = total("nn.forward", "self_s") / n
    m["nn.backward.self_s"] = total("nn.backward", "self_s") / n
    m["nn.sgd_step.s"] = total("nn.sgd_step") / n
    steps = len(by_name.get("losses.total_loss_and_grads", ()))
    step_forwards = sum(1 for s in by_name.get("nn.forward", ())
                        if s.parent is not None
                        and s.parent.name == "losses.total_loss_and_grads")
    m["nn.forward.calls_per_step"] = step_forwards / steps if steps else 0.0
    for name in ("total_loss_and_grads", "matching_loss", "matching_backward",
                 "wd_loss", "cross_entropy", "er_loss"):
        m[f"losses.{name}.s"] = total(f"losses.{name}") / n

    clients = by_name.get("federation.train_client", [])
    busy = sum(s.dur for s in clients)
    per_round: dict[int, list[Span]] = {}
    for s in clients:
        per_round.setdefault(s.round, []).append(s)
    walls = [max(s.t1 for s in ss) - min(s.t0 for s in ss) for ss in per_round.values()]
    ratios = [max(s.dur for s in ss) / statistics.median(s.dur for s in ss)
              for ss in per_round.values()]
    m["federation.train_client.busy_s"] = busy / n
    m["federation.client_phase.wall_s"] = sum(walls) / n
    m["federation.client_parallel_eff"] = busy / (sum(walls) * workers) if walls else 0.0
    m["federation.straggler_ratio"] = statistics.median(ratios) if ratios else 0.0
    m["federation.serial_round_s_p50"] = serial_p50
    m["federation.aggregate.s"] = total("federation.aggregate") / n
    m["federation.evaluate_loss.s"] = total("federation.evaluate_loss") / n
    m["tuner.step.s"] = sum(total(name) for name in TUNER_STEP) / n

    m["data.make_synthetic.s"] = setup.get("data.make_synthetic", 0.0)
    m["models.build_matching_decoder.s"] = setup.get("models.build_matching_decoder", 0.0)
    m["nn.init_params.s"] = setup.get("nn.init_params", 0.0)

    m["trace.overhead_frac"] = sum(round_walls) / sum(untraced_walls) - 1.0
    nn_s = (kernel_s + total("nn.forward", "self_s") + total("nn.backward", "self_s")
            + total("nn.sgd_step"))
    m["trace.nn_frac"] = nn_s / (sum(round_walls) * workers)
    return m
