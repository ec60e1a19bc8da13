"""Loss terms and their gradients.

Per-batch objective on a client:

    total = CE + matching_coeff * matching + ER + wd_coeff * WD

* CE: softmax cross-entropy on the logits, mean over the batch.
* matching: sum over decoder stages of the squared L2 distance between the
  stage's reconstruction (from the local model's activations) and the
  round-start model's activation at the target site; mean over the batch.
* ER: entropy hinge max(0, min_entropy - H(softmax(logits))), mean over the
  batch, in nats.  Pushes per-example predictive entropy up to a floor,
  which counters overconfident drift on skewed shards.
* WD: squared L2 distance between local and round-start parameters, summed
  over all tensors (not batch-averaged).

Everything returns analytic gradients; finite differences check all of it
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .models import MatchStage
from .nn import ForwardTrace, ModelGraph, ParamSet


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    Returns (loss, grad); grad already includes the 1/B factor.
    """
    b = logits.shape[0]
    if labels.shape != (b,):
        raise nn.ShapeError(f"labels shape {labels.shape} does not match batch {b}")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -logp[np.arange(b), labels].mean()
    grad = np.exp(logp)
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


def er_loss(logits: np.ndarray, min_entropy: float):
    """Entropy-floor hinge, mean over the batch, with logits gradient.

    For one example with p = softmax(z) and H = -sum_j p_j log p_j:
    dH/dz_j = -p_j (log p_j + H), so where H < min_entropy the hinge
    contributes p_j (log p_j + H) / B to the logits gradient.
    """
    b = logits.shape[0]
    p = softmax(logits)
    # p log p -> 0 as p -> 0; clamp only inside the log.
    plogp = p * np.log(np.maximum(p, 1e-300))
    ent = -plogp.sum(axis=1)
    active = ent < min_entropy
    loss = float(np.where(active, min_entropy - ent, 0.0).mean())
    grad = np.where(active[:, None], plogp + p * ent[:, None], 0.0) / b
    return loss, grad


def wd_loss(w_round: ParamSet, w_local: ParamSet):
    """Squared L2 divergence between parameter sets, with grad w.r.t. w_local.

    Each tensor's difference d is the one new array: it is scaled in place
    into the gradient 2d once its square has been summed.
    """
    d = w_local.zip_with(w_round, np.subtract)
    loss = sum((float((a * a).sum()) for a in d.values()), 0.0)
    return loss, d.map(lambda a: np.multiply(2.0, a, out=a))


# ---------------------------------------------------------------------------
# Matching loss


def _stage_forward(stage: MatchStage, theta: ParamSet, src: np.ndarray,
                   local_trace: ForwardTrace):
    """Run one decoder stage; returns (output, cache).  The cache holds each
    layer's input and the local model's pool switches, which unpools replay."""
    cur = src
    inputs = []
    for spec in stage.layers:
        inputs.append(cur)
        cur = nn.layer_forward(spec, stage.index, cur, theta, local_trace.switches)
    return cur, (inputs, local_trace.switches)


def _stage_backward(stage: MatchStage, theta: ParamSet, cache, g: np.ndarray,
                    grads: dict[str, np.ndarray]) -> np.ndarray:
    """Backprop one stage; stores its theta gradients in `grads` and returns
    the gradient with respect to the stage's source activation."""
    inputs, switches = cache
    for spec, x_in in zip(reversed(stage.layers), reversed(inputs)):
        g = nn.layer_backward(spec, stage.index, x_in, g, theta, switches, grads)
    return g


def matching_loss(local_trace: ForwardTrace, fixed_trace: ForwardTrace,
                  decoder: tuple[MatchStage, ...], theta: ParamSet):
    """Total reconstruction error across stages, plus per-stage caches.

    Each stage feeds on the *local* model's source-site activation and is
    scored against the *fixed* (round-start) model's target-site
    activation.  Per-stage losses are summed over feature dimensions and
    averaged over the batch.

    Returns (value, stage_data) where stage_data drives
    `matching_backward`.
    """
    total = 0.0
    stage_data = []
    for stage in decoder:
        src = local_trace.site_output(stage.source_site)
        target = fixed_trace.site_output(stage.target_site)
        out, cache = _stage_forward(stage, theta, src, local_trace)
        if out.shape != target.shape:
            raise nn.ShapeError(
                f"stage {stage.index} output {out.shape} vs target {target.shape}")
        # Channel-last operands; a C-order residual keeps the sum's bytes.
        resid = np.subtract(out, target, order="C")
        b = resid.shape[0]
        total += float((resid * resid).sum()) / b
        stage_data.append((stage, cache, resid))
    return total, stage_data


def matching_backward(theta: ParamSet, stage_data):
    """Gradients of the matching loss.

    Returns (theta_grads: ParamSet, site_grads: dict layer index -> grad of
    the loss w.r.t. the *local* model's activation at that site).  Sites
    shared by several stages accumulate.
    """
    theta_grads: dict[str, np.ndarray] = {}
    site_grads: dict[int, np.ndarray] = {}
    for stage, cache, resid in stage_data:
        b = resid.shape[0]
        g = (2.0 / b) * resid
        gsrc = _stage_backward(stage, theta, cache, g, theta_grads)
        s = stage.source_site
        if s in site_grads:
            site_grads[s] = site_grads[s] + gsrc
        else:
            site_grads[s] = gsrc
    ordered = {k: theta_grads[k] for k in theta if k in theta_grads}
    if len(ordered) != len(theta_grads):
        raise nn.ShapeError("decoder gradient keys do not match theta keys")
    return ParamSet(ordered), site_grads


# ---------------------------------------------------------------------------
# Combined objective


@dataclass(frozen=True)
class LossConfig:
    """The `loss` section of the experiment config: term weights and switches.

    The config parser checks the bounds in each field's metadata.
    """

    matching_coeff: float = field(default=1.0, metadata={"min": 0})
    wd_coeff: float = field(default=0.1, metadata={"min": 0})
    min_entropy: float = field(default=0.5, metadata={"min": 0})  # nats
    use_er: bool = True
    match_input_site: bool = True


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted term values; `total` applies the configured weights."""

    cross_entropy: float
    matching: float
    er: float
    wd: float
    total: float


def total_loss_and_grads(graph: ModelGraph, x: np.ndarray, y: np.ndarray,
                         w_local: ParamSet, w_round: ParamSet,
                         decoder: tuple[MatchStage, ...] | None,
                         theta: ParamSet | None, loss: LossConfig,
                         use_wd: bool = False):
    """Evaluate the full objective on one batch.

    The matching term runs exactly when `decoder` is given, and then needs
    its parameters `theta`; the weight-divergence term runs when `use_wd`.
    The config rejects both at once.  Returns (breakdown, w_grads,
    theta_grads); theta_grads is None without a decoder.  `w_round`
    supplies both the fixed activations for matching and the anchor for
    weight divergence.
    """
    local_trace = nn.forward(graph, w_local, x)
    logits = local_trace.logits
    ce, logits_grad = cross_entropy(logits, y)

    er = 0.0
    if loss.use_er:
        er, er_grad = er_loss(logits, loss.min_entropy)
        logits_grad = logits_grad + er_grad

    match_val = 0.0
    theta_grads = None
    site_grads: dict[int, np.ndarray] = {}
    if decoder is not None:
        if theta is None:
            raise ValueError("a matching decoder needs its parameters theta")
        # On a client's first step the local params are the broadcast, so
        # the local trace already is the fixed one.
        fixed_trace = (local_trace if w_local is w_round
                       else nn.forward(graph, w_round, x))
        match_val, stage_data = matching_loss(local_trace, fixed_trace, decoder, theta)
        theta_grads, site_grads = matching_backward(theta, stage_data)
        if loss.matching_coeff != 1.0:
            c = loss.matching_coeff
            theta_grads = theta_grads.map(lambda a: np.multiply(c, a, out=a))
            site_grads = {k: c * v for k, v in site_grads.items()}

    w_grads = nn.backward(graph, w_local, local_trace, logits_grad,
                          site_grads=site_grads)

    wd = 0.0
    # On a client's first step w_local is w_round: then d = p - p is +0.0
    # everywhere, the term is 0, and adding its gradient could change only
    # a -0.0 gradient entry, into +0.0.  No parameter is ever -0.0 (init
    # gives none, and p - t gives -0.0 only from p = -0.0), so p - lr * g
    # is the same for g = +-0.0, and skipping the term changes no byte.
    if use_wd and w_local is not w_round:
        wd, wd_grads = wd_loss(w_round, w_local)
        # Both gradient sets are this call's own arrays: c * 2d is formed
        # in wd's and added into the model's in place.
        w_grads = w_grads.zip_with(wd_grads, lambda g, d: np.add(
            g, np.multiply(loss.wd_coeff, d, out=d), out=g))

    total = ce + loss.matching_coeff * match_val + er + loss.wd_coeff * wd
    breakdown = LossBreakdown(cross_entropy=ce, matching=match_val, er=er,
                              wd=wd, total=total)
    return breakdown, w_grads, theta_grads
