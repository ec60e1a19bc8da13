"""Model architectures and their matching decoders.

Three fixed architectures cover the tasks:

* ``mnist_mlp``  - 784 -> dense 100 -> relu -> dense 100 -> relu -> dense 10
* ``cifar_cnn``  - two conv(5x5, same)+relu+pool blocks (32 then 64 maps),
                   flatten 4096, dense 1024 -> relu, dense 10
* ``kws_cnn``    - four conv(3x3, same, 64 maps)+relu with a pool after each
                   pair, on 1x32x32 inputs; flatten 4096, dense 1024 -> relu,
                   dense 10

Matching sites are the network input, every relu output, and the raw
logits.  For consecutive sites (j, j+1) the decoder owns one stage f_j
that maps the site-(j+1) activation of the *local* model back to the
site-j activation of the *round-start* model.  A stage is a chain of
`LayerSpec`s that mirrors the layers between the two sites in reverse
order: exactly one learned map (an affine map where the forward chain was
dense, a transposed conv with the conv's kernel size and padding where it
was conv), an unflatten wherever a flatten sat, and an unpool (replaying
the local model's pool switches) wherever a pool sat.  Every conv in `nn`
is stride-1 with a square kernel and padding < kernel, so each mirrored
conv is the transposed conv that computes the forward conv's dx.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import (
    GraphError,
    LayerSpec,
    ModelGraph,
    ParamSet,
    conv2d,
    dense,
    flatten,
    maxpool2x2,
    relu,
    transposed_conv2d,
    unflatten,
    unpool2x2,
)

ARCH_NAMES = ("mnist_mlp", "cifar_cnn", "kws_cnn")


@dataclass(frozen=True)
class ModelArch:
    name: str
    graph: ModelGraph


def build_arch(name: str) -> ModelArch:
    """Construct one of the three fixed architectures by name."""
    if name == "mnist_mlp":
        graph = ModelGraph(
            input_shape=(784,),
            layers=(
                dense(784, 100), relu(),
                dense(100, 100), relu(),
                dense(100, 10),
            ),
        )
    elif name == "cifar_cnn":
        graph = ModelGraph(
            input_shape=(3, 32, 32),
            layers=(
                conv2d(3, 32, 5, padding=2), relu(), maxpool2x2(),
                conv2d(32, 64, 5, padding=2), relu(), maxpool2x2(),
                flatten(),
                dense(4096, 1024), relu(),
                dense(1024, 10),
            ),
        )
    elif name == "kws_cnn":
        graph = ModelGraph(
            input_shape=(1, 32, 32),
            layers=(
                conv2d(1, 64, 3, padding=1), relu(),
                conv2d(64, 64, 3, padding=1), relu(), maxpool2x2(),
                conv2d(64, 64, 3, padding=1), relu(),
                conv2d(64, 64, 3, padding=1), relu(), maxpool2x2(),
                flatten(),
                dense(4096, 1024), relu(),
                dense(1024, 10),
            ),
        )
    else:
        raise GraphError(f"unknown architecture {name!r}; expected one of {ARCH_NAMES}")
    return ModelArch(name=name, graph=graph)


def arch_for_task(task: str) -> str:
    """The architecture each task trains."""
    return {"mnist": "mnist_mlp", "cifar10": "cifar_cnn",
            "kws": "kws_cnn", "synthetic": "mnist_mlp"}[task]


def match_sites(graph: ModelGraph, include_input: bool = True) -> tuple[int, ...]:
    """Layer indices of the matching sites, in forward order.

    -1 stands for the network input; every relu output is a site; the last
    layer (raw logits) is the top site.
    """
    sites = [-1] if include_input else []
    for i, spec in enumerate(graph.layers):
        if spec.kind == "relu":
            sites.append(i)
    top = len(graph.layers) - 1
    if graph.layers[top].kind == "relu":
        raise GraphError("top layer must produce raw logits, not a relu output")
    sites.append(top)
    if len(sites) < 2:
        raise GraphError("need at least two matching sites")
    return tuple(sites)


def site_shape(graph: ModelGraph, site: int) -> tuple[int, ...]:
    return graph.input_shape if site == -1 else graph.layer_shapes[site]


# ---------------------------------------------------------------------------
# Matching decoders


@dataclass(frozen=True)
class MatchStage:
    """Decoder stage f_j: rebuild site j-1's activation from site j's."""

    index: int  # 1-based stage number; parameters live under "{index}.w/.b"
    source_site: int  # layer index fed into the stage (site j)
    target_site: int  # layer index the stage reconstructs (site j-1)
    layers: tuple[LayerSpec, ...]

    @property
    def map_spec(self) -> LayerSpec:
        """The stage's one layer with parameters (`_segment_layers`)."""
        return next(spec for spec in self.layers if spec.has_params)


def _segment_layers(graph: ModelGraph, lo_site: int, hi_site: int) -> list[LayerSpec]:
    """Reverse the forward chain (lo_site, hi_site] into decoder layers."""
    chain = list(range(lo_site + 1, hi_site + 1))
    # A site at a relu output is reconstructed directly; the relu itself is
    # not inverted (the learned map absorbs it).
    if graph.layers[hi_site].kind == "relu":
        chain = chain[:-1]
    layers: list[LayerSpec] = []
    for i in reversed(chain):
        spec = graph.layers[i]
        if spec.kind == "dense":
            layers.append(dense(spec.out_units, spec.in_units))
        elif spec.kind == "conv2d":
            layers.append(transposed_conv2d(spec.out_channels, spec.in_channels,
                                            spec.kernel, padding=spec.padding))
        elif spec.kind == "flatten":
            layers.append(unflatten(site_shape(graph, i - 1)))
        elif spec.kind == "maxpool2x2":
            layers.append(unpool2x2(i))
        else:
            raise GraphError(f"cannot mirror layer kind {spec.kind!r} in a decoder")
    n_maps = sum(spec.has_params for spec in layers)
    if n_maps != 1:
        raise GraphError(
            f"segment ({lo_site}, {hi_site}] yields {n_maps} learned maps; "
            f"expected exactly one per stage")
    return layers


def build_matching_decoder(arch: ModelArch, rng: np.random.Generator,
                           include_input_site: bool = True
                           ) -> tuple[tuple[MatchStage, ...], ParamSet]:
    """Build the decoder structure for `arch` and draw initial parameters.

    Returns (stages, theta).  The structure is deterministic; theta uses
    the same uniform fan-in init as model layers, drawn stage by stage in
    order, so a fixed generator gives fixed parameters.

    Every stage's output shape is audited against the activation it must
    reconstruct; a mismatch is a programming error and raises.
    """
    graph = arch.graph
    sites = match_sites(graph, include_input=include_input_site)
    stages: list[MatchStage] = []
    for k in range(len(sites) - 1):
        lo, hi = sites[k], sites[k + 1]
        stage = MatchStage(index=k + 1, source_site=hi, target_site=lo,
                           layers=tuple(_segment_layers(graph, lo, hi)))
        got = site_shape(graph, hi)
        for spec in stage.layers:
            got = nn.output_shape(spec, got)
        want = site_shape(graph, lo)
        if got != want:
            raise nn.ShapeError(
                f"stage {stage.index} of {arch.name} rebuilds shape {got}, "
                f"but site {lo} has shape {want}")
        stages.append(stage)
    theta = {k: v for st in stages
             for k, v in nn.init_layer_params(st.map_spec, st.index, rng).items()}
    return tuple(stages), theta
