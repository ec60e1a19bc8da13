"""Small feed-forward network core on float64 numpy.

Layers are described declaratively (`LayerSpec`), parameters are plain
dicts from tensor name to array (`ParamSet`), and every layer carries a
hand-written backward rule.  There is intentionally no autodiff: the
backward pass is the artifact under test, checked against finite
differences.

Conventions:

* every tensor entering `forward` is batched: shape (B, *input_shape);
* shapes are checked once, where a graph or decoder is built
  (`output_shape`); the kernels, `forward` and `backward` trust them and
  check only that each layer's output and gradient are finite;
* dense weights are (in, out), conv kernels are (out_ch, in_ch, k, k),
  transposed-conv kernels are (in_ch, out_ch, k, k);
* conv and transposed-conv layers are stride-1 with square kernels and
  0 <= padding < kernel, which is all the models and their decoders use.
  Then each is the other's input gradient: a conv's dx is the transposed
  conv of its output gradient with the same kernel and padding, and the
  other way round (Dumoulin & Visin, arXiv:1603.07285);
* max-pool layers record which corner of each 2x2 window won (the
  "switches"), so the matching decoders can unpool into the right slots.
  Unpool layers run only in decoder stages, which replay the model's
  switches; a `ModelGraph` rejects them.  All four pool kernels read or
  write the window corners through the same strided views (`_corners`).

Memory: every conv forward, transposed-conv forward and conv or
transposed-conv input gradient is one `_correlate_nhwc` GEMM, run over
batch slices whose im2col (or tap-sum) intermediate stays within
`SLICE_BYTES` (8 MiB).  Unsliced, the patch matrix of a kws_cnn validation
batch (128 samples, 64 -> 64 channels at 32x32) is ~600 MB.  Each slice
is padded into one reused zero-bordered buffer, so no padded copy of the
whole batch is made (75 MB per conv of that batch).  The buffer is no
larger than a slice's patches, and the tap-sum step counts the larger of
a sample's taps and its padded copy, so the buffer too stays within
`SLICE_BYTES`: the kws_cnn decoder's 64 -> 1 stage at B=32 pads 14
samples at a time (8 MiB), where a step sized by its taps padded 100
(19 MB, 7x the taps).  The slices are a fixed function of
the shapes, so runs stay deterministic, and at the models' conv shapes
OpenBLAS gives each output row the same bytes whatever the row count, so
slicing changes no byte there.  A conv's weight gradient sums over the
batch, so slicing the batch would reorder that sum; built from the
input's patches, it runs instead as one GEMM per block of kernel rows,
each block as many rows as fit `SLICE_BYTES` and at least one.
Splitting a GEMM's output columns reorders no sum, and at the models'
shapes the blocks keep the bytes of the one GEMM: a kws_cnn 64 -> 64 dw
at B=32 builds three 50 MB blocks, not one 151 MB matrix.  A dense
layer's GEMM (e.g. 1024 -> 10) is not sliced: it rounds
differently at every slice size.  A conv backward builds the patches of
the input or of the output gradient, whichever has fewer channels
(`_conv2d_grads`): the decoder stages that narrow the channels take the
gradient's, 20 MB instead of 210 MB for cifar_cnn's 32 -> 3 stage at
B=32, and their input gradient runs over it in the same slices.

Layout: conv, transposed-conv, relu and pool activations keep NCHW shapes
but are channel-last in memory, as PyTorch's `channels_last` format is.
A conv returns the NCHW view of the channel-last buffer its GEMM filled,
so the next conv pads and im2cols it without a transposing copy, and a
maxpool compares contiguous runs of channels.  numpy sums in memory
order, so three places keep C order to keep every byte: a conv's bias
gradient sums an NCHW copy of its output gradient (`_conv2d_grads`), the
matching residual is built in C order (`losses.matching_loss`), and
`flatten` copies into NCHW order, the order of the dense weights' rows.
A relu that follows a conv or dense layer runs in place on that layer's
fresh output (`_layer_outputs`), as in-place activation does (Rota Bulo
et al., arXiv:1712.02616): its backward mask x > 0 is the same on
max(x, 0), so the pre-activation need not be kept.

Freed blocks stay in the malloc heap (`_keep_freed_blocks`, on import).
glibc otherwise maps every block of 32 MiB or more straight from the
kernel and unmaps it on free, and trims the heap top, so each training
step re-faulted and the kernel re-zeroed its large blocks: the conv
weight-gradient patch blocks (50 MB for kws_cnn's 64 -> 64 convs at
B=32), the 33.5 MB 4096x1024 dense weights and the channel-last conv
outputs.  That was a median 4.6k (kws_cnn) and 9.5k (cifar_cnn) minor
page faults per B=32 step; with both thresholds raised to 1 GiB the
next step reuses those pages and takes 0-4.  Every thread allocates
from the main arena (one arena at most): a thread's own arena keeps its
heaps under 64 MiB, so a pooled client re-mapped its large blocks on
every step.  The cost is that the resident set stays at its high-water
mark instead of shrinking after a peak.  Where a block lives changes no
byte of any result.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """A tensor's shape does not fit what a layer or graph expects."""


class NonFiniteError(FloatingPointError):
    """A NaN or infinity showed up in a forward or backward pass."""


class GraphError(ValueError):
    """A ModelGraph or decoder is structurally invalid."""


KINDS = (
    "dense",
    "relu",
    "conv2d",
    "maxpool2x2",
    "flatten",
    "transposed_conv2d",
    "unpool2x2",
    "unflatten",
)

# ---------------------------------------------------------------------------
# Layer specifications


@dataclass(frozen=True)
class LayerSpec:
    """One layer in a graph or in a matching-decoder stage.

    Only the fields relevant to `kind` are meaningful; the rest stay at
    their defaults.  `pool_layer` is the index of the maxpool2x2 layer
    whose switches an unpool2x2 layer replays; `shape` is the per-sample
    shape an unflatten layer restores.
    """

    kind: str
    in_units: int = 0
    out_units: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    padding: int = 0
    pool_layer: int = -1
    shape: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise GraphError(f"unknown layer kind {self.kind!r}")
        if self.kind == "dense":
            if self.in_units <= 0 or self.out_units <= 0:
                raise GraphError("dense layer needs positive in/out units")
        elif self.kind == "unflatten":
            if not self.shape or min(self.shape) <= 0:
                raise GraphError(f"unflatten needs a non-empty positive shape, got {self.shape}")
        elif self.kind in ("conv2d", "transposed_conv2d"):
            if self.in_channels <= 0 or self.out_channels <= 0:
                raise GraphError(f"{self.kind} needs positive channel counts")
            if self.kernel <= 0:
                raise GraphError(f"{self.kind} kernel size must be positive")
            if not 0 <= self.padding < self.kernel:
                raise GraphError(f"{self.kind} padding {self.padding} must lie in "
                                 f"[0, kernel {self.kernel})")

    @property
    def has_params(self) -> bool:
        return self.kind in ("dense", "conv2d", "transposed_conv2d")


def dense(in_units: int, out_units: int) -> LayerSpec:
    return LayerSpec("dense", in_units=in_units, out_units=out_units)


def relu() -> LayerSpec:
    return LayerSpec("relu")


def conv2d(in_channels: int, out_channels: int, kernel: int,
           padding: int = 0) -> LayerSpec:
    return LayerSpec("conv2d", in_channels=in_channels, out_channels=out_channels,
                     kernel=kernel, padding=padding)


def transposed_conv2d(in_channels: int, out_channels: int, kernel: int,
                      padding: int = 0) -> LayerSpec:
    return LayerSpec("transposed_conv2d", in_channels=in_channels,
                     out_channels=out_channels, kernel=kernel, padding=padding)


def maxpool2x2() -> LayerSpec:
    return LayerSpec("maxpool2x2")


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def unpool2x2(pool_layer: int) -> LayerSpec:
    return LayerSpec("unpool2x2", pool_layer=pool_layer)


def unflatten(shape: tuple[int, ...]) -> LayerSpec:
    return LayerSpec("unflatten", shape=tuple(shape))


def output_shape(spec: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-sample output shape of `spec` applied to `in_shape` (no batch dim)."""
    if spec.kind == "dense":
        if in_shape != (spec.in_units,):
            raise ShapeError(
                f"dense expects input ({spec.in_units},), got {in_shape}")
        return (spec.out_units,)
    if spec.kind == "relu":
        return in_shape
    if spec.kind == "flatten":
        if len(in_shape) < 2:
            raise ShapeError(f"flatten expects a multi-axis input, got {in_shape}")
        return (int(np.prod(in_shape)),)
    if spec.kind == "unflatten":
        if int(np.prod(in_shape)) != int(np.prod(spec.shape)):
            raise ShapeError(f"unflatten cannot reshape {in_shape} to {spec.shape}")
        return spec.shape
    if spec.kind in ("maxpool2x2", "unpool2x2"):
        if len(in_shape) != 3:
            raise ShapeError(f"{spec.kind} expects (C, H, W), got {in_shape}")
        c, h, w = in_shape
        if spec.kind == "unpool2x2":
            return (c, 2 * h, 2 * w)
        if h % 2 or w % 2:
            raise ShapeError(f"maxpool2x2 needs even spatial dims, got {in_shape}")
        return (c, h // 2, w // 2)
    # conv2d or transposed_conv2d, the kinds left
    if len(in_shape) != 3 or in_shape[0] != spec.in_channels:
        raise ShapeError(f"{spec.kind} expects ({spec.in_channels}, H, W), got {in_shape}")
    # A conv shrinks each spatial dim by K-1-2p; a transposed conv grows it as much.
    grow = spec.kernel - 1 - 2 * spec.padding
    if spec.kind == "conv2d":
        grow = -grow
    _, h, w = in_shape
    if h + grow <= 0 or w + grow <= 0:
        raise ShapeError(f"{spec.kind} leaves no output for input {in_shape}")
    return (spec.out_channels, h + grow, w + grow)


# ---------------------------------------------------------------------------
# Parameter sets


# A parameter set is a plain dict from tensor name ("{layer}.w", "{layer}.b")
# to float64 array, in layer order.  `init_params` and
# `models.build_matching_decoder` fix its keys and shapes, and every
# gradient or update is built over the same keys in the same order, so no
# operation re-checks them.  Updates return new dicts and never write into
# a parameter array (client updates must not alias server state); only
# fresh gradients are written in place (`losses.total_loss_and_grads`).
ParamSet = dict[str, np.ndarray]


def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> ParamSet:
    """One vanilla SGD step: params - lr * grads, as a new dict.

    lr * g is the one new array per tensor; the difference overwrites it.
    """
    return {k: np.subtract(p, t := lr * grads[k], out=t) for k, p in params.items()}


# ---------------------------------------------------------------------------
# Graphs


@dataclass(frozen=True)
class ModelGraph:
    """A linear chain of layers with a fixed per-sample input shape."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise GraphError("a graph needs at least one layer")
        if any(spec.kind == "unpool2x2" for spec in self.layers):
            raise GraphError("unpool2x2 layers run only in decoder stages")
        # Force a full shape walk now so invalid chains fail at build time.
        self.layer_shapes

    @cached_property
    def layer_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Per-sample output shape of every layer, in order."""
        shapes = []
        cur = self.input_shape
        for spec in self.layers:
            cur = output_shape(spec, cur)
            shapes.append(cur)
        return tuple(shapes)

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.layer_shapes[-1]


def layer_param_shapes(spec: LayerSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(w, b) shapes of a layer with parameters (dense, conv2d or
    transposed_conv2d)."""
    if spec.kind == "dense":
        return (spec.in_units, spec.out_units), (spec.out_units,)
    k = spec.kernel
    if spec.kind == "conv2d":
        return (spec.out_channels, spec.in_channels, k, k), (spec.out_channels,)
    return (spec.in_channels, spec.out_channels, k, k), (spec.out_channels,)


def init_layer_params(spec: LayerSpec, i: int,
                      rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh "{i}.w" ~ Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) and zero "{i}.b"
    for layer `i`; fan_in counts the weights that feed one output unit."""
    w_shape, b_shape = layer_param_shapes(spec)
    fan_in = int(np.prod(w_shape)) // b_shape[0]
    return {f"{i}.w": rng.uniform(-1.0, 1.0, w_shape) / np.sqrt(fan_in),
            f"{i}.b": np.zeros(b_shape)}


def init_params(graph: ModelGraph, rng: np.random.Generator) -> ParamSet:
    """Fresh parameters for every parameterized layer of `graph`.

    Draw order is fixed (layer order), so a given generator state yields
    the same parameters every time.
    """
    return {k: v for i, spec in enumerate(graph.layers) if spec.has_params
            for k, v in init_layer_params(spec, i, rng).items()}


# ---------------------------------------------------------------------------
# Primitive forward/backward rules


def _check_finite(name: str, *arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteError(f"non-finite values in {name}")


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b


def dense_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """Returns (dw, db, dx) for y = x @ w + b."""
    dw = x.T @ g
    db = g.sum(axis=0)
    dx = g @ w.T
    return dw, db, dx


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Subgradient 0 at exactly 0, matching the forward's max(x, 0).
    return np.where(x > 0.0, g, 0.0)


# Largest GEMM intermediate (im2col patches or tap-sum taps) that one batch
# slice of a conv may build; see `_correlate_nhwc`.
SLICE_BYTES = 8 << 20

# glibc `mallopt` settings (malloc.h parameter, value): freed blocks under
# 1 GiB stay in the heap, and every thread allocates from the one main
# arena; see the module docstring.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 1 << 30), (_M_TRIM_THRESHOLD, 1 << 30),
                  (_M_ARENA_MAX, 1))


def _keep_freed_blocks(libc=None) -> bool:
    """Apply `_HEAP_SETTINGS` through glibc's `mallopt`; True if all took.

    A C library without `mallopt` (not glibc), or one that refuses a
    setting, leaves the allocator as it was; nothing is raised.
    """
    try:
        mallopt = (ctypes.CDLL(None) if libc is None else libc).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: no CDLL(None)
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _HEAP_SETTINGS)


# Whether freed large blocks stay in the heap, for the run's progress line.
HEAP_REUSE = _keep_freed_blocks()


def _pad_nhwc(x: np.ndarray, padding: int) -> np.ndarray:
    """(B, C, H, W) -> zero-padded channel-last (B, H+2p, W+2p, C)."""
    p = padding
    return np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (p, p), (p, p), (0, 0)))


def _windows(xh: np.ndarray, k: int) -> np.ndarray:
    """Every KxK window of padded channel-last `xh`, as a (B, OH, OW, K, K, C)
    view; reshaped to (B*OH*OW, K*K*C) it is the im2col patch matrix.

    With C innermost the window copy moves contiguous runs of C values;
    (C, K, K) columns taken from NCHW move one value at a time.
    """
    return sliding_window_view(xh, (k, k), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)


def _correlate_nhwc(x: np.ndarray, w: np.ndarray, padding: int,
                    patches: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation of (B, C, H, W) `x`, zero-padded by `padding`, with
    (O, C, K, K) kernels; returns channel-last (B, OH, OW, O).  x may lie
    in either layout.

    In whichever of two GEMM forms has the narrower intermediate:

    * C <= O, gather: patches (B*OH*OW, K*K*C) @ kernel^T.  `patches`, if
      given, is that whole matrix, already built by the caller
      (`_conv2d_grads`, which also needs it for the weight gradient); x
      then gives only the shapes.
    * C > O, tap-sum: apply the kernel first, padded x (B*HP*WP, C) @
      (C, K*K*O), then add the K*K shifted taps onto the output grid.

    The patch matrix is K*K*C wide and the tap-sum intermediate K*K*O,
    so the channel counts decide.

    The GEMM runs over batch slices whose intermediate stays within
    `SLICE_BYTES` (at least one sample each); every slice writes its rows
    of the one output array, and a batch that fits is a single slice.
    x is padded one slice at a time: one zeroed (step, HP, WP, C) buffer
    and its window view are made once per call, each slice copies its
    samples into the buffer's interior, and the border stays 0.  Prebuilt
    patches are used in the same slices, so the output has the same bytes
    either way.  The weight gradient (`_conv2d_grads`) is blocked by
    kernel rows instead: it sums over the batch, and slicing the batch
    would reorder that sum.
    """
    o, c, k = w.shape[:3]
    (bsz, _, h, wd), p = x.shape, padding
    hp, wp = h + 2 * p, wd + 2 * p
    oh, ow = hp - k + 1, wp - k + 1
    # The gather GEMM writes every output element; the tap sums add onto 0.
    out = (np.empty if c <= o else np.zeros)((bsz, oh, ow, o))
    # The GEMM's right operand, and the size of one sample's intermediate.
    if c <= o:
        wm, sample_size = w.transpose(0, 2, 3, 1).reshape(o, -1).T, oh * ow * k * k * c
    else:
        # The padded buffer can outgrow the taps when O is small (kws_cnn's
        # 64 -> 1 decoder stage); the larger of the two sets the step.
        wm, sample_size = w.transpose(1, 2, 3, 0).reshape(c, -1), hp * wp * max(k * k * o, c)
    step = max(1, SLICE_BYTES // (sample_size * out.itemsize))
    xh = np.zeros((min(step, bsz), hp, wp, c)) if patches is None else None
    win = _windows(xh, k) if patches is None else patches.reshape(bsz, oh, ow, -1)
    for lo in range(0, bsz, step):
        ys = out[lo:lo + step]
        n = ys.shape[0]
        if patches is None:
            xh[:n, p:p + h, p:p + wd] = x[lo:lo + n].transpose(0, 2, 3, 1)
        if c <= o:
            # A slice's patches die with the call, so the next slice reuses
            # their block; prebuilt patches are sliced without a copy.
            wins = win[:n] if patches is None else win[lo:lo + n]
            np.matmul(wins.reshape(-1, k * k * c), wm, out=ys.reshape(-1, o))
        else:
            taps = (xh[:n].reshape(-1, c) @ wm).reshape(n, hp, wp, k, k, o)
            for u in range(k):
                for v in range(k):
                    ys += taps[:, u:u + oh, v:v + ow, u, v]
    return out


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                   padding: int = 0) -> np.ndarray:
    """Stride-1 cross-correlation of (B, C, H, W) with (O, C, K, K) kernels.

    Runs as one channel-last GEMM (see `_correlate_nhwc`): the gather form
    when C <= O, the tap-sum form when C > O.  The decoder's transposed
    convs and the dx of every channel-widening conv narrow the channels,
    which is where the tap-sum form pays.  x may lie in either layout; the
    result is the (B, O, OH, OW) view of the channel-last GEMM output,
    not an NCHW copy (module docstring, Layout).
    """
    out = _correlate_nhwc(x, w, padding)
    if b is not None:
        out += b
    return out.transpose(0, 3, 1, 2)


def _tconv_as_conv(w: np.ndarray) -> np.ndarray:
    # Swap in/out channels and flip spatially: a transposed conv is an
    # ordinary conv with this kernel and padding K-1-p.
    return np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


def _conv2d_grads(x: np.ndarray, g: np.ndarray, k: int, padding: int,
                  w_dx: np.ndarray | None = None):
    """(dw, db, dx) of the stride-1 conv of x (B, C, H, W) with (O, C, K, K)
    kernels at `padding` p, given its output gradient g (B, O, OH, OW).

    dx is the transposed conv of g at padding p: the conv of g at padding
    K-1-p with the (C, O, K, K) kernels `w_dx`, which the caller passes:
    `conv2d_backward` transforms the layer's kernels, and `_tconv_grads`
    passes the transposed conv's own kernels unchanged.  Without `w_dx`
    (a first layer needs no input gradient) dx is None.  db sums g over batch
    and space, in NCHW order: g is channel-last in memory, numpy sums in
    memory order, and summed as it lies db moved by up to 5e-12.

    dw correlates x with g, so either can be the im2col'd side; the one
    with fewer channels is, chosen once here for dw and dx together:

    * C <= O: g^T @ the patches of x padded by p (B*OH*OW, K*K*C), one
      GEMM per block of kernel rows u that fits `SLICE_BYTES` (at least
      one row): dw[:, u-block] = g^T @ patches[:, u-block].  Only the
      output columns are split, so no sum is reordered.
    * O < C: the patches of g padded by K-1-p, on x's grid (B*H*W,
      K*K*O), transposed, @ channel-last x, with the taps flipped back.
      dx's gather GEMM runs over the same patches, so the backward builds
      one patch matrix; for cifar_cnn's 32 -> 3 decoder stage at B=32 it
      is 20 MB where x's was 210 MB.

    Either way dx is one `_correlate_nhwc` call; only the O < C form hands
    it prebuilt patches.

    Where the large blocks fall in the heap sets kws_wd's peak RSS.  dw is
    done, and the padded x freed, before dx's GEMM runs.  db's
    NCHW copy of g is made and freed before the patch matrix: made after
    dw, it raised it by 14 to 20 MB.
    """
    o, c = g.shape[1], x.shape[1]
    db = np.ascontiguousarray(g).sum(axis=(0, 2, 3))
    if c <= o:
        win = _windows(_pad_nhwc(x, padding), k)
        gm = g.transpose(0, 2, 3, 1).reshape(-1, o).T
        rows = max(1, SLICE_BYTES // win[:, :, :, 0].nbytes)
        dw = np.concatenate([gm @ win[:, :, :, u:u + rows].reshape(gm.shape[1], -1)
                             for u in range(0, k, rows)], axis=1)
        del win  # the padded x, freed before dx
        dw = np.ascontiguousarray(dw.reshape(o, k, k, c).transpose(0, 3, 1, 2))
    else:
        gh = _pad_nhwc(g, k - 1 - padding)
        gp = _windows(gh, k).reshape(-1, k * k * o)
        dw = (gp.T @ x.transpose(0, 2, 3, 1).reshape(-1, c)).reshape(k, k, o, c)
        dw = np.ascontiguousarray(dw[::-1, ::-1].transpose(2, 3, 0, 1))
    if w_dx is None:
        return dw, db, None
    dx = _correlate_nhwc(g, w_dx, k - 1 - padding, None if c <= o else gp)
    return dw, db, dx.transpose(0, 3, 1, 2)


def _tconv_grads(x: np.ndarray, g: np.ndarray, k: int, padding: int,
                 w: np.ndarray | None = None):
    """(dw, db, dx) of transposed_conv2d: those of its equivalent conv,
    with the kernel transform (an involution) mapping dw back."""
    dwc, db, dx = _conv2d_grads(x, g, k, k - 1 - padding, w)
    return _tconv_as_conv(dwc), db, dx


def conv2d_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray, padding: int = 0):
    """Returns (dw, db, dx) for the conv2d above. g is (B, O, H', W').

    dw is a GEMM over the patches of x, blocked by kernel rows, or over
    those of g (`_conv2d_grads`); dx is the transposed conv of g with the
    same kernel and padding.
    """
    return _conv2d_grads(x, g, w.shape[2], padding, _tconv_as_conv(w))


def transposed_conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                              padding: int = 0) -> np.ndarray:
    """Stride-1 transposed convolution; w is (C_in, C_out, K, K).

    Runs as the ordinary conv with channel-swapped, spatially flipped
    kernels and padding K-1-p.
    """
    return conv2d_forward(x, _tconv_as_conv(w), b, padding=w.shape[2] - 1 - padding)


def transposed_conv2d_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                               padding: int = 0):
    """Returns (dw, db, dx) for the transposed conv; dx is the conv of g
    with the same kernel and padding."""
    return _tconv_grads(x, g, w.shape[2], padding, w)


def _corners(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four corners of every 2x2 window of (B, C, H, W), as strided
    (B, C, H/2, W/2) views in row-major order."""
    return tuple(x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1))


def maxpool2x2_forward(x: np.ndarray):
    """Returns (pooled, switches); switches hold the argmax corner 0..3.

    Corners are numbered row-major within each window (0 = top-left,
    1 = top-right, 2 = bottom-left, 3 = bottom-right); ties go to the
    first (row-major) position, as numpy argmax would.  The switch counts
    the leading corners that miss the maximum.
    """
    corners = _corners(x)
    pooled = np.maximum(np.maximum(corners[0], corners[1]),
                        np.maximum(corners[2], corners[3]))
    missed = np.ones_like(pooled, dtype=bool)
    switches = np.zeros_like(pooled, dtype=np.int8)
    for corner in corners[:3]:
        missed &= corner != pooled
        switches += missed
    return pooled, switches


def maxpool2x2_backward(g: np.ndarray, switches: np.ndarray) -> np.ndarray:
    """Route output grads back to the winning input positions."""
    return unpool2x2_forward(g, switches)


def unpool2x2_forward(x: np.ndarray, switches: np.ndarray) -> np.ndarray:
    """Place each value at its recorded corner of a 2x2 window, zeros elsewhere."""
    b, c, h, w = x.shape
    out = np.zeros((b, 2 * h, 2 * w, c), dtype=x.dtype).transpose(0, 3, 1, 2)
    for s, corner in enumerate(_corners(out)):
        np.copyto(corner, x, where=switches == s)
    return out


def unpool2x2_backward(g: np.ndarray, switches: np.ndarray) -> np.ndarray:
    """Gather grads from the positions the unpool wrote to."""
    c = _corners(g)
    return np.where(switches == 0, c[0], np.where(
        switches == 1, c[1], np.where(switches == 2, c[2], c[3])))


# ---------------------------------------------------------------------------
# Graph forward / backward


@dataclass(frozen=True)
class ForwardTrace:
    """Everything the backward pass (and the matching loss) needs.

    `outputs[i]` is layer i's batched output; `switches` maps maxpool layer
    index -> int8 switch tensor.  A relu that follows a layer with
    parameters runs in place on that layer's output, so then `outputs[i]`
    is `outputs[i + 1]`, the relu's output.  Nothing reads the
    pre-activation: the relu's backward mask x > 0 is the same on
    max(x, 0), and the matching sites are relu outputs and logits.
    """

    x: np.ndarray
    outputs: tuple[np.ndarray, ...]
    switches: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def logits(self) -> np.ndarray:
        return self.outputs[-1]

    def site_output(self, layer_index: int) -> np.ndarray:
        """Activation at a site; -1 means the network input itself."""
        if layer_index == -1:
            return self.x
        return self.outputs[layer_index]


def layer_forward(spec: LayerSpec, i: int, x: np.ndarray, params: ParamSet,
                  switches: dict[int, np.ndarray]) -> np.ndarray:
    """Apply `spec`, the layer at index `i`, to the batch `x`.

    Parameters are read from "{i}.w"/"{i}.b".  A maxpool records its
    switches under `i`; an unpool replays those under `spec.pool_layer`.
    """
    if spec.kind == "dense":
        return dense_forward(x, params[f"{i}.w"], params[f"{i}.b"])
    if spec.kind == "relu":
        return relu_forward(x)
    if spec.kind == "conv2d":
        return conv2d_forward(x, params[f"{i}.w"], params[f"{i}.b"], padding=spec.padding)
    if spec.kind == "transposed_conv2d":
        return transposed_conv2d_forward(x, params[f"{i}.w"], params[f"{i}.b"],
                                         padding=spec.padding)
    if spec.kind == "maxpool2x2":
        out, switches[i] = maxpool2x2_forward(x)
        return out
    if spec.kind == "flatten":
        return x.reshape(x.shape[0], -1)
    if spec.kind == "unflatten":
        return x.reshape(x.shape[0], *spec.shape)
    return unpool2x2_forward(x, switches[spec.pool_layer])  # unpool2x2, the kind left


def layer_backward(spec: LayerSpec, i: int, x: np.ndarray, g: np.ndarray,
                   params: ParamSet, switches: dict[int, np.ndarray],
                   grads: dict[str, np.ndarray]) -> np.ndarray:
    """Backprop `g` through `spec`, the layer at index `i` with input `x`.

    Stores the layer's parameter gradients in `grads` under "{i}.w"/"{i}.b"
    and returns the gradient with respect to `x`.
    """
    if spec.kind == "dense":
        grads[f"{i}.w"], grads[f"{i}.b"], dx = dense_backward(x, params[f"{i}.w"], g)
        return dx
    if spec.kind == "relu":
        return relu_backward(x, g)
    if spec.kind == "conv2d":
        grads[f"{i}.w"], grads[f"{i}.b"], dx = conv2d_backward(
            x, params[f"{i}.w"], g, padding=spec.padding)
        return dx
    if spec.kind == "transposed_conv2d":
        grads[f"{i}.w"], grads[f"{i}.b"], dx = transposed_conv2d_backward(
            x, params[f"{i}.w"], g, padding=spec.padding)
        return dx
    if spec.kind == "maxpool2x2":
        return maxpool2x2_backward(g, switches[i])
    if spec.kind in ("flatten", "unflatten"):
        return g.reshape(x.shape)
    return unpool2x2_backward(g, switches[spec.pool_layer])  # unpool2x2, the kind left


def _layer_outputs(graph: ModelGraph, params: ParamSet, x: np.ndarray,
                   switches: dict[int, np.ndarray]):
    """Yield each layer's finite-checked output in turn, holding only the
    current one; maxpools record their switches in `switches`."""
    cur = x
    for i, spec in enumerate(graph.layers):
        # A relu after a layer with parameters overwrites that layer's fresh,
        # already checked output (ForwardTrace).
        in_place = spec.kind == "relu" and i > 0 and graph.layers[i - 1].has_params
        cur = (relu_forward(cur, out=cur) if in_place
               else layer_forward(spec, i, cur, params, switches))
        _check_finite(f"layer {i} ({spec.kind}) output", cur)
        yield cur


def forward(graph: ModelGraph, params: ParamSet, x: np.ndarray) -> ForwardTrace:
    """Run the graph on a batch, keeping every intermediate activation."""
    switches: dict[int, np.ndarray] = {}
    outputs = tuple(_layer_outputs(graph, params, x, switches))
    return ForwardTrace(x=x, outputs=outputs, switches=switches)


def forward_logits(graph: ModelGraph, params: ParamSet, x: np.ndarray) -> np.ndarray:
    """Run the graph on a batch for its logits alone: each activation is
    freed once the next layer has consumed it."""
    for cur in _layer_outputs(graph, params, x, {}):
        pass
    return cur


def _layer0_param_grads(spec: LayerSpec, x: np.ndarray, g: np.ndarray):
    """(dw, db) of a parameterized first layer, without its input gradient."""
    if spec.kind == "dense":
        return x.T @ g, g.sum(axis=0)
    grads = _conv2d_grads if spec.kind == "conv2d" else _tconv_grads
    return grads(x, g, spec.kernel, spec.padding)[:2]


def backward(graph: ModelGraph, params: ParamSet, trace: ForwardTrace,
             output_grad: np.ndarray,
             site_grads: dict[int, np.ndarray] | None = None) -> ParamSet:
    """Backprop through the whole graph; returns the parameter gradients.

    `output_grad` is dLoss/d(last layer output).  `site_grads` lets callers
    inject extra gradient at interior layer outputs (the matching loss does
    this); its keys are layer indices 0 <= k < len(graph.layers).  The
    network input is never a gradient source, so the input gradient is not
    computed: layer 0 yields only its parameter gradients.
    """
    g = output_grad
    site_grads = site_grads or {}
    grads: dict[str, np.ndarray] = {}
    for i in range(len(graph.layers) - 1, -1, -1):
        if i in site_grads:
            g = g + site_grads[i]
        spec = graph.layers[i]
        if i == 0:
            if spec.has_params:
                grads["0.w"], grads["0.b"] = _layer0_param_grads(spec, trace.x, g)
            break
        g = layer_backward(spec, i, trace.outputs[i - 1], g, params, trace.switches, grads)
        _check_finite(f"layer {i} ({spec.kind}) gradient", g)
    return {k: grads[k] for k in params}  # in the parameters' (layer) order
