"""Tensor core: forward rules against straight-line references, backward
rules against central finite differences, and the structural contracts
(shapes, switches, parameter bookkeeping, error paths)."""

import ctypes
import resource
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fedmatch import federation, nn
from fedmatch.models import build_arch
from fedmatch.nn import (
    ForwardTrace,
    GraphError,
    ModelGraph,
    NonFiniteError,
    ShapeError,
    conv2d,
    dense,
    flatten,
    maxpool2x2,
    relu,
    transposed_conv2d,
    unflatten,
    unpool2x2,
)

import oracles


RNG = np.random.default_rng(20260813)


def _maxpool_by_argmax(x):
    """Maxpool by reshape, transpose and argmax: an independent oracle for
    the switches, ties included."""
    b, c, h, w = x.shape
    win = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5) \
        .reshape(b, c, h // 2, w // 2, 4)
    sw = win.argmax(axis=-1)
    return np.take_along_axis(win, sw[..., None], axis=-1)[..., 0], sw.astype(np.int8)


def _dw_by_x_patches(x, g, k, padding):
    """Conv weight gradient as one GEMM, g^T @ the im2col of x: the form
    the kernels use when C <= O, kept as the reference for O < C."""
    o, c = g.shape[1], x.shape[1]
    gm = g.transpose(0, 2, 3, 1).reshape(-1, o)
    dw = gm.T @ nn._windows(nn._pad_nhwc(x, padding), k).reshape(-1, k * k * c)
    return dw.reshape(o, k, k, c).transpose(0, 3, 1, 2)


class TestForwardAgainstReferences:
    def test_dense_matches_loop_reference(self):
        x = RNG.normal(size=(4, 7))
        w = RNG.normal(size=(7, 5))
        b = RNG.normal(size=5)
        got = nn.dense_forward(x, w, b)
        assert np.allclose(got, oracles.dense_ref(x, w, b), atol=1e-12)

    # Kernels are (O, C, K, K); C <= O takes the gather form, C > O the
    # tap-sum form.  Ids read stride-padding, and the stride is always 1;
    # inputs are 8x8 unless the id names another size.
    @pytest.mark.parametrize("padding,w_shape,hw", [
        (0, (4, 3, 3, 3), (8, 8)), (1, (4, 3, 3, 3), (8, 8)),
        (2, (4, 3, 3, 3), (8, 8)), (1, (2, 5, 3, 3), (8, 8)),
        (2, (2, 5, 3, 3), (8, 8)), (1, (2, 5, 3, 3), (7, 9)),
    ], ids=["1-0", "1-1", "1-2", "1-1-c5o2", "1-2-c5o2", "1-1-c5o2-x7x9"])
    def test_conv2d_matches_loop_reference(self, padding, w_shape, hw):
        x = RNG.normal(size=(2, w_shape[1], *hw))
        w = RNG.normal(size=w_shape)
        b = RNG.normal(size=w_shape[0])
        got = nn.conv2d_forward(x, w, b, padding=padding)
        want = oracles.conv2d_ref(x, w, b, padding=padding)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_transposed_conv_matches_scatter_reference(self, padding):
        x = RNG.normal(size=(2, 4, 6, 6))
        w = RNG.normal(size=(4, 3, 5, 5))
        b = RNG.normal(size=3)
        got = nn.transposed_conv2d_forward(x, w, b, padding=padding)
        want = oracles.tconv2d_ref(x, w, b, padding=padding)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-12)

    def test_transposed_conv_same_padding_preserves_spatial_dims(self):
        x = RNG.normal(size=(1, 4, 9, 9))
        w = RNG.normal(size=(4, 2, 5, 5))
        out = nn.transposed_conv2d_forward(x, w, np.zeros(2), padding=2)
        assert out.shape == (1, 2, 9, 9)

    def test_maxpool_matches_reference_and_switch_range(self):
        x = RNG.normal(size=(3, 2, 6, 4))
        got, sw = nn.maxpool2x2_forward(x)
        want, wsw = oracles.maxpool_ref(x)
        assert np.array_equal(got, want)
        assert np.array_equal(sw, wsw)
        assert sw.min() >= 0 and sw.max() <= 3

    def test_maxpool_switch_example(self):
        # one window, max in the bottom-right corner -> switch 3
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pooled, sw = nn.maxpool2x2_forward(x)
        assert pooled[0, 0, 0, 0] == 4.0
        assert sw[0, 0, 0, 0] == 3

    def test_maxpool_tie_takes_first_row_major_position(self):
        pooled, sw = nn.maxpool2x2_forward(np.full((2, 3, 4, 6), 7.0))
        assert np.array_equal(sw, np.zeros((2, 3, 2, 3), dtype=np.int8))
        assert np.array_equal(pooled, np.full((2, 3, 2, 3), 7.0))

    def test_maxpool_ties_match_argmax_formula(self):
        # Three levels make ties of two, three and four corners common.
        x = np.random.default_rng(7).integers(0, 3, size=(4, 3, 8, 6)).astype(float)
        pooled, sw = nn.maxpool2x2_forward(x)
        want_pooled, want_sw = _maxpool_by_argmax(x)
        assert sw.dtype == np.int8
        assert np.array_equal(sw, want_sw)
        assert pooled.tobytes() == want_pooled.tobytes()

    def test_unpool_places_values_at_recorded_corners(self):
        x = RNG.normal(size=(2, 3, 4, 4))
        pooled, sw = nn.maxpool2x2_forward(x)
        up = nn.unpool2x2_forward(pooled, sw)
        assert np.array_equal(up, oracles.unpool_ref(pooled, sw))
        # value mass is preserved, just re-placed
        assert np.allclose(up.sum(axis=(2, 3)), pooled.sum(axis=(2, 3)))

    def test_unpool_of_pool_example(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pooled, sw = nn.maxpool2x2_forward(x)
        up = nn.unpool2x2_forward(pooled, sw)
        assert np.array_equal(up, np.array([[[[0.0, 0.0], [0.0, 4.0]]]]))


# kind: (x shape, kernel shape, padding).  Conv kernels are
# (O, C, K, K), transposed-conv kernels (C, O, K, K); each case runs its
# forward in one GEMM form and its dx in the other.  Their per-sample GEMM
# intermediates are 5-14 kB, so a 16 kB budget cuts the 7-sample batch
# into four to seven slices.
SLICED_CONVS = {
    "conv-c3o4": ("conv", (7, 3, 6, 6), (4, 3, 3, 3), 1),
    "conv-c5o2": ("conv", (7, 5, 7, 7), (2, 5, 3, 3), 1),
    "tconv-c4o3": ("tconv", (7, 4, 5, 5), (4, 3, 3, 3), 1),
    "tconv-c2o4": ("tconv", (7, 2, 5, 5), (2, 4, 3, 3), 0),
}


class TestBatchSlicing:
    """Conv GEMMs run over batch slices of at most nn.SLICE_BYTES of
    intermediate; a slice boundary must not change a byte."""

    @staticmethod
    def _forward(kind, x, w, padding):
        if kind == "conv":
            return nn.conv2d_forward(x, w, np.ones(w.shape[0]), padding=padding)
        return nn.transposed_conv2d_forward(x, w, np.ones(w.shape[1]), padding=padding)

    @staticmethod
    def _dx(kind, x, w, g, padding):
        if kind == "conv":
            return nn.conv2d_backward(x, w, g, padding=padding)[2]
        return nn.transposed_conv2d_backward(x, w, g, padding=padding)[2]

    @pytest.mark.parametrize("budget", [1, 16_000], ids=["1B", "16kB"])
    @pytest.mark.parametrize("case", sorted(SLICED_CONVS))
    def test_sliced_batch_equals_per_sample_calls(self, case, budget, monkeypatch):
        kind, x_shape, w_shape, padding = SLICED_CONVS[case]
        rng = np.random.default_rng(3)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        monkeypatch.setattr(nn, "SLICE_BYTES", budget)
        y = self._forward(kind, x, w, padding)
        g = rng.normal(size=y.shape)
        dx = self._dx(kind, x, w, g, padding)
        # A single sample is a single slice under any budget.
        samples = range(x.shape[0])
        y_parts = [self._forward(kind, x[i:i + 1], w, padding) for i in samples]
        dx_parts = [self._dx(kind, x[i:i + 1], w, g[i:i + 1], padding) for i in samples]
        assert y.tobytes() == np.concatenate(y_parts).tobytes()
        assert dx.tobytes() == np.concatenate(dx_parts).tobytes()


def test_kws_validation_forward_memory_is_bounded():
    # The kws_cnn validation forward at B=128 peaked at ~880 MB when each
    # conv built its whole im2col matrix; batch slicing brought that to
    # ~370 MB.  Evaluation keeps only the current activation, not the
    # whole trace, which left ~215 MB.  Padding each slice instead of the
    # whole batch, and each relu in place on its conv's output, leave
    # ~143 MB.
    arch = build_arch("kws_cnn")
    rng = np.random.default_rng(0)
    params = nn.init_params(arch.graph, rng)
    x = rng.uniform(0.0, 1.0, size=(128, 1, 32, 32))
    y = rng.integers(0, 10, size=128)
    tracemalloc.start()
    try:
        federation.evaluate_loss(arch.graph, params, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 175e6, f"peak {peak / 1e6:.0f} MB"


# Every conv of the three models, and every decoder transposed conv whose
# equivalent conv has C <= O, as (kind, C, O, kernel, padding, H = W of the
# input): each takes the x-patches form of dw, blocked by kernel rows.  The
# decoder's narrowing stages (O < C) build the patches of g instead and are
# covered by TestSharedPatches.
X_PATCH_DW = {
    "cifar-conv1": ("conv", 3, 32, 5, 2, 32),
    "cifar-conv2": ("conv", 32, 64, 5, 2, 16),
    "kws-conv1": ("conv", 1, 64, 3, 1, 32),
    "kws-conv2": ("conv", 64, 64, 3, 1, 32),
    "kws-conv3": ("conv", 64, 64, 3, 1, 16),
    "kws-s2": ("tconv", 64, 64, 3, 1, 32),
    "kws-s3": ("tconv", 64, 64, 3, 1, 16),
}


class TestKernelRowBlocks:
    """The x-patches weight gradient runs as one GEMM per block of kernel
    rows that fits nn.SLICE_BYTES.  Splitting the GEMM's columns reorders
    no sum, so dw keeps the bytes of the single GEMM."""

    @staticmethod
    def _dw_pair(case, batch):
        kind, c, o, k, p, hw = X_PATCH_DW[case]
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, c, hw, hw))
        out_hw = hw + 2 * p - k + 1 if kind == "conv" else hw + k - 1 - 2 * p
        g = _channel_last(rng.normal(size=(batch, o, out_hw, out_hw)))
        if kind == "conv":
            return nn._conv2d_grads(x, g, k, p)[0], _dw_by_x_patches(x, g, k, p)
        return (nn._tconv_grads(x, g, k, p)[0],
                nn._tconv_as_conv(_dw_by_x_patches(x, g, k, k - 1 - p)))

    @pytest.mark.parametrize("batch", [1, 2, 6, 32])
    @pytest.mark.parametrize("case", sorted(X_PATCH_DW))
    def test_default_budget_keeps_the_bytes(self, case, batch):
        dw, want = self._dw_pair(case, batch)
        assert dw.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("batch", [6, 32])
    @pytest.mark.parametrize("case", sorted(X_PATCH_DW))
    def test_one_kernel_row_per_block_keeps_the_bytes(self, case, batch, monkeypatch):
        monkeypatch.setattr(nn, "SLICE_BYTES", 1)
        dw, want = self._dw_pair(case, batch)
        assert dw.tobytes() == np.ascontiguousarray(want).tobytes()


# Every transposed conv of the cifar_cnn and kws_cnn decoders, as
# (C_in, C_out, kernel, padding, H = W of the input).
DECODER_TCONVS = {
    "cifar-s1": (32, 3, 5, 2, 32),
    "cifar-s2": (64, 32, 5, 2, 16),
    "kws-s1": (64, 1, 3, 1, 32),
    "kws-s2": (64, 64, 3, 1, 32),
    "kws-s3": (64, 64, 3, 1, 16),
}


class TestSharedPatches:
    """With fewer output-gradient channels O than input channels C, a conv
    or transposed-conv backward builds one im2col, of g, for both dw and
    dx.  dx and db keep their bytes; dw sums in another order."""

    @pytest.mark.parametrize("batch", [1, 6, 32])
    @pytest.mark.parametrize("kind", ["conv", "tconv"])
    @pytest.mark.parametrize("stage", sorted(DECODER_TCONVS))
    def test_against_the_unshared_path(self, stage, kind, batch):
        c, o, k, p, hw = DECODER_TCONVS[stage]
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, c, hw, hw))
        if kind == "conv":
            w = rng.normal(size=(o, c, k, k))
            g = rng.normal(size=(batch, o, hw + 2 * p - k + 1, hw + 2 * p - k + 1))
            dw, db, dx = nn.conv2d_backward(x, w, g, padding=p)
            want_dw = _dw_by_x_patches(x, g, k, p)
            want_dx = nn.transposed_conv2d_forward(g, w, None, padding=p)
        else:
            w = rng.normal(size=(c, o, k, k))
            g = rng.normal(size=(batch, o, hw + k - 1 - 2 * p, hw + k - 1 - 2 * p))
            dw, db, dx = nn.transposed_conv2d_backward(x, w, g, padding=p)
            want_dw = nn._tconv_as_conv(_dw_by_x_patches(x, g, k, k - 1 - p))
            want_dx = nn.conv2d_forward(g, w, None, padding=p)
        assert dx.tobytes() == want_dx.tobytes()
        assert db.tobytes() == g.sum(axis=(0, 2, 3)).tobytes()
        if o < c:
            assert np.abs(dw - want_dw).max() <= 1e-13 * np.abs(want_dw).max()
        else:
            assert dw.tobytes() == want_dw.tobytes()


def _channel_last(a):
    """`a` with its NCHW shape kept and its channels innermost in memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _is_channel_last(a):
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


class TestChannelLastLayout:
    """Conv, relu and pool activations are channel-last in memory with NCHW
    shapes.  The layout of a kernel's inputs must not change a byte of its
    results: reductions and the matching residual run in C order."""

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("c,o", [(2, 4), (5, 2)], ids=["c2o4", "c5o2"])
    @pytest.mark.parametrize("kind", ["conv", "tconv"])
    def test_conv_bytes_do_not_depend_on_the_layout(self, kind, c, o, padding):
        rng = np.random.default_rng(padding)
        x, b = rng.normal(size=(3, c, 7, 6)), rng.normal(size=o)
        if kind == "conv":
            w = rng.normal(size=(o, c, 3, 3))
            fwd, bwd = nn.conv2d_forward, nn.conv2d_backward
        else:
            w = rng.normal(size=(c, o, 3, 3))
            fwd, bwd = nn.transposed_conv2d_forward, nn.transposed_conv2d_backward
        g = rng.normal(size=fwd(x, w, b, padding=padding).shape)
        # y, dw, db, dx from C-order inputs, then from channel-last ones.
        c_order, last = [(fwd(xl, w, b, padding=padding), *bwd(xl, w, gl, padding=padding))
                         for xl, gl in ((x, g), (_channel_last(x), _channel_last(g)))]
        for want, got in zip(c_order, last):
            assert got.tobytes() == want.tobytes()

    def test_pool_bytes_do_not_depend_on_the_layout(self):
        rng = np.random.default_rng(1)
        # Rounded values, so windows hold ties.
        x = np.round(rng.normal(size=(3, 4, 6, 8)))
        g_pool, g_unpool = rng.normal(size=(3, 4, 3, 4)), rng.normal(size=(3, 4, 6, 8))
        results = []
        for lay in (np.asarray, _channel_last):
            pooled, sw = nn.maxpool2x2_forward(lay(x))
            results.append((pooled, sw, nn.maxpool2x2_backward(lay(g_pool), sw),
                            nn.unpool2x2_forward(lay(g_pool), sw),
                            nn.unpool2x2_backward(lay(g_unpool), sw)))
        for want, got in zip(*results):
            assert got.tobytes() == want.tobytes()

    def test_kws_forward_keeps_spatial_activations_channel_last(self):
        arch = build_arch("kws_cnn")
        rng = np.random.default_rng(0)
        params = nn.init_params(arch.graph, rng)
        trace = nn.forward(arch.graph, params, rng.uniform(size=(2, 1, 32, 32)))
        spatial = {i: spec.kind for i, spec in enumerate(arch.graph.layers)
                   if trace.outputs[i].ndim == 4}
        assert set(spatial.values()) == {"conv2d", "relu", "maxpool2x2"}
        for i, kind in spatial.items():
            assert _is_channel_last(trace.outputs[i]), f"layer {i} ({kind})"
        for i, sw in trace.switches.items():
            assert _is_channel_last(sw), f"layer {i} switches"


def test_cifar_decoder_stage1_backward_memory_is_bounded():
    # Its backward built a 210 MB im2col of the 32-channel input for dw
    # (211 MiB peak); the im2col of the 3-channel gradient is 20 MB.
    c, o, k, p, hw = DECODER_TCONVS["cifar-s1"]
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(32, c, hw, hw)), rng.normal(size=(c, o, k, k))
    g = rng.normal(size=(32, o, hw, hw))
    tracemalloc.start()
    try:
        nn.transposed_conv2d_backward(x, w, g, padding=p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, f"peak {peak / 2**20:.0f} MiB"


def test_kws_decoder_stage1_forward_memory_is_bounded():
    # Its tap-sum form sized the batch step by the 9 taps a sample gets
    # and padded 100 samples at once: a 19 MB buffer (21 MiB peak).  The
    # step counts the 64-channel padded sample as well: 14 samples, 8 MiB.
    c, o, k, p, hw = DECODER_TCONVS["kws-s1"]
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(32, c, hw, hw)), rng.normal(size=(c, o, k, k))
    tracemalloc.start()
    try:
        nn.transposed_conv2d_forward(x, w, None, padding=p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nn.SLICE_BYTES + (4 << 20), f"peak {peak / 2**20:.1f} MiB"


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    """glibc's mallinfo2 (2.33 and later); skips the test elsewhere."""
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (OSError, TypeError, AttributeError):
        pytest.skip("needs glibc's mallinfo2")
    fn.restype = _MallInfo2
    return fn


def _minor_faults() -> int:
    who = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_minflt


class TestHeapReuse:
    BIG = 8 << 20  # float64 elements: 64 MiB, over glibc's 32 MiB mmap cap

    def test_import_keeps_large_blocks_in_the_heap(self):
        mallinfo2 = _mallinfo2()
        assert nn.HEAP_REUSE
        mapped = mallinfo2().hblkhd
        a = np.ones(self.BIG)
        # Without the setting the block is its own mmap: hblkhd grows by 64 MiB.
        assert mallinfo2().hblkhd == mapped
        del a

    def test_a_freed_block_is_reused_without_page_faults(self):
        _mallinfo2()
        a = np.ones(self.BIG)
        del a
        before = _minor_faults()
        a = np.ones(self.BIG)
        faults = _minor_faults() - before
        del a
        # A fresh mapping faults once per page: 32 times at 2 MiB huge
        # pages, 16384 at 4 KiB.
        assert faults < 16, faults

    def test_a_thread_reuses_a_freed_block_without_page_faults(self):
        # A thread's own glibc arena caps its heaps at 64 MiB, so without
        # the one-arena setting this block is mapped afresh on every call.
        _mallinfo2()
        faults = []

        def allocate_twice():
            a = np.ones(self.BIG)
            del a
            before = _minor_faults()
            a = np.ones(self.BIG)
            faults.append(_minor_faults() - before)

        worker = threading.Thread(target=allocate_twice)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and len(faults) == 1
        assert faults[0] < 16, faults

    @pytest.mark.parametrize("libc", [
        SimpleNamespace(),  # no mallopt, as on macOS
        SimpleNamespace(mallopt=lambda param, value: 0),  # refused
        SimpleNamespace(mallopt=lambda param, value: int(param == -3)),  # half taken
    ])
    def test_an_allocator_that_refuses_the_setting_reports_it_unapplied(self, libc):
        assert nn._keep_freed_blocks(libc) is False

    def test_every_setting_is_applied(self):
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        assert nn._keep_freed_blocks(libc) is True
        assert sorted(calls) == [(-8, 1), (-3, 1 << 30), (-1, 1 << 30)]


class TestBackwardAgainstFiniteDifferences:
    """Every layer kind's backward rule, checked coordinate by coordinate."""

    def _check(self, forward_fn, backward_fn, arrays, grad_keys):
        """forward_fn() -> output; backward via upstream grad dL/dout = G."""
        out = forward_fn()
        g_out = RNG.normal(size=out.shape)

        def loss():
            return float((forward_fn() * g_out).sum())

        analytic = backward_fn(g_out)
        for key in grad_keys:
            numeric = oracles.fd_gradient(loss, arrays[key])
            assert oracles.grad_close(analytic[key], numeric), f"gradient of {key}"

    def test_dense_backward(self):
        arrays = {"x": RNG.normal(size=(3, 6)), "w": RNG.normal(size=(6, 4)),
                  "b": RNG.normal(size=4)}

        def fwd():
            return nn.dense_forward(arrays["x"], arrays["w"], arrays["b"])

        def bwd(g):
            dw, db, dx = nn.dense_backward(arrays["x"], arrays["w"], g)
            return {"x": dx, "w": dw, "b": db}

        self._check(fwd, bwd, arrays, ("x", "w", "b"))

    @pytest.mark.parametrize("padding,w_shape", [
        (0, (4, 3, 3, 3)), (1, (4, 3, 3, 3)), (2, (4, 3, 3, 3)),
        (1, (2, 5, 3, 3)), (2, (2, 5, 3, 3)),
    ], ids=["1-0", "1-1", "1-2", "1-1-c5o2", "1-2-c5o2"])
    def test_conv2d_backward(self, padding, w_shape):
        arrays = {"x": RNG.normal(size=(2, w_shape[1], 6, 6)),
                  "w": RNG.normal(size=w_shape),
                  "b": RNG.normal(size=w_shape[0])}

        def fwd():
            return nn.conv2d_forward(arrays["x"], arrays["w"], arrays["b"],
                                     padding=padding)

        def bwd(g):
            dw, db, dx = nn.conv2d_backward(arrays["x"], arrays["w"], g,
                                            padding=padding)
            return {"x": dx, "w": dw, "b": db}

        self._check(fwd, bwd, arrays, ("x", "w", "b"))

    @pytest.mark.parametrize("padding,w_shape", [
        (0, (3, 2, 5, 5)), (2, (3, 2, 5, 5)), (0, (2, 3, 5, 5)), (2, (2, 3, 5, 5)),
    ], ids=["0", "2", "0-c2o3", "2-c2o3"])
    def test_transposed_conv2d_backward(self, padding, w_shape):
        arrays = {"x": RNG.normal(size=(2, w_shape[0], 5, 5)),
                  "w": RNG.normal(size=w_shape),
                  "b": RNG.normal(size=w_shape[1])}

        def fwd():
            return nn.transposed_conv2d_forward(arrays["x"], arrays["w"],
                                                arrays["b"], padding=padding)

        def bwd(g):
            dw, db, dx = nn.transposed_conv2d_backward(arrays["x"], arrays["w"],
                                                       g, padding=padding)
            return {"x": dx, "w": dw, "b": db}

        self._check(fwd, bwd, arrays, ("x", "w", "b"))

    def test_relu_backward(self):
        # keep values away from the kink so finite differences are valid
        x = RNG.normal(size=(4, 9))
        x[np.abs(x) < 1e-2] = 0.1
        arrays = {"x": x}

        def fwd():
            return nn.relu_forward(arrays["x"])

        def bwd(g):
            return {"x": nn.relu_backward(arrays["x"], g)}

        self._check(fwd, bwd, arrays, ("x",))

    def test_maxpool_backward_routes_to_argmax(self):
        # well-separated values keep the argmax stable under fd nudges
        x = RNG.normal(size=(2, 2, 4, 4)) * 10.0
        _, sw = nn.maxpool2x2_forward(x)
        arrays = {"x": x}

        def fwd():
            return nn.maxpool2x2_forward(arrays["x"])[0]

        def bwd(g):
            return {"x": nn.maxpool2x2_backward(g, sw)}

        self._check(fwd, bwd, arrays, ("x",))

    def test_unpool_backward_gathers_from_corners(self):
        base = RNG.normal(size=(1, 2, 6, 6)) * 10.0
        _, sw = nn.maxpool2x2_forward(base)
        arrays = {"x": RNG.normal(size=(1, 2, 3, 3))}

        def fwd():
            return nn.unpool2x2_forward(arrays["x"], sw)

        def bwd(g):
            return {"x": nn.unpool2x2_backward(g, sw)}

        self._check(fwd, bwd, arrays, ("x",))


class TestGraphForwardBackward:
    def _small_cnn(self):
        return ModelGraph(
            input_shape=(2, 8, 8),
            layers=(conv2d(2, 3, 3, padding=1), relu(), maxpool2x2(),
                    flatten(), dense(3 * 4 * 4, 6), relu(), dense(6, 4)),
        )

    def test_trace_has_one_output_per_layer(self):
        graph = self._small_cnn()
        params = nn.init_params(graph, np.random.default_rng(0))
        x = RNG.normal(size=(5, 2, 8, 8))
        trace = nn.forward(graph, params, x)
        assert len(trace.outputs) == len(graph.layers)
        assert trace.logits.shape == (5, 4)
        assert set(trace.switches) == {2}
        assert trace.switches[2].shape == (5, 3, 4, 4)

    def test_relu_after_a_layer_with_parameters_runs_in_place(self):
        graph = self._small_cnn()
        params = nn.init_params(graph, np.random.default_rng(0))
        x = RNG.normal(size=(3, 2, 8, 8))
        trace = nn.forward(graph, params, x)
        for i in (0, 4):  # conv -> relu and dense -> relu
            assert trace.outputs[i] is trace.outputs[i + 1]
        pre = nn.conv2d_forward(x, params["0.w"], params["0.b"], padding=1)
        assert (pre < 0).any()
        assert trace.outputs[1].tobytes() == nn.relu_forward(pre).tobytes()

    @pytest.mark.parametrize("layers", [
        (relu(), flatten(), dense(18, 2)),
        (flatten(), relu(), dense(18, 2)),
    ], ids=["relu-first", "relu-after-flatten"])
    def test_relu_on_the_input_leaves_it_unchanged(self, layers):
        # A relu on the input, or on flatten's view of it, must allocate.
        graph = ModelGraph((2, 3, 3), layers)
        params = nn.init_params(graph, np.random.default_rng(0))
        x = RNG.normal(size=(4, 2, 3, 3))
        before = x.copy()
        trace = nn.forward(graph, params, x)
        assert x.tobytes() == before.tobytes()
        assert trace.x is x and (trace.x < 0).any()

    def test_whole_graph_gradient_matches_finite_differences(self):
        graph = self._small_cnn()
        params = nn.init_params(graph, np.random.default_rng(1))
        x = RNG.normal(size=(2, 2, 8, 8)) * 0.5
        g_out = RNG.normal(size=(2, 4))

        def loss():
            return float((nn.forward(graph, params, x).logits * g_out).sum())

        trace = nn.forward(graph, params, x)
        grads = nn.backward(graph, params, trace, g_out)
        for key in params:
            numeric = oracles.fd_gradient(loss, params[key])
            assert oracles.grad_close(grads[key], numeric), key

    def test_first_layer_transposed_conv_gradient_matches_finite_differences(self):
        # Layer 0 yields only parameter gradients, through one branch per
        # parameterized kind; the other tests start with conv2d or dense.
        graph = ModelGraph((2, 5, 5), (transposed_conv2d(2, 3, 3, padding=1), relu(),
                                       flatten(), dense(3 * 5 * 5, 4)))
        params = nn.init_params(graph, np.random.default_rng(2))
        x = RNG.normal(size=(2, 2, 5, 5))
        g_out = RNG.normal(size=(2, 4))

        def loss():
            return float((nn.forward(graph, params, x).logits * g_out).sum())

        grads = nn.backward(graph, params, nn.forward(graph, params, x), g_out)
        for key in params:
            numeric = oracles.fd_gradient(loss, params[key])
            assert oracles.grad_close(grads[key], numeric), key

    def test_site_grad_injection_adds_to_interior_gradient(self):
        graph = ModelGraph((4,), (dense(4, 3), relu(), dense(3, 2)))
        params = nn.init_params(graph, np.random.default_rng(3))
        x = RNG.normal(size=(2, 4))
        trace = nn.forward(graph, params, x)
        g_out = np.zeros((2, 2))
        inject = RNG.normal(size=(2, 3))

        def loss():
            t = nn.forward(graph, params, x)
            return float((t.outputs[1] * inject).sum())

        grads = nn.backward(graph, params, trace, g_out, site_grads={1: inject})
        for key in params:
            numeric = oracles.fd_gradient(loss, params[key])
            assert oracles.grad_close(grads[key], numeric), key

    @pytest.mark.parametrize("layers", [
        (maxpool2x2(), unpool2x2(pool_layer=0)),
        (unpool2x2(pool_layer=1), maxpool2x2()),
    ], ids=["after_its_pool", "before_its_pool"])
    def test_graph_rejects_unpool(self, layers):
        # Unpools run only in decoder stages, which replay the model's switches.
        with pytest.raises(GraphError, match="decoder stages"):
            ModelGraph((1, 4, 4), layers)

    def test_unpool_layer_must_follow_its_pool(self):
        with pytest.raises(GraphError):
            ModelGraph((1, 4, 4), (unpool2x2(pool_layer=0), maxpool2x2()))

    def test_forward_flags_non_finite_input(self):
        graph = ModelGraph((2,), (dense(2, 2),))
        params = nn.init_params(graph, np.random.default_rng(0))
        x = np.array([[1.0, np.nan]])
        with pytest.raises(NonFiniteError):
            nn.forward(graph, params, x)

    def test_forward_logits_equals_the_trace_logits(self):
        graph = self._small_cnn()
        params = nn.init_params(graph, np.random.default_rng(0))
        x = RNG.normal(size=(5, 2, 8, 8))
        logits = nn.forward_logits(graph, params, x)
        assert logits.tobytes() == nn.forward(graph, params, x).logits.tobytes()

    def test_forward_logits_checks_every_layer(self):
        # relu maps the overflowed -inf to 0, so only layer 0's own check
        # sees it.
        graph = ModelGraph((2,), (dense(2, 2), relu(), dense(2, 2)))
        params = nn.init_params(graph, np.random.default_rng(0))
        params["0.w"][:] = -1e308
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="layer 0"):
            nn.forward_logits(graph, params, np.array([[10.0, 10.0]]))


class TestGraphValidation:
    def test_dense_after_spatial_needs_flatten(self):
        with pytest.raises(ShapeError):
            ModelGraph((2, 4, 4), (conv2d(2, 3, 3, padding=1), dense(48, 10)))

    def test_odd_spatial_dims_reject_pooling(self):
        with pytest.raises(ShapeError):
            ModelGraph((1, 5, 5), (maxpool2x2(),))

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ShapeError):
            ModelGraph((1, 2, 2), (conv2d(1, 1, 5),))

    def test_layer_spec_validates_fields(self):
        with pytest.raises(GraphError):
            dense(0, 5)
        with pytest.raises(GraphError):
            conv2d(1, 1, 0)
        with pytest.raises(GraphError):
            nn.LayerSpec("wiggle")

    @pytest.mark.parametrize("factory", [conv2d, transposed_conv2d])
    @pytest.mark.parametrize("padding", [-1, 3, 4])
    def test_conv_padding_must_lie_below_the_kernel(self, factory, padding):
        assert factory(1, 1, 3, padding=2).padding == 2
        with pytest.raises(GraphError, match="padding"):
            factory(1, 1, 3, padding=padding)

    @pytest.mark.parametrize("shape", [(), (0, 4), (3, -2)])
    def test_unflatten_needs_a_positive_shape(self, shape):
        with pytest.raises(GraphError):
            unflatten(shape)

    def test_unflatten_checks_the_element_count(self):
        assert ModelGraph((12,), (unflatten((3, 2, 2)),)).output_shape == (3, 2, 2)
        with pytest.raises(ShapeError):
            ModelGraph((12,), (unflatten((2, 5)),))


class TestParamSet:
    def test_init_is_uniform_fan_in_with_zero_biases(self):
        graph = ModelGraph((100,), (dense(100, 50), relu(), dense(50, 10)))
        params = nn.init_params(graph, np.random.default_rng(7))
        w = params["0.w"]
        bound = 1 / np.sqrt(100)
        assert w.min() >= -bound and w.max() <= bound
        # a healthy spread, not degenerate
        assert w.std() > bound / 4
        assert np.array_equal(params["0.b"], np.zeros(50))
        assert sum(v.size for v in params.values()) == 100 * 50 + 50 + 50 * 10 + 10

    def test_init_is_deterministic_per_seed(self):
        graph = ModelGraph((8,), (dense(8, 3),))
        a = nn.init_params(graph, np.random.default_rng(11))
        b = nn.init_params(graph, np.random.default_rng(11))
        c = nn.init_params(graph, np.random.default_rng(12))
        assert np.array_equal(a["0.w"], b["0.w"])
        assert not np.array_equal(a["0.w"], c["0.w"])

    def test_sgd_step_moves_against_gradient(self):
        p = {"w": np.array([1.0, 2.0])}
        g = {"w": np.array([0.5, -1.0])}
        out = nn.sgd_step(p, g, 0.1)
        assert np.allclose(out["w"], [0.95, 2.1])

    def test_sgd_step_with_zero_lr_is_identity_bitwise(self):
        p = {"w": RNG.normal(size=(3, 3))}
        g = {"w": RNG.normal(size=(3, 3))}
        out = nn.sgd_step(p, g, 0.0)
        assert np.array_equal(out["w"], p["w"])

    def test_sgd_step_does_not_mutate_inputs(self):
        w0 = np.ones(4)
        p = {"w": w0}
        g = {"w": np.ones(4)}
        nn.sgd_step(p, g, 0.5)
        assert np.array_equal(p["w"], np.ones(4))
