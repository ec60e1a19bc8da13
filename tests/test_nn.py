"""Tensor core: forward rules against straight-line references, backward
rules against central finite differences, and the structural contracts
(shapes, switches, parameter bookkeeping, error paths)."""

import ctypes
import resource
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
    ParamSet,
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

    def test_conv2d_rejects_channel_mismatch(self):
        # 4 input channels against a 2-channel kernel: the sizes divide, so
        # only an explicit check catches it.
        x = RNG.normal(size=(1, 4, 5, 5))
        w = RNG.normal(size=(2, 2, 2, 2))
        with pytest.raises(ShapeError, match=r"\(1, 4, 5, 5\).*\(2, 2, 2, 2\)"):
            nn.conv2d_forward(x, w, None)

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

    def test_unpool_rejects_mismatched_switches(self):
        x = RNG.normal(size=(1, 2, 3, 3))
        sw = np.zeros((1, 2, 4, 4), dtype=np.int8)
        with pytest.raises(ShapeError):
            nn.unpool2x2_forward(x, sw)


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
    # whole trace, which leaves ~215 MB.
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
    assert peak < 260e6, f"peak {peak / 1e6:.0f} MB"


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

    @pytest.mark.parametrize("libc", [
        SimpleNamespace(),  # no mallopt, as on macOS
        SimpleNamespace(mallopt=lambda param, value: 0),  # refused
        SimpleNamespace(mallopt=lambda param, value: int(param == -3)),  # half taken
    ])
    def test_an_allocator_that_refuses_the_setting_reports_it_unapplied(self, libc):
        assert nn._keep_freed_blocks(libc) is False

    def test_both_thresholds_are_raised(self):
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        assert nn._keep_freed_blocks(libc) is True
        assert sorted(calls) == [(-3, 1 << 30), (-1, 1 << 30)]


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

    @pytest.mark.parametrize("padding", [0, 2])
    def test_transposed_conv2d_backward(self, padding):
        arrays = {"x": RNG.normal(size=(2, 3, 5, 5)),
                  "w": RNG.normal(size=(3, 2, 5, 5)),
                  "b": RNG.normal(size=2)}

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

    @pytest.mark.parametrize("key", [-1, 3, 7])
    def test_backward_rejects_site_grads_outside_the_graph(self, key):
        graph = ModelGraph((4,), (dense(4, 3), relu(), dense(3, 2)))
        params = nn.init_params(graph, np.random.default_rng(3))
        trace = nn.forward(graph, params, RNG.normal(size=(2, 4)))
        with pytest.raises(ShapeError, match=rf"\[{key}\]"):
            nn.backward(graph, params, trace, np.zeros((2, 2)),
                        site_grads={key: np.ones((2, 4))})

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

    def test_forward_rejects_wrong_input_shape(self):
        graph = ModelGraph((4,), (dense(4, 2),))
        params = nn.init_params(graph, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            nn.forward(graph, params, np.zeros((3, 5)))

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

    def test_backward_rejects_wrong_grad_shape(self):
        graph = ModelGraph((4,), (dense(4, 2),))
        params = nn.init_params(graph, np.random.default_rng(0))
        trace = nn.forward(graph, params, np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            nn.backward(graph, params, trace, np.zeros((3, 5)))


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
        assert params.n_params == 100 * 50 + 50 + 50 * 10 + 10

    def test_init_is_deterministic_per_seed(self):
        graph = ModelGraph((8,), (dense(8, 3),))
        a = nn.init_params(graph, np.random.default_rng(11))
        b = nn.init_params(graph, np.random.default_rng(11))
        c = nn.init_params(graph, np.random.default_rng(12))
        assert np.array_equal(a["0.w"], b["0.w"])
        assert not np.array_equal(a["0.w"], c["0.w"])

    def test_sgd_step_moves_against_gradient(self):
        p = ParamSet({"w": np.array([1.0, 2.0])})
        g = ParamSet({"w": np.array([0.5, -1.0])})
        out = nn.sgd_step(p, g, 0.1)
        assert np.allclose(out["w"], [0.95, 2.1])

    def test_sgd_step_with_zero_lr_is_identity_bitwise(self):
        p = ParamSet({"w": RNG.normal(size=(3, 3))})
        g = ParamSet({"w": RNG.normal(size=(3, 3))})
        out = nn.sgd_step(p, g, 0.0)
        assert np.array_equal(out["w"], p["w"])

    def test_sgd_step_does_not_mutate_inputs(self):
        w0 = np.ones(4)
        p = ParamSet({"w": w0})
        g = ParamSet({"w": np.ones(4)})
        nn.sgd_step(p, g, 0.5)
        assert np.array_equal(p["w"], np.ones(4))

    def test_structure_mismatch_raises(self):
        p = ParamSet({"a": np.zeros(3)})
        q = ParamSet({"b": np.zeros(3)})
        with pytest.raises(ShapeError):
            nn.sgd_step(p, q, 0.1)
        r = ParamSet({"a": np.zeros(4)})
        with pytest.raises(ShapeError):
            nn.sgd_step(p, r, 0.1)
