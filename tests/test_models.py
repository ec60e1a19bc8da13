"""Architectures and matching decoders: exact layer shapes, parameter
counts, site discovery, and an exhaustive wiring audit per stage."""

import numpy as np
import pytest

from fedmatch import nn
from fedmatch.models import (
    arch_for_task,
    build_arch,
    build_matching_decoder,
    match_sites,
    site_shape,
)


def _rng():
    return np.random.default_rng(99)


class TestArchitectures:
    def test_mnist_mlp_shapes_and_param_count(self):
        arch = build_arch("mnist_mlp")
        assert arch.graph.input_shape == (784,)
        assert arch.graph.layer_shapes == ((100,), (100,), (100,), (100,), (10,))
        params = nn.init_params(arch.graph, _rng())
        assert params.n_params == 89610

    def test_cifar_cnn_shapes(self):
        arch = build_arch("cifar_cnn")
        assert arch.graph.input_shape == (3, 32, 32)
        assert arch.graph.layer_shapes == (
            (32, 32, 32), (32, 32, 32), (32, 16, 16),
            (64, 16, 16), (64, 16, 16), (64, 8, 8),
            (4096,), (1024,), (1024,), (10,))

    def test_kws_cnn_shapes(self):
        arch = build_arch("kws_cnn")
        assert arch.graph.input_shape == (1, 32, 32)
        assert arch.graph.layer_shapes == (
            (64, 32, 32), (64, 32, 32), (64, 32, 32), (64, 32, 32), (64, 16, 16),
            (64, 16, 16), (64, 16, 16), (64, 16, 16), (64, 16, 16), (64, 8, 8),
            (4096,), (1024,), (1024,), (10,))

    def test_unknown_arch_rejected(self):
        with pytest.raises(nn.GraphError):
            build_arch("resnet152")

    def test_task_to_arch_mapping(self):
        assert arch_for_task("mnist") == "mnist_mlp"
        assert arch_for_task("cifar10") == "cifar_cnn"
        assert arch_for_task("kws") == "kws_cnn"
        assert arch_for_task("synthetic") == "mnist_mlp"
        with pytest.raises(ValueError):
            arch_for_task("imagenet")

    def test_forward_pass_runs_on_each_arch(self):
        for name in ("mnist_mlp", "cifar_cnn", "kws_cnn"):
            arch = build_arch(name)
            params = nn.init_params(arch.graph, _rng())
            x = np.random.default_rng(0).normal(size=(2, *arch.graph.input_shape))
            trace = nn.forward(arch.graph, params, x)
            assert trace.logits.shape == (2, 10)


class TestMatchSites:
    def test_mlp_sites(self):
        arch = build_arch("mnist_mlp")
        assert match_sites(arch.graph) == (-1, 1, 3, 4)
        assert match_sites(arch.graph, include_input=False) == (1, 3, 4)

    def test_cifar_sites(self):
        arch = build_arch("cifar_cnn")
        assert match_sites(arch.graph) == (-1, 1, 4, 8, 9)

    def test_kws_sites(self):
        arch = build_arch("kws_cnn")
        assert match_sites(arch.graph) == (-1, 1, 3, 6, 8, 12, 13)

    def test_top_site_is_raw_logits_not_relu(self):
        graph = nn.ModelGraph((4,), (nn.dense(4, 3), nn.relu()))
        with pytest.raises(nn.GraphError):
            match_sites(graph)


class TestDecoderWiring:
    """Each stage must rebuild exactly its target site's shape, with one
    learned map, reshapes where flattens sat, unpools where pools sat."""

    def _ops_summary(self, stage):
        out = []
        for spec in stage.layers:
            if spec.has_params:
                out.append(spec.kind)
            elif spec.kind == "unflatten":
                out.append("reshape")
            else:
                out.append(f"unpool@{spec.pool_layer}")
        return out

    def test_mlp_decoder_is_three_affine_stages(self):
        arch = build_arch("mnist_mlp")
        decoder, theta = build_matching_decoder(arch, _rng())
        assert [self._ops_summary(s) for s in decoder.stages] == \
            [["dense"], ["dense"], ["dense"]]
        shapes = decoder.param_shapes()
        assert shapes["1.w"] == (100, 784)
        assert shapes["2.w"] == (100, 100)
        assert shapes["3.w"] == (10, 100)
        assert theta.n_params == 100 * 784 + 784 + 100 * 100 + 100 + 10 * 100 + 100

    def test_cifar_decoder_wiring(self):
        arch = build_arch("cifar_cnn")
        decoder, _ = build_matching_decoder(arch, _rng())
        assert [self._ops_summary(s) for s in decoder.stages] == [
            ["transposed_conv2d"],
            ["transposed_conv2d", "unpool@2"],
            ["dense", "reshape", "unpool@5"],
            ["dense"],
        ]

    def test_kws_decoder_wiring(self):
        arch = build_arch("kws_cnn")
        decoder, _ = build_matching_decoder(arch, _rng())
        assert [self._ops_summary(s) for s in decoder.stages] == [
            ["transposed_conv2d"],
            ["transposed_conv2d"],
            ["transposed_conv2d", "unpool@4"],
            ["transposed_conv2d"],
            ["dense", "reshape", "unpool@9"],
            ["dense"],
        ]

    @pytest.mark.parametrize("name", ["mnist_mlp", "cifar_cnn", "kws_cnn"])
    @pytest.mark.parametrize("with_input", [True, False])
    def test_every_stage_reconstructs_its_target_shape(self, name, with_input):
        """Run the decoder for real and compare shapes site by site."""
        arch = build_arch(name)
        decoder, theta = build_matching_decoder(arch, _rng(),
                                                include_input_site=with_input)
        sites = match_sites(arch.graph, include_input=with_input)
        assert len(decoder.stages) == len(sites) - 1
        params = nn.init_params(arch.graph, _rng())
        x = np.random.default_rng(5).normal(size=(2, *arch.graph.input_shape))
        trace = nn.forward(arch.graph, params, x)
        from fedmatch.losses import _stage_forward
        for stage in decoder.stages:
            src = trace.site_output(stage.source_site)
            out, _ = _stage_forward(stage, theta, src, trace)
            want = trace.site_output(stage.target_site).shape
            assert out.shape == want, f"{name} stage {stage.index}"

    def test_stage_targets_chain_through_all_sites(self):
        arch = build_arch("cifar_cnn")
        decoder, _ = build_matching_decoder(arch, _rng())
        sites = match_sites(arch.graph)
        for k, stage in enumerate(decoder.stages):
            assert stage.target_site == sites[k]
            assert stage.source_site == sites[k + 1]

    def test_decoder_init_is_deterministic(self):
        arch = build_arch("mnist_mlp")
        _, t1 = build_matching_decoder(arch, np.random.default_rng(3))
        _, t2 = build_matching_decoder(arch, np.random.default_rng(3))
        _, t3 = build_matching_decoder(arch, np.random.default_rng(4))
        assert list(t1) == list(t2)
        assert all(np.array_equal(t1[k], t2[k]) for k in t1)
        assert not np.array_equal(t1["1.w"], t3["1.w"])

    def test_decoder_biases_start_at_zero(self):
        arch = build_arch("cifar_cnn")
        _, theta = build_matching_decoder(arch, _rng())
        for st in (1, 2, 3, 4):
            assert not theta[f"{st}.b"].any()

    def test_site_shape_helper(self):
        arch = build_arch("cifar_cnn")
        assert site_shape(arch.graph, -1) == (3, 32, 32)
        assert site_shape(arch.graph, 4) == (64, 16, 16)
