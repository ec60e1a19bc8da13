"""Loss terms: frozen reference values, analytic gradients vs finite
differences, and how the combined objective composes its terms."""

import tracemalloc

import numpy as np
import pytest

from fedmatch import nn
from fedmatch.losses import (
    LossConfig,
    cross_entropy,
    er_loss,
    matching_backward,
    matching_loss,
    softmax,
    total_loss_and_grads,
    wd_loss,
)
from fedmatch.models import build_arch, build_matching_decoder
from fedmatch.nn import ModelGraph, ParamSet, dense

import oracles


RNG = np.random.default_rng(4242)

# arch -> (theta keys, local model keys, coordinates per key, step) probed by
# the matching-loss finite-difference tests.  mnist_mlp's stages are dense
# only; on cifar_cnn stage 2 is a transposed conv + unpool and stage 3 a
# dense + unflatten + unpool.  cifar layer 2 is a pool and has no parameters.
# A cifar conv parameter feeds thousands of relu and pool units, and a 1e-4
# step moves some of them across a kink, so cifar probes with 1e-6.
MATCHING_FD_CASES = {
    "mnist_mlp": (("1.b", "2.w", "3.w"), ("0.b", "2.b", "4.w"), 60, 1e-4),
    "cifar_cnn": (("2.w", "2.b", "3.w"), ("0.w", "3.b", "7.w"), 20, 1e-6),
}


class TestCrossEntropy:
    def test_matches_loop_reference(self):
        z = RNG.normal(size=(6, 10))
        y = RNG.integers(0, 10, size=6)
        loss, _ = cross_entropy(z, y)
        assert np.isclose(loss, oracles.cross_entropy_ref(z, y), atol=1e-12)

    def test_uniform_logits_give_log_k(self):
        z = np.zeros((4, 10))
        y = np.array([0, 3, 7, 9])
        loss, _ = cross_entropy(z, y)
        assert np.isclose(loss, np.log(10.0), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        z = RNG.normal(size=(3, 5))
        y = np.array([1, 4, 0])
        _, grad = cross_entropy(z, y)
        numeric = oracles.fd_gradient(lambda: cross_entropy(z, y)[0], z)
        assert oracles.grad_close(grad, numeric)

    def test_extreme_logits_stay_finite(self):
        z = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
        y = np.array([0, 1])
        loss, grad = cross_entropy(z, y)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_label_batch_mismatch_raises(self):
        with pytest.raises(nn.ShapeError):
            cross_entropy(np.zeros((3, 4)), np.zeros(2, dtype=int))


class TestEntropyFloor:
    def test_frozen_two_class_example(self):
        # p = (0.9, 0.1): H = -(0.9 ln 0.9 + 0.1 ln 0.1) = 0.325083...
        # hinge at floor 0.5 = 0.174917...
        p = np.array([0.9, 0.1])
        z = np.log(p)[None, :]
        assert np.allclose(softmax(z)[0], p)
        loss, _ = er_loss(z, 0.5)
        assert np.isclose(loss, 0.5 - 0.3250829733914482, atol=1e-12)
        assert np.isclose(loss, 0.1749170266085518, atol=1e-12)

    def test_matches_loop_reference(self):
        z = RNG.normal(size=(5, 10)) * 3
        loss, _ = er_loss(z, 0.5)
        assert np.isclose(loss, oracles.entropy_hinge_ref(z, 0.5), atol=1e-12)

    def test_inactive_when_entropy_above_floor(self):
        z = np.zeros((3, 10))  # uniform: H = ln 10 >> 0.5
        loss, grad = er_loss(z, 0.5)
        assert loss == 0.0
        assert not grad.any()

    def test_gradient_matches_finite_differences(self):
        # confident rows engage the hinge, diffuse rows do not
        z = np.vstack([RNG.normal(size=(3, 6)) * 4, RNG.normal(size=(2, 6)) * 0.1])
        loss, grad = er_loss(z, 0.5)
        assert loss > 0
        numeric = oracles.fd_gradient(lambda: er_loss(z, 0.5)[0], z)
        assert oracles.grad_close(grad, numeric)

    def test_entropy_is_measured_in_nats(self):
        # two-class coin flip: H = ln 2 = 0.693 nats, above a 0.5 floor
        z = np.zeros((1, 2))
        loss, _ = er_loss(z, 0.5)
        assert loss == 0.0
        # but below a 0.8-nat floor
        loss, _ = er_loss(z, 0.8)
        assert np.isclose(loss, 0.8 - np.log(2.0), atol=1e-12)


class TestWeightDivergence:
    def test_value_is_summed_squared_distance(self):
        a = ParamSet({"w": np.array([1.0, 2.0]), "b": np.array([[3.0]])})
        b = ParamSet({"w": np.array([1.5, 0.0]), "b": np.array([[5.0]])})
        loss, grads = wd_loss(a, b)
        assert np.isclose(loss, 0.25 + 4.0 + 4.0)
        assert np.allclose(grads["w"], [1.0, -4.0])
        assert np.allclose(grads["b"], [[4.0]])

    def test_zero_at_equal_params(self):
        a = ParamSet({"w": RNG.normal(size=(4, 4))})
        loss, grads = wd_loss(a, a.map(np.copy))
        assert loss == 0.0
        assert not grads["w"].any()

    def test_not_batch_averaged(self):
        # value depends only on params, no batch anywhere in sight
        a = ParamSet({"w": np.zeros(3)})
        b = ParamSet({"w": np.ones(3)})
        loss, _ = wd_loss(a, b)
        assert loss == 3.0


class TestMatchingLoss:
    def _setup(self, name="mnist_mlp", batch=3, seed=0):
        arch = build_arch(name)
        rng = np.random.default_rng(seed)
        decoder, theta = build_matching_decoder(arch, rng)
        w_round = nn.init_params(arch.graph, rng)
        w_local = w_round.map(lambda a: a + 0.01 * rng.normal(size=a.shape))
        x = rng.normal(size=(batch, *arch.graph.input_shape)) * 0.5
        return arch, decoder, theta, w_round, w_local, x

    def test_zero_when_reconstruction_is_exact(self):
        """Identity decoder on identical models gives exactly zero."""
        graph = ModelGraph((3,), (dense(3, 3),))
        arch = type("A", (), {"graph": graph, "name": "tiny", "n_classes": 3})
        from fedmatch.models import MatchStage
        stage = MatchStage(index=1, source_site=0, target_site=-1,
                           layers=(dense(3, 3),))
        w = ParamSet({"0.w": np.eye(3), "0.b": np.zeros(3)})
        theta = ParamSet({"1.w": np.eye(3), "1.b": np.zeros(3)})
        x = RNG.normal(size=(4, 3))
        trace = nn.forward(graph, w, x)
        val, _ = matching_loss(trace, trace, (stage,), theta)
        assert val == 0.0

    def test_value_is_sum_over_stages_mean_over_batch(self):
        arch, decoder, theta, w_round, w_local, x = self._setup()
        local = nn.forward(arch.graph, w_local, x)
        fixed = nn.forward(arch.graph, w_round, x)
        val, data = matching_loss(local, fixed, decoder, theta)
        by_hand = 0.0
        for stage, _, resid in data:
            by_hand += (resid ** 2).sum() / x.shape[0]
        assert np.isclose(val, by_hand, rtol=1e-12)
        assert len(data) == len(decoder)

    def test_theta_gradient_matches_finite_differences(self):
        for name, (keys, _, n, h) in MATCHING_FD_CASES.items():
            arch, decoder, theta, w_round, w_local, x = self._setup(name)
            local = nn.forward(arch.graph, w_local, x)
            fixed = nn.forward(arch.graph, w_round, x)

            def value():
                return matching_loss(local, fixed, decoder, theta)[0]

            _, data = matching_loss(local, fixed, decoder, theta)
            tgrads, _ = matching_backward(theta, data)
            pick = np.random.default_rng(1)
            for key in keys:
                idx = pick.choice(theta[key].size, size=min(n, theta[key].size),
                                  replace=False)
                numeric = oracles.fd_gradient_at(value, theta[key], idx, h=h)
                assert oracles.grad_close(tgrads[key].reshape(-1)[idx], numeric), \
                    (name, key)

    def test_site_gradients_flow_into_local_model(self):
        for name, (_, keys, n, h) in MATCHING_FD_CASES.items():
            arch, decoder, theta, w_round, w_local, x = self._setup(name)
            loss = LossConfig()
            y = np.array([0, 1, 2])
            fixed = nn.forward(arch.graph, w_round, x)

            def value():
                # The objective, forward only: CE + matching + ER.
                local = nn.forward(arch.graph, w_local, x)
                return (cross_entropy(local.logits, y)[0]
                        + matching_loss(local, fixed, decoder, theta)[0]
                        + er_loss(local.logits, loss.min_entropy)[0])

            _, w_grads, _ = total_loss_and_grads(arch.graph, x, y, w_local, w_round,
                                                 decoder, theta, loss)
            pick = np.random.default_rng(2)
            for key in keys:
                idx = pick.choice(w_local[key].size, size=min(n, w_local[key].size),
                                  replace=False)
                numeric = oracles.fd_gradient_at(value, w_local[key], idx, h=h)
                assert oracles.grad_close(w_grads[key].reshape(-1)[idx], numeric), \
                    (name, key)

    def test_decoder_needs_theta(self):
        arch, decoder, _, w_round, w_local, x = self._setup()
        with pytest.raises(ValueError, match="theta"):
            total_loss_and_grads(arch.graph, x, np.zeros(3, dtype=int),
                                 w_local, w_round, decoder, None, LossConfig())

    def test_no_decoder_means_no_matching(self):
        arch, _, _, w_round, w_local, x = self._setup()
        y = np.zeros(3, dtype=int)
        loss = LossConfig(matching_coeff=0.7)
        br, w_grads, theta_grads = total_loss_and_grads(
            arch.graph, x, y, w_local, w_round, None, None, loss)
        assert theta_grads is None
        assert br.matching == 0.0
        assert br.total == br.cross_entropy + br.er
        _, plain_grads, _ = total_loss_and_grads(
            arch.graph, x, y, w_local, w_round, None, None, LossConfig())
        assert all(np.array_equal(w_grads[k], plain_grads[k]) for k in w_grads)


class TestCombinedObjective:
    def _mlp_inputs(self, batch=4):
        arch = build_arch("mnist_mlp")
        rng = np.random.default_rng(17)
        w_round = nn.init_params(arch.graph, rng)
        w_local = w_round.map(lambda a: a + 0.02 * rng.normal(size=a.shape))
        x = rng.normal(size=(batch, 784)) * 0.3
        y = rng.integers(0, 10, size=batch)
        return arch, w_round, w_local, x, y

    def test_total_composes_terms_with_weights(self):
        arch, w_round, w_local, x, y = self._mlp_inputs()
        rng = np.random.default_rng(3)
        decoder, theta = build_matching_decoder(arch, rng)
        loss = LossConfig(matching_coeff=0.7, use_er=True, min_entropy=5.0)
        br, _, _ = total_loss_and_grads(arch.graph, x, y, w_local, w_round,
                                        decoder, theta, loss)
        assert br.er > 0  # floor of 5 nats is always active for 10 classes
        assert np.isclose(br.total,
                          br.cross_entropy + 0.7 * br.matching + br.er,
                          rtol=1e-12)

    def test_wd_variant_composes_and_matches_fd(self):
        arch, w_round, w_local, x, y = self._mlp_inputs(batch=2)
        loss = LossConfig(wd_coeff=0.1)
        br, w_grads, theta_grads = total_loss_and_grads(
            arch.graph, x, y, w_local, w_round, None, None, loss, use_wd=True)
        assert theta_grads is None
        assert np.isclose(br.total, br.cross_entropy + br.er + 0.1 * br.wd,
                          rtol=1e-12)

        def value():
            b, _, _ = total_loss_and_grads(arch.graph, x, y, w_local, w_round,
                                           None, None, loss, use_wd=True)
            return b.total

        pick = np.random.default_rng(3)
        for key in ("2.w", "4.b"):
            idx = pick.choice(w_local[key].size, size=min(60, w_local[key].size),
                              replace=False)
            numeric = oracles.fd_gradient_at(value, w_local[key], idx)
            assert oracles.grad_close(w_grads[key].reshape(-1)[idx], numeric), key

    @pytest.mark.parametrize("name,shape", [("mnist_mlp", (784,)),
                                            ("cifar_cnn", (3, 32, 32))])
    def test_wd_on_the_broadcast_params_is_skipped_without_a_byte_changed(
            self, name, shape):
        # When w_local is w_round (a client's first step) the WD term is
        # not computed; it is 0 and its gradient adds nothing.
        arch = build_arch(name)
        rng = np.random.default_rng(5)
        w_round = nn.init_params(arch.graph, rng)
        x, y = rng.normal(size=(3, *shape)), rng.integers(0, 10, size=3)
        loss = LossConfig(wd_coeff=0.1)
        (br, grads, _), (want_br, want_grads, _) = [
            total_loss_and_grads(arch.graph, x, y, w_local, w_round, None, None, loss,
                                 use_wd=True)
            for w_local in (w_round, w_round.map(np.copy))]
        assert br == want_br and br.wd == 0.0
        assert list(grads) == list(want_grads)
        for k in grads:
            assert grads[k].tobytes() == want_grads[k].tobytes(), k
        # Away from the broadcast the term runs: 0.01 on each parameter.
        moved = w_round.map(lambda a: a + 0.01)
        br, _, _ = total_loss_and_grads(arch.graph, x, y, moved, w_round, None, None,
                                        loss, use_wd=True)
        n = sum(a.size for a in w_round.values())
        assert br.wd == pytest.approx(n * 1e-4, rel=1e-6)

    def test_er_can_be_disabled(self):
        arch, w_round, w_local, x, y = self._mlp_inputs()
        br, _, _ = total_loss_and_grads(arch.graph, x, y, w_local, w_round,
                                        None, None, LossConfig(use_er=False))
        assert br.er == 0.0
        assert np.isclose(br.total, br.cross_entropy, rtol=1e-12)


def _step_peak(name, batch, use_wd):
    """tracemalloc peak of one training step: the objective and its
    gradients, then an SGD step on the model and on the decoder."""
    arch = build_arch(name)
    rng = np.random.default_rng(0)
    w_round = nn.init_params(arch.graph, rng)
    decoder, theta = (None, None) if use_wd else build_matching_decoder(arch, rng)
    w_local = w_round.map(lambda a: a + 0.01 * rng.normal(size=a.shape))
    x = rng.uniform(0.0, 1.0, size=(batch, *arch.graph.input_shape))
    y = rng.integers(0, 10, size=batch)
    tracemalloc.start()
    try:
        _, w_grads, theta_grads = total_loss_and_grads(
            arch.graph, x, y, w_local, w_round, decoder, theta, LossConfig(),
            use_wd=use_wd)
        nn.sgd_step(w_local, w_grads, 0.01)
        if theta_grads is not None:
            nn.sgd_step(theta, theta_grads, 0.01)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,use_wd,bound", [
    # Was ~312 MB: the 151 MB patch matrix of each 64 -> 64 conv's dw,
    # whole-batch padded conv inputs, relu pre-activations, and two
    # parameter-sized temporaries per tensor in WD and SGD.  ~170 MB now.
    ("kws_cnn", True, 210e6),
    # Was ~218 MB; ~156 MB now.
    ("cifar_cnn", False, 190e6),
], ids=["kws-wd", "cifar-matching"])
def test_training_step_memory_is_bounded(name, use_wd, bound):
    peak = _step_peak(name, 32, use_wd)
    assert peak < bound, f"peak {peak / 1e6:.0f} MB"
