"""perfbench reaches into the program by name: its tracer rebinds the
(module, attribute) pairs in `TARGETS` and computes each kernel's FLOPs
from the kernel's own arguments, and its workloads build the program's
state and drive `federation.run_round` with fixed arguments.  These checks
import perfbench's modules without writing anything next to them, so a
rename or a signature change in the program fails here instead of
silently skewing the per-layer metrics or failing only the benchmark."""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from fedmatch import federation, nn
from fedmatch.nn import ModelGraph, conv2d, dense, flatten, relu, transposed_conv2d

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_target_exists(tracer):
    missing = [f"{mod.__name__}.{attr}" for mod, attr in tracer.TARGETS
               if not hasattr(mod, attr)]
    assert not missing


def test_flop_helpers_accept_their_kernels_arguments(tracer):
    for name, helper in tracer.FLOP.items():
        kernel = inspect.signature(getattr(nn, name)).parameters
        accepted = list(inspect.signature(helper).parameters)
        assert set(kernel) <= set(accepted), name
        # Required arguments arrive positionally, so their order must agree.
        required = [k for k, p in kernel.items() if p.default is p.empty]
        assert accepted[:len(required)] == required, name


def test_traced_conv_flops_follow_the_layer_shapes(tracer):
    # padding=1 passed as a fourth positional argument would reach the FLOP
    # helpers as a stride and change these counts.
    b, k, hw = 5, 3, 6 * 6
    graph = ModelGraph((2, 6, 6), (conv2d(2, 3, k, padding=1), relu(),
                                   transposed_conv2d(3, 4, k, padding=1),
                                   flatten(), dense(4 * hw, 2)))
    rng = np.random.default_rng(0)
    params = nn.init_params(graph, rng)
    t = tracer.Tracer(graph.input_shape)
    with t.installed():
        trace = nn.forward(graph, params, rng.normal(size=(b, 2, 6, 6)))
        nn.backward(graph, params, trace, np.ones((b, 2)))
    got = {s.name: round(s.gflop * 1e9) for s in t.spans if "conv" in s.name}
    # Layer 0 yields only parameter gradients, outside the traced kernel.
    assert got == {
        "nn.conv2d_forward": 2 * b * 3 * 2 * k * k * hw,
        "nn.transposed_conv2d_forward": 2 * b * 3 * 4 * k * k * hw,
        "nn.transposed_conv2d_backward": 4 * (b * 4 * hw) * 3 * k * k,
    }


# kws_wd is left out: its inputs are feature files written under perfbench's
# output directory.
@pytest.mark.parametrize("name", ["mlp_tuned_p2", "cifar_match"])
def test_workload_setup_feeds_run_round(workloads, name):
    wl = workloads.WORKLOADS[name]
    cfg = wl.make_config(1)
    state = wl.setup(cfg, wl.make_inputs(1, cfg))
    # perfbench calls run_round(server, clients, arch, decoder, cfg).
    inspect.signature(federation.run_round).bind(*state, cfg)
    server, clients, _arch, decoder = state
    assert isinstance(server, federation.ServerState)
    assert all(isinstance(c, federation.ClientState) for c in clients)
    assert decoder is not None and all(c.theta is not None for c in clients)
    assert np.isfinite(server.current_loss)
