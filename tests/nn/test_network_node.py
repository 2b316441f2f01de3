"""The SpAc LU-Net as one graph node, run through its plan.

:meth:`repro.nn.SpAcLUNet.__call__` runs the whole network as a single
node: the forward and backward call lists its plan built from the kernel
builders of :mod:`repro.nn.functional`.  Its gradients are checked
against float64 central differences of the network along a random
direction in the code and in each parameter array, which share no code
with any adjoint; its output against an independent composition of the
forward kernels; a replayed plan against a freshly built one.
"""

import copy
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.inpainting import (
    PRIOR_KINDS,
    InpaintingConfig,
    config_for_prior_kind,
)
from repro.errors import GraphError
from repro.nn import Adam, SpAcLUNet, Tensor, masked_mse_loss, stack_networks
from repro.nn import functional as F
from repro.nn import unet
from repro.nn.batchfit import fit_batched
from repro.nn.layers import HarmonicConv2d

#: Code extent: odd frequency and time extents exercise the decoder's
#: crop and pad (time pooling, and frequency pooling for the harmonic
#: baseline); the 13-frame axis pools to 6 and 3 frames.
CODE_SHAPE = (3, 11, 13)


def _network(kind, records, seed=7, time_dilation=2, dtype=np.float64):
    """A tiny prior network; ``records`` = None means unstacked."""
    config = config_for_prior_kind(kind, InpaintingConfig(
        in_channels=3, base_channels=3, depth=2, n_harmonics=3,
        time_dilation=time_dilation,
    )).network_config()

    def build(k):
        return SpAcLUNet(config, rng=seed + k, dtype=dtype)

    if records is None:
        return build(0)
    net = stack_networks([build(k) for k in range(records)])
    # Records must differ in every parameter, affine ones included.
    rng = np.random.default_rng(seed)
    for param in net.parameters():
        param.data = (param.data + 0.05 * rng.standard_normal(
            param.data.shape)).astype(dtype)
    return net


def _code(net, rng, requires_grad=False):
    return Tensor(rng.uniform(0.0, 0.1, size=(net.n_records, *CODE_SHAPE)),
                  requires_grad=requires_grad)


# --------------------------------------------------------------------- #
# Gradients: directional central differences
# --------------------------------------------------------------------- #
#: Every prior kind, stacked and unstacked, at time dilation 7 (which
#: only the dilated kind uses: its taps leave the 6- and 3-frame levels
#: at both ends); the dilated kind also at 2 (every tap inside) and 13
#: (no side tap inside at any level).
NODE_CASES = [
    (kind, records, 7) for kind in PRIOR_KINDS for records in (2, None)
] + [
    ("spac_dilated", records, dilation)
    for records in (2, None) for dilation in (2, 13)
]


@pytest.mark.parametrize("kind,records,dilation", NODE_CASES)
def test_every_gradient_matches_directional_differences(
        rng, kind, records, dilation):
    net = _network(kind, records, time_dilation=dilation)
    code = _code(net, rng, requires_grad=True)
    out = net(code)
    probe = rng.standard_normal(out.data.shape)
    out.backward(probe)

    def objective():
        return float((net(code.data).data * probe).sum())

    eps = 1e-6
    for name, leaf in [("code", code), *net.named_parameters()]:
        assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape
        direction = rng.standard_normal(leaf.data.shape)
        # A unit step keeps eps-sized perturbations from crossing the
        # ReLU and max-pool kinks.
        direction /= np.linalg.norm(direction)
        base = leaf.data
        leaf.data = base + eps * direction
        f_plus = objective()
        leaf.data = base - eps * direction
        f_minus = objective()
        leaf.data = base
        np.testing.assert_allclose(
            float((leaf.grad * direction).sum()),
            (f_plus - f_minus) / (2 * eps),
            rtol=1e-5, atol=1e-7, err_msg=name,
        )


# --------------------------------------------------------------------- #
# Output: an independent composition of the forward kernels
# --------------------------------------------------------------------- #
def _forward(built):
    """The output of one run of a freshly built operator's forward."""
    out, calls, _ = built
    F.run(calls)
    return out


def _reference_block(x, block):
    for conv, norm, act in block.stages():
        w, b = F.record_kernels(conv.weight.data, conv.bias.data)
        if isinstance(conv, HarmonicConv2d):
            x = _forward(F.harmonic_conv2d(
                x, w, b, F.Workspace(), conv.anchor, conv.time_dilation,
            ))
        else:
            x = _forward(F.conv2d(x, w, b, F.Workspace(), conv.padding))
        x = _forward(F.instance_norm(
            x, norm.weight.data, norm.bias.data, norm.eps,
            act.negative_slope, F.Workspace(),
        ))
    return x


def _fit_to(x, size):
    """Crop or zero-pad the two spatial axes to ``size``."""
    out = np.zeros(x.shape[:2] + size)
    h, w = min(size[0], x.shape[2]), min(size[1], x.shape[3])
    out[:, :, :h, :w] = x[:, :, :h, :w]
    return out


def reference_forward(net, code):
    """The U-Net of Fig. 2, layer by layer, outside the network's node."""
    skips = []
    x = code
    for encoder in net.encoders:
        x = _reference_block(x, encoder)
        skips.append(x)
        x = _forward(F.max_pool2d(x, net.pool_kernel, F.Workspace()))
    x = _reference_block(x, net.bottleneck)
    for decoder, skip in zip(net.decoders, reversed(skips)):
        x = _fit_to(
            _forward(F.upsample_nearest(x, net.pool_kernel, F.Workspace())),
            skip.shape[2:],
        )
        x = _reference_block(np.concatenate([skip, x], axis=1), decoder)
    w, b = F.record_kernels(net.head.weight.data, net.head.bias.data)
    x = _forward(F.conv2d(x, w, b, F.Workspace(), net.head.padding))
    return 1.0 / (1.0 + np.exp(-x))


@pytest.mark.parametrize("records", [2, None])
@pytest.mark.parametrize("kind", PRIOR_KINDS)
def test_output_matches_an_independent_composition(rng, kind, records):
    net = _network(kind, records)
    code = _code(net, rng).data
    np.testing.assert_allclose(
        net(code).data, reference_forward(net, code), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("records", [2, None])
@pytest.mark.parametrize("dilation", [7, 13])
def test_output_at_dilations_wider_than_the_deep_levels(
        rng, dilation, records):
    # The 3- and 6-frame levels see side taps shifted past both ends.
    net = _network("spac_dilated", records, time_dilation=dilation)
    code = _code(net, rng).data
    np.testing.assert_allclose(
        net(code).data, reference_forward(net, code), rtol=0, atol=1e-12
    )


# --------------------------------------------------------------------- #
# The node
# --------------------------------------------------------------------- #
class TestGraphShape:
    def test_parents_are_the_code_and_every_parameter(self, rng):
        net = _network("spac_dilated", 2)
        code = _code(net, rng, requires_grad=True)
        parents, _ = net(code)._ctx
        assert parents[0] is code
        assert list(parents[1:]) == net.parameters()
        assert all(parent._ctx is None for parent in parents)

    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    def test_fit_iteration_graph_is_the_network_node(
            self, rng, kind, monkeypatch):
        # fit_batched takes the Eq. 9 gradient on raw arrays, so the one
        # node it backpropagates through is the network's output.
        backpropagated = []
        original = Tensor.backward

        def recorded(node, grad):
            backpropagated.append(node._ctx[0])
            return original(node, grad)

        monkeypatch.setattr(Tensor, "backward", recorded)
        net = _network(kind, 2)
        target = rng.uniform(0.2, 0.8, size=(2, 1, 11, 13))
        fit_batched(net, rng.uniform(0, 0.1, size=(2, *CODE_SHAPE)), target,
                    np.ones_like(target), iterations=1, learning_rate=1e-2)
        assert len(backpropagated) == 1
        parents = backpropagated[0]
        assert list(parents[1:]) == net.parameters()
        assert all(parent._ctx is None for parent in parents)

    def test_saved_activations_are_released_by_backward(self, rng):
        net = _network("spac", None)
        out = net(_code(net, rng))
        out.backward(np.ones_like(out.data))
        with pytest.raises(GraphError, match="already backpropagated"):
            out.backward(np.ones_like(out.data))

    def test_fit_skips_the_code_gradient(self, rng):
        net = _network("spac", None)
        code = _code(net, rng)
        out = net(code)
        out.backward(np.ones_like(out.data))
        assert code.grad is None
        assert all(p.grad is not None for p in net.parameters())

    def test_nothing_requiring_grad_leaves_no_context(self, rng):
        net = _network("harmonic_baseline", None)
        for param in net.parameters():
            param.requires_grad = False
        out = net(_code(net, rng))
        assert out._ctx is None and not out.requires_grad
        with pytest.raises(GraphError):
            out.backward(np.ones_like(out.data))


def _run(net, code, probe):
    """One forward and backward; returns the output and every gradient."""
    out = net(code)
    out.backward(probe)
    return out.data, [p.grad for p in net.parameters()]


class TestSavedActivationOwnership:
    def test_two_live_forwards_keep_separate_activations(self, rng):
        # Both nodes hold their tapes at once, so neither may write into
        # the other's saved arrays, even with an idle set on offer.
        net = _network("spac_dilated", 2)
        codes = [_code(net, rng).data for _ in range(2)]
        probes = [rng.standard_normal((2, 1, 11, 13)) for _ in range(2)]
        expected = [_run(copy.deepcopy(net), c, p)
                    for c, p in zip(codes, probes)]
        _run(net, codes[0], probes[0])  # leaves an idle set
        outs = [net(code) for code in codes]
        for out, probe, (ref_out, ref_grads) in zip(outs, probes, expected):
            for param in net.parameters():
                param.grad = None
            out.backward(probe)
            np.testing.assert_array_equal(out.data, ref_out)
            for grad, ref in zip([p.grad for p in net.parameters()],
                                 ref_grads):
                np.testing.assert_array_equal(grad, ref)

    def test_output_survives_the_next_forward(self, rng):
        net = _network("spac", 2)
        code = _code(net, rng).data
        first = net(code)
        kept = first.data.copy()
        first.backward(np.ones_like(kept))
        second = net(code[::-1].copy())
        second.backward(np.ones_like(kept))
        np.testing.assert_array_equal(first.data, kept)

    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    def test_steady_state_iterations_reuse_saved_arrays(self, rng, kind):
        # The second iteration replays the first one's plan: the same
        # saved arrays, the same bound calls.
        net = _network(kind, 2)
        code = _code(net, rng).data
        probe = np.ones((2, 1, 11, 13))
        _run(net, code, probe)
        plan = net._idle["plan"]
        calls = plan.forward_calls + plan.backward_calls
        _run(net, code, probe)
        assert net._idle["plan"] is plan
        assert calls and len(calls) == len(
            plan.forward_calls + plan.backward_calls)
        assert all(a is b for a, b in zip(
            calls, plan.forward_calls + plan.backward_calls))

    def test_buffers_are_not_state(self, rng):
        net = _network("spac", 2)
        names = [name for name, _ in net.named_parameters()]
        _run(net, _code(net, rng).data, np.ones((2, 1, 11, 13)))
        assert "plan" in net._idle
        assert [name for name, _ in net.named_parameters()] == names
        assert copy.deepcopy(net)._idle == {}
        assert pickle.loads(pickle.dumps(net))._idle == {}


class TestWorkspaceOwnership:
    """The kernels' workspace travels with the plan that views it."""

    def test_backward_hands_the_workspace_back_for_reuse(self, rng):
        net = _network("spac_dilated", 2)
        code = _code(net, rng).data
        probe = np.ones((2, 1, 11, 13))
        _run(net, code, probe)
        plan = net._idle["plan"]
        assert isinstance(plan.scratch, F.Workspace)
        live = net(code)
        assert "plan" not in net._idle  # the live node owns it
        other = net(code)               # so a second node builds its own
        other.backward(probe)
        assert net._idle["plan"] is not plan
        assert net._idle["plan"].scratch is not plan.scratch
        live.backward(probe)
        assert net._idle["plan"] is plan

    def test_a_forward_never_backpropagated_changes_nothing(self, rng):
        net = _network("spac_dilated", 2)
        code = _code(net, rng).data
        probes = [rng.standard_normal((2, 1, 11, 13)) for _ in range(2)]
        expected = [_run(copy.deepcopy(net), code, p) for p in probes]
        for probe, (ref_out, ref_grads) in zip(probes, expected):
            abandoned = net(code[::-1].copy())  # holds a set, never freed
            for param in net.parameters():
                param.grad = None
            out, grads = _run(net, code, probe)
            np.testing.assert_array_equal(out, ref_out)
            for grad, ref in zip(grads, ref_grads):
                np.testing.assert_array_equal(grad, ref)
            del abandoned

    @pytest.mark.parametrize("kind", ["spac_dilated", "conventional"])
    def test_two_threads_fitting_two_networks_match_serial_fits(
            self, rng, kind):
        nets = [_network(kind, 2, seed=seed) for seed in (3, 4)]
        codes = [_code(net, rng).data for net in nets]
        target = rng.uniform(0.2, 0.8, size=(2, 1, 11, 13))
        mask = (rng.random(target.shape) < 0.7).astype(np.float64)

        def fit(net, code):
            return fit_batched(net, code, target, mask, iterations=6,
                               learning_rate=1e-2)

        serial = [fit(copy.deepcopy(net), code)
                  for net, code in zip(nets, codes)]
        results = [None, None]
        barrier = threading.Barrier(2)

        def worker(k):
            barrier.wait()
            results[k] = fit(nets[k], codes[k])

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for ours, ref in zip(results, serial):
            np.testing.assert_array_equal(ours.outputs, ref.outputs)
            for curve, ref_curve in zip(ours.losses, ref.losses):
                np.testing.assert_array_equal(curve, ref_curve)


# --------------------------------------------------------------------- #
# The plan: replayed, never rebuilt within a fit, rebuilt on a rebind
# --------------------------------------------------------------------- #
def _iterate(net, adam, code, target, mask):
    """One fit iteration; returns the output and every gradient."""
    adam.zero_grad()
    out = net(code)
    _, grad = masked_mse_loss(out.data, target, mask)
    out.backward(grad)
    grads = [p.grad for p in net.parameters()]
    adam.step()
    return out.data, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("records", [2, None])
@pytest.mark.parametrize("kind", PRIOR_KINDS)
def test_replayed_iterations_equal_freshly_built_ones(
        rng, kind, records, dtype):
    replayed, fresh = (_network(kind, records, dtype=dtype) for _ in range(2))
    n = replayed.n_records
    code = rng.uniform(0.0, 0.1, size=(n, *CODE_SHAPE)).astype(dtype)
    target = rng.uniform(0.2, 0.8, size=(n, 1, 11, 13)).astype(dtype)
    mask = (rng.random(target.shape) < 0.7).astype(dtype)
    adams = [Adam(net.parameters(), lr=1e-2) for net in (replayed, fresh)]
    for _ in range(4):
        fresh._idle.clear()  # drop the plan: the next call builds anew
        ours = _iterate(replayed, adams[0], code, target, mask)
        ref = _iterate(fresh, adams[1], code, target, mask)
        assert ours[0].dtype == dtype
        np.testing.assert_array_equal(ours[0], ref[0])
        for grad, ref_grad in zip(ours[1], ref[1]):
            assert grad.dtype == dtype
            np.testing.assert_array_equal(grad, ref_grad)


@pytest.mark.parametrize("kind", PRIOR_KINDS)
def test_a_fit_builds_its_plan_once(rng, kind, monkeypatch):
    builds = []
    build = unet._build_plan

    def build_once(*args):
        if builds:
            raise AssertionError("a fit iteration built a second plan")
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(unet, "_build_plan", build_once)
    net = _network(kind, 2)
    target = rng.uniform(0.2, 0.8, size=(2, 1, 11, 13))
    fit = fit_batched(net, rng.uniform(0, 0.1, size=(2, *CODE_SHAPE)), target,
                      np.ones_like(target), iterations=5, learning_rate=1e-2)
    assert len(builds) == 1
    assert [curve.size for curve in fit.losses] == [5, 5]


def _rebind(net, trigger, code, probe, rng):
    """Apply ``trigger`` to a network whose idle plan is built; returns
    the code and probe of the next call."""
    if trigger == "assign":
        param = net.parameters()[5]
        param.data = param.data + 0.01
    elif trigger == "adam":
        # Adam re-points every ``data`` at its state, then moves them.
        Adam(net.parameters(), lr=0.05).step()
    elif trigger == "shape":
        code = rng.uniform(0.0, 0.1, size=code.shape[:3] + (9,))
        probe = rng.standard_normal(probe.shape[:3] + (9,))
    else:  # "code_grad": the code's gradient is wanted from now on
        code = Tensor(code, requires_grad=True)
    return code, probe


@pytest.mark.parametrize(
    "trigger", ["assign", "adam", "shape", "code_grad"]
)
def test_each_rebind_trigger_gives_a_fresh_networks_result(rng, trigger):
    net = _network("spac_dilated", 2)
    code = _code(net, rng).data
    probe = rng.standard_normal((2, 1, 11, 13))
    _run(net, code, probe)  # builds the plan that the trigger outdates
    plan = net._idle["plan"]
    code, probe = _rebind(net, trigger, code, probe, rng)
    fresh = copy.deepcopy(net)  # copies carry no plan
    assert fresh._idle == {}
    fresh_code = copy.deepcopy(code)
    ours, ref = _run(net, code, probe), _run(fresh, fresh_code, probe)
    assert net._idle["plan"] is not plan
    np.testing.assert_array_equal(ours[0], ref[0])
    for grad, ref_grad in zip(ours[1], ref[1]):
        np.testing.assert_array_equal(grad, ref_grad)
    if trigger == "code_grad":
        assert code.grad is not None
        np.testing.assert_array_equal(code.grad, fresh_code.grad)


@pytest.mark.parametrize("kind", PRIOR_KINDS)
def test_plan_views_only_current_workspace_buffers(rng, kind):
    # Every role is sized before any view is taken, so no bound call
    # reads or writes a buffer that a larger request superseded.
    net = _network(kind, 2)
    _run(net, _code(net, rng).data, np.ones((2, 1, 11, 13)))
    plan = net._idle["plan"]
    current = list(plan.scratch._buffers.values())
    views = 0
    for call in plan.forward_calls + plan.backward_calls:
        operands = [*call.args, *call.keywords.values(),
                    getattr(call.func, "__self__", None)]
        for array in operands:
            if not isinstance(array, np.ndarray) or array.base is None \
                    or array.base.ndim != 1 \
                    or any(array.base is p for p in plan.bound):
                continue
            views += 1
            assert any(array.base is buffer for buffer in current)
    assert views


@pytest.mark.parametrize("kind,records,dilation", NODE_CASES)
def test_plan_calls_touch_no_zero_size_array(rng, kind, records, dilation):
    # A view that holds nothing (the harmonic convolution's shift-0 tap
    # edge, the crop of an upsample that fits its skip exactly) gets no
    # call at all.
    net = _network(kind, records, time_dilation=dilation)
    _run(net, _code(net, rng).data,
         np.ones((net.n_records, 1, *CODE_SHAPE[1:])))
    plan = net._idle["plan"]
    for call in plan.forward_calls + plan.backward_calls:
        operands = [*call.args, *call.keywords.values(),
                    getattr(call.func, "__self__", None)]
        assert all(array.size for array in operands
                   if isinstance(array, np.ndarray)), call


def test_steady_state_iterations_allocate_no_activations():
    # After the first iteration a fit's transient memory is its small
    # per-call arrays (output, loss gradient, parameter gradients), not
    # activation-sized buffers: at the smoke preset's 33 x 98 geometry
    # an iteration replayed from the plan peaks at ~0.05-0.12 MiB above
    # its start, where allocating each layer's output afresh peaked at
    # ~0.4 MiB and every transient too at ~1.6 MiB.
    config = InpaintingConfig(base_channels=6, depth=2,
                              time_dilation=5).network_config()
    net = SpAcLUNet(config, rng=0)
    rng = np.random.default_rng(0)
    code = rng.uniform(0, 0.1, size=(1, 8, 33, 98)).astype(np.float32)
    target = rng.uniform(0, 1, size=(1, 1, 33, 98)).astype(np.float32)
    mask = (rng.random(target.shape) < 0.7).astype(np.float32)
    adam = Adam(net.parameters(), lr=8e-3)

    def iteration():
        adam.zero_grad()
        prediction = net(code)
        _, grad = masked_mse_loss(prediction.data, target, mask)
        prediction.backward(grad)
        adam.step()

    iteration()
    tracemalloc.start()
    try:
        for _ in range(3):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            iteration()
            peak = tracemalloc.get_traced_memory()[1] - start
            assert peak < 0.25 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"
    finally:
        tracemalloc.stop()


def test_fit_batched_runs_every_kind(rng):
    for kind in PRIOR_KINDS:
        net = _network(kind, 2)
        code = rng.uniform(0, 0.1, size=(2, *CODE_SHAPE))
        target = rng.uniform(0.2, 0.8, size=(2, 1, 11, 13))
        mask = np.ones_like(target)
        fit = fit_batched(net, code, target, mask, iterations=5,
                          learning_rate=1e-2)
        assert all(curve[-1] < curve[0] for curve in fit.losses), kind
