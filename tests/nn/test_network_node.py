"""The SpAc LU-Net as one autograd node, against its per-op composition.

:meth:`repro.nn.SpAcLUNet.forward` runs the whole network as a single
graph node over the raw-array kernel pairs of :mod:`repro.nn.functional`.
:func:`reference_forward` below is the same network composed op by op
from public :class:`repro.nn.Tensor` operations, with the instance norm
spelled out in primitive ops, so the generic autograd derives every
gradient independently of the node's hand-written backward.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.errors import GraphError
from repro.nn import (
    PRIOR_KINDS,
    Tensor,
    build_prior_network,
    concatenate,
    no_grad,
    stack_networks,
)
from repro.nn import functional as F
from repro.nn.batchfit import fit_batched

OUT_ATOL = 1e-12
GRAD_ATOL = 1e-10


def _instance_norm(x, norm):
    mean = x.mean(axis=(2, 3), keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=(2, 3), keepdims=True)
    normed = centered / (var + norm.eps).sqrt()
    shape = (-1, norm.num_channels, 1, 1)
    return normed * norm.weight.reshape(shape) + norm.bias.reshape(shape)


def _block(x, conv_block):
    for conv, norm, act in conv_block.stages():
        x = _instance_norm(conv(x), norm).leaky_relu(act.negative_slope)
    return x


def _crop_or_pad(x, axis, target):
    current = x.shape[axis]
    if current > target:
        index = [slice(None)] * x.ndim
        index[axis] = slice(0, target)
        return x[tuple(index)]
    if current < target:
        pad_width = [(0, 0)] * x.ndim
        pad_width[axis] = (0, target - current)
        return x.pad(pad_width)
    return x


def reference_forward(net, z):
    """The per-op U-Net composition: one graph node per primitive op."""
    skips = []
    x = z
    for encoder in net.encoders:
        x = _block(x, encoder)
        skips.append(x)
        x = F.max_pool2d(x, net.pool.kernel)
    x = _block(x, net.bottleneck)
    for decoder, skip in zip(net.decoders, reversed(skips)):
        x = F.upsample_nearest(x, net.upsample.scale)
        x = _crop_or_pad(x, 2, skip.shape[2])
        x = _crop_or_pad(x, 3, skip.shape[3])
        x = _block(concatenate([skip, x], axis=1), decoder)
    return net.head(x).sigmoid()


def _network(kind, records, seed=7, time_dilation=2):
    """A tiny float64 prior network; ``records`` = None means unstacked."""
    def build(k):
        return build_prior_network(
            kind, rng=seed + k, in_channels=3, base_channels=3, depth=2,
            n_harmonics=3, time_dilation=time_dilation, dtype=np.float64,
        )

    if records is None:
        return build(0)
    net = stack_networks([build(k) for k in range(records)])
    # Records must differ in every parameter, affine ones included.
    rng = np.random.default_rng(seed)
    for param in net.parameters():
        param.data = param.data + 0.05 * rng.standard_normal(param.shape)
    return net


def _grads(net, code, forward):
    net.zero_grad()
    code.grad = None
    out = forward(net, code)
    weights = np.linspace(-1.0, 1.0, out.size).reshape(out.shape)
    (out * weights).sum().backward()
    return out.data, code.grad, [p.grad.copy() for p in net.parameters()]


def _assert_matches_reference(net, rng):
    # Odd frequency and time extents exercise the decoder's crop and pad
    # (time pooling, and frequency pooling for the harmonic baseline).
    code = Tensor(
        rng.uniform(0.0, 0.1, size=(net.n_records, 3, 11, 13)),
        requires_grad=True,
    )
    out, code_grad, grads = _grads(net, code, lambda n, z: n(z))
    ref_out, ref_code_grad, ref_grads = _grads(net, code, reference_forward)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=OUT_ATOL)
    np.testing.assert_allclose(code_grad, ref_code_grad, rtol=0, atol=GRAD_ATOL)
    names = [name for name, _ in net.named_parameters()]
    for name, grad, ref in zip(names, grads, ref_grads):
        assert grad.shape == ref.shape, name
        np.testing.assert_allclose(
            grad, ref, rtol=0, atol=GRAD_ATOL, err_msg=name
        )


class TestMatchesPerOpComposition:
    @pytest.mark.parametrize("records", [2, None])
    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    def test_outputs_and_every_gradient(self, rng, kind, records):
        _assert_matches_reference(_network(kind, records), rng)

    @pytest.mark.parametrize("dilation", [7, 13])
    def test_dilation_wider_than_the_deep_levels(self, rng, dilation):
        # The 3- and 6-frame levels see taps shifted past both ends.
        net = _network("spac_dilated", 2, time_dilation=dilation)
        _assert_matches_reference(net, rng)


def _graph_nodes(root):
    """Every non-leaf tensor reachable from ``root``."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen or node._ctx is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._ctx.parents)
    return nodes


class TestGraphShape:
    def test_output_node_parents_are_code_and_every_parameter(self, rng):
        net = _network("spac_dilated", 2)
        code = Tensor(rng.uniform(0, 0.1, size=(2, 3, 11, 13)),
                      requires_grad=True)
        out = net(code)
        parents = out._ctx.parents
        assert parents[0] is code
        assert list(parents[1:]) == net.parameters()

    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    def test_fit_iteration_loss_graph_is_small(self, rng, kind):
        # One iteration of the fit loop's loss, exactly as fit_batched
        # builds it: the network is one node, the loss a handful more.
        net = _network(kind, 2)
        code = rng.uniform(0, 0.1, size=(2, 3, 11, 13))
        target = rng.uniform(0, 1, size=(2, 1, 11, 13))
        mask = (rng.random((2, 1, 11, 13)) < 0.7).astype(np.float64)
        inv_counts = 1.0 / mask.reshape(2, -1).sum(axis=1)
        prediction = net(Tensor(code))
        diff = prediction - target
        per_record = (diff * diff * mask).sum(axis=(1, 2, 3))
        total = (per_record * inv_counts).sum()
        assert len(_graph_nodes(total)) <= 10

    def test_saved_activations_are_released_by_backward(self, rng):
        net = _network("spac", 1)
        out = net(Tensor(rng.uniform(0, 0.1, size=(1, 3, 11, 13))))
        out.sum().backward()
        with pytest.raises(GraphError, match="already backpropagated"):
            out.sum().backward()

    def test_fit_skips_the_code_gradient(self, rng):
        net = _network("spac", 1)
        code = Tensor(rng.uniform(0, 0.1, size=(1, 3, 11, 13)))
        net(code).sum().backward()
        assert code.grad is None
        assert all(p.grad is not None for p in net.parameters())


def _idle_arrays(net):
    """The arrays of the network's idle saved-activation set."""
    return [a for slot in net._idle["saved"] for a in slot.values()]


class TestSavedActivationOwnership:
    def test_two_live_forwards_keep_separate_activations(self, rng):
        # Both nodes hold their tapes at once, so neither may write into
        # the other's saved arrays, even with an idle set on offer.
        net = _network("spac_dilated", 2)
        codes = [
            Tensor(rng.uniform(0, 0.1, size=(2, 3, 11, 13)),
                   requires_grad=True)
            for _ in range(2)
        ]
        net(codes[0]).sum().backward()

        def both(forward):
            net.zero_grad()
            for code in codes:
                code.grad = None
            outs = [forward(net, code) for code in codes]
            loss = sum(
                (out * np.linspace(-1.0, k + 1.0, out.size).reshape(out.shape))
                .sum() for k, out in enumerate(outs)
            )
            loss.backward()
            return ([out.data for out in outs], [c.grad for c in codes],
                    [p.grad.copy() for p in net.parameters()])

        outs, code_grads, grads = both(lambda n, z: n(z))
        ref_outs, ref_code_grads, ref_grads = both(reference_forward)
        for got, ref in zip(outs, ref_outs):
            np.testing.assert_allclose(got, ref, rtol=0, atol=OUT_ATOL)
        for got, ref in zip(code_grads + grads, ref_code_grads + ref_grads):
            np.testing.assert_allclose(got, ref, rtol=0, atol=GRAD_ATOL)

    def test_output_survives_the_next_forward(self, rng):
        net = _network("spac", 2)
        code = rng.uniform(0, 0.1, size=(2, 3, 11, 13))
        first = net(Tensor(code))
        kept = first.data.copy()
        first.sum().backward()
        net(Tensor(code[::-1].copy())).sum().backward()
        np.testing.assert_array_equal(first.data, kept)

    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    def test_steady_state_iterations_reuse_saved_arrays(self, rng, kind):
        net = _network(kind, 2)
        code = Tensor(rng.uniform(0, 0.1, size=(2, 3, 11, 13)))
        net(code).sum().backward()
        first = _idle_arrays(net)
        net(code).sum().backward()
        second = _idle_arrays(net)
        assert first and len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))

    def test_buffers_are_not_state(self, rng):
        net = _network("spac", 2)
        net(Tensor(rng.uniform(0, 0.1, size=(2, 3, 11, 13)))).sum().backward()
        assert _idle_arrays(net)
        assert set(net.state_dict()) == {n for n, _ in net.named_parameters()}
        assert copy.deepcopy(net)._idle == {}
        assert pickle.loads(pickle.dumps(net))._idle == {}
        net.compact([1])
        assert net._idle == {}


class TestNoGrad:
    def test_no_grad_forward_leaves_no_context(self, rng):
        net = _network("spac", 2)
        code = Tensor(rng.uniform(0, 0.1, size=(2, 3, 11, 13)),
                      requires_grad=True)
        with no_grad():
            out = net(code)
        assert out._ctx is None and not out.requires_grad
        np.testing.assert_array_equal(out.data, net(code).data)

    def test_nothing_requiring_grad_leaves_no_context(self, rng):
        net = _network("harmonic_baseline", None)
        for param in net.parameters():
            param.requires_grad = False
        out = net(Tensor(rng.uniform(0, 0.1, size=(1, 3, 11, 13))))
        assert out._ctx is None


class TestFitUnchangedInShape:
    def test_fit_batched_runs_every_kind(self, rng):
        for kind in PRIOR_KINDS:
            net = _network(kind, 2)
            code = rng.uniform(0, 0.1, size=(2, 3, 11, 13))
            target = rng.uniform(0.2, 0.8, size=(2, 1, 11, 13))
            mask = np.ones_like(target)
            fit = fit_batched(net, code, target, mask, iterations=5,
                              learning_rate=1e-2)
            assert all(curve[-1] < curve[0] for curve in fit.losses), kind
