"""Gradcheck sweep: every layer module against central finite differences.

`tests/nn/test_functional.py` checks the raw operators; this sweep drives
the *layer* wrappers of :mod:`repro.nn.layers` — parameter registration,
bias handling, shape plumbing — at odd/small shapes, plus the four
Fig. 3 prior-network variants end to end on a tiny spectrogram.  All
checks run in float64 (required by the numerical differentiator).
"""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    Conv2d,
    Dropout,
    HarmonicConv2d,
    InstanceNorm2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    PRIOR_KINDS,
    ReLU,
    Sigmoid,
    Tanh,
    Tensor,
    UpsampleNearest,
    build_prior_network,
    check_gradients,
)
from repro.nn.module import Parameter

#: Odd, deliberately awkward spatial extent shared by the sweep.
ODD_SHAPE = (1, 2, 7, 9)


def _layer_check(layer, x_data, params=None):
    """Gradcheck a layer w.r.t. its input and (by default) every parameter."""
    x = Tensor(np.asarray(x_data, dtype=np.float64), requires_grad=True)
    if params is None:
        params = layer.parameters()
    ok, worst = check_gradients(lambda: layer(x).sum(), [x, *params])
    assert ok, f"{layer!r}: worst gradient error {worst:.3e}"


@pytest.fixture
def odd_input(rng):
    # Keep values away from 0 so ReLU-kink subgradients cannot trip the
    # finite-difference comparison.
    data = rng.uniform(0.25, 1.0, size=ODD_SHAPE)
    return data * np.where(rng.random(ODD_SHAPE) < 0.5, -1.0, 1.0)


class TestConvLayers:
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_conv2d(self, odd_input, padding):
        layer = Conv2d(2, 3, kernel_size=3, padding=padding, rng=0,
                       dtype=np.float64)
        _layer_check(layer, odd_input)

    def test_conv2d_no_bias(self, odd_input):
        layer = Conv2d(2, 2, kernel_size=1, bias=False, rng=1,
                       dtype=np.float64)
        _layer_check(layer, odd_input)

    @pytest.mark.parametrize("anchor", [1, 2, 3])
    @pytest.mark.parametrize("dilation", [1, 2, 5])
    def test_harmonic_conv2d(self, odd_input, anchor, dilation):
        layer = HarmonicConv2d(
            2, 3, n_harmonics=3, kernel_time=3, anchor=anchor,
            time_dilation=dilation, rng=2, dtype=np.float64,
        )
        _layer_check(layer, odd_input)

    def test_harmonic_conv2d_single_tap(self, odd_input):
        layer = HarmonicConv2d(2, 2, n_harmonics=1, kernel_time=1,
                               rng=3, dtype=np.float64)
        _layer_check(layer, odd_input)


class TestNormAndActivations:
    @pytest.mark.parametrize("affine", [True, False])
    def test_instance_norm(self, odd_input, affine):
        layer = InstanceNorm2d(2, affine=affine, dtype=np.float64)
        _layer_check(layer, odd_input)

    def test_instance_norm_stacked_affine(self, rng, odd_input):
        # A record-stacked layer: one (scale, shift) pair per record.
        layer = InstanceNorm2d(2, dtype=np.float64)
        layer.weight = Parameter(1.0 + 0.1 * rng.standard_normal((3, 2)))
        layer.bias = Parameter(0.1 * rng.standard_normal((3, 2)))
        records = np.concatenate([odd_input, 2.0 * odd_input, -odd_input[:, ::-1]])
        _layer_check(layer, records)

    @pytest.mark.parametrize("layer", [
        LeakyReLU(0.1), ReLU(), Sigmoid(), Tanh(),
    ])
    def test_elementwise(self, odd_input, layer):
        _layer_check(layer, odd_input)

    def test_dropout_eval_is_identity(self, odd_input):
        layer = Dropout(0.5, rng=0)
        layer.eval()
        _layer_check(layer, odd_input)


class TestResampling:
    @pytest.mark.parametrize("kernel", [(1, 2), (2, 2), (2, 3)])
    def test_avg_pool(self, odd_input, kernel):
        _layer_check(AvgPool2d(kernel), odd_input)

    @pytest.mark.parametrize("kernel", [(1, 2), (2, 2)])
    def test_max_pool(self, rng, kernel):
        # Distinct values so the argmax (and hence the subgradient) is
        # unambiguous under the finite-difference perturbation.
        data = rng.permutation(np.arange(np.prod(ODD_SHAPE), dtype=np.float64))
        _layer_check(MaxPool2d(kernel), data.reshape(ODD_SHAPE) / data.size)

    @pytest.mark.parametrize("scale", [(1, 2), (2, 3)])
    def test_upsample_nearest(self, odd_input, scale):
        _layer_check(UpsampleNearest(scale), odd_input)


class TestLinear:
    def test_linear(self, rng):
        layer = Linear(5, 3, rng=4, dtype=np.float64)
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        ok, worst = check_gradients(
            lambda: layer(x).sum(), [x, *layer.parameters()]
        )
        assert ok, f"Linear: worst gradient error {worst:.3e}"


class TestPriorNetworksEndToEnd:
    """The four Fig. 3 U-Net variants, gradchecked on a tiny spectrogram.

    Checking every scalar parameter of a full U-Net is quadratically
    expensive, so each variant is checked w.r.t. the input code plus a
    representative parameter from each stage family: the first encoder
    convolution, one instance-norm affine pair, and the output head.
    """

    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    def test_variant(self, rng, kind):
        net = build_prior_network(
            kind, rng=5, in_channels=2, base_channels=2, depth=2,
            n_harmonics=2, time_dilation=3, dtype=np.float64,
        )
        named = dict(net.named_parameters())
        picks = [
            named["encoders.0.body.0.weight"],
            named["encoders.0.body.1.weight"],
            named["encoders.0.body.1.bias"],
            named["head.weight"],
            named["head.bias"],
        ]
        code = Tensor(
            rng.uniform(0.0, 0.1, size=(1, 2, 9, 8)), requires_grad=True
        )
        ok, worst = check_gradients(
            lambda: net(code).sum(), [code, *picks], atol=1e-5,
        )
        assert ok, f"{kind}: worst gradient error {worst:.3e}"
