"""Tests for the parameter registry, the layers and the initialisers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    Conv2d,
    HarmonicConv2d,
    InstanceNorm2d,
    LeakyReLU,
    Module,
    ModuleList,
    Parameter,
)
from repro.nn import init


class Block(Module):
    def __init__(self, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.weight = Parameter(rng.standard_normal((3, 2)))
        self.norm = InstanceNorm2d(2)


class TinyNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        self.blocks = ModuleList([Block(seed), LeakyReLU(), Block(seed + 1)])
        self.head = Parameter(np.zeros(4))


class TestModule:
    def test_parameter_registration_and_names(self):
        names = [n for n, _ in TinyNet().named_parameters()]
        assert names == [
            "head",
            "blocks.0.weight", "blocks.0.norm.weight", "blocks.0.norm.bias",
            "blocks.2.weight", "blocks.2.norm.weight", "blocks.2.norm.bias",
        ]

    def test_reassignment_replaces(self):
        m = Module()
        m.p = Parameter(np.zeros(2))
        m.p = Parameter(np.ones(3))
        assert dict(m.named_parameters())["p"].data.shape == (3,)
        m.p = None
        assert dict(m.named_parameters()) == {}

    def test_parameters_require_grad(self):
        assert Parameter(np.zeros(1)).requires_grad


class TestLayers:
    def test_conv2d_parameters(self, rng):
        layer = Conv2d(2, 4, 3, padding=1, rng=rng)
        assert layer.weight.data.shape == (4, 2, 3, 3)
        np.testing.assert_array_equal(layer.bias.data, np.zeros(4))
        assert layer.padding == (1, 1)

    def test_harmonic_parameters(self, rng):
        layer = HarmonicConv2d(2, 4, n_harmonics=5, kernel_time=3,
                               anchor=2, time_dilation=7, rng=rng)
        assert layer.weight.data.shape == (4, 2, 5, 3)
        assert (layer.anchor, layer.time_dilation) == (2, 7)

    def test_harmonic_even_kernel_raises(self):
        with pytest.raises(ConfigurationError):
            HarmonicConv2d(1, 1, kernel_time=2)

    def test_instance_norm_affine_starts_at_identity(self):
        layer = InstanceNorm2d(3)
        np.testing.assert_array_equal(layer.weight.data, np.ones(3))
        np.testing.assert_array_equal(layer.bias.data, np.zeros(3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layers_take_the_dtype(self, rng, dtype):
        for layer in (Conv2d(2, 3, 1, rng=rng, dtype=dtype),
                      HarmonicConv2d(2, 3, rng=rng, dtype=dtype),
                      InstanceNorm2d(3, dtype=dtype)):
            dtypes = {p.data.dtype for p in layer.parameters()}
            assert dtypes == {np.dtype(dtype)}


#: Every initialiser, called on a (3, 3) shape with any extra keywords.
INITIALISERS = {
    "kaiming_uniform": lambda **kw: init.kaiming_uniform(
        (3, 3), np.random.default_rng(0), **kw),
    "zeros": lambda **kw: init.zeros((3, 3), **kw),
    "ones": lambda **kw: init.ones((3, 3), **kw),
}


class TestInit:
    @pytest.mark.parametrize("name", sorted(INITIALISERS))
    def test_default_is_float32(self, name):
        assert INITIALISERS[name]().dtype == np.float32

    @pytest.mark.parametrize("name", sorted(INITIALISERS))
    def test_explicit_dtype_preserved(self, name):
        assert INITIALISERS[name](dtype=np.float64).dtype == np.float64

    def test_kaiming_bound_uses_fan_in(self):
        # fan_in = 4 input channels x 3 x 5 taps; gain sqrt(2).
        values = init.kaiming_uniform((2, 4, 3, 5), np.random.default_rng(1),
                                      dtype=np.float64)
        assert np.abs(values).max() <= np.sqrt(2.0) * np.sqrt(3.0 / 60)

    def test_kaiming_needs_two_axes(self):
        with pytest.raises(ConfigurationError):
            init.kaiming_uniform((3,), np.random.default_rng(0))
