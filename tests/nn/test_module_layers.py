"""Tests for the module system and layer wrappers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SerializationError, ShapeError
from repro.nn import (
    AvgPool2d,
    Conv2d,
    Dropout,
    HarmonicConv2d,
    InstanceNorm2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
    UpsampleNearest,
)
from repro.nn import init


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=0)
        self.fc2 = Linear(8, 2, rng=1)

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


class TestModule:
    def test_parameter_registration(self):
        net = TinyNet()
        names = [n for n, _ in net.named_parameters()]
        assert set(names) == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}

    def test_num_parameters(self):
        net = TinyNet()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_recursive(self):
        net = TinyNet()
        net.eval()
        assert not net.training and not net.fc1.training
        net.train()
        assert net.training and net.fc2.training

    def test_zero_grad(self):
        net = TinyNet()
        out = net(Tensor(np.ones((1, 4), dtype=np.float32)))
        out.sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert net.fc1.weight.grad is None

    def test_state_dict_roundtrip(self):
        net_a, net_b = TinyNet(), TinyNet()
        net_b.fc1.weight.data = net_b.fc1.weight.data * 0  # make different
        net_b.load_state_dict(net_a.state_dict())
        assert np.allclose(net_b.fc1.weight.data, net_a.fc1.weight.data)

    def test_state_dict_missing_key_raises(self):
        net = TinyNet()
        state = net.state_dict()
        del state["fc1.bias"]
        with pytest.raises(SerializationError):
            net.load_state_dict(state)

    def test_state_dict_wrong_shape_raises(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ShapeError):
            net.load_state_dict(state)

    def test_register_parameter_none(self):
        m = Module()
        m.register_parameter("bias", None)
        assert m.bias is None
        assert "bias" not in dict(m.named_parameters())

    def test_reassignment_replaces(self):
        m = Module()
        m.p = Parameter(np.zeros(2))
        m.p = Parameter(np.ones(3))
        assert dict(m.named_parameters())["p"].shape == (3,)

    def test_modules_iteration(self):
        net = TinyNet()
        assert len(list(net.modules())) == 3  # self + 2 linears


class TestSequentialAndList:
    def test_sequential_forward(self):
        seq = Sequential(Linear(3, 3, rng=0), ReLU(), Linear(3, 1, rng=1))
        out = seq(Tensor(np.ones((2, 3), dtype=np.float32)))
        assert out.shape == (2, 1)
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)

    def test_module_list(self):
        ml = ModuleList([ReLU(), Tanh()])
        ml.append(Sigmoid())
        assert len(ml) == 3
        assert isinstance(ml[2], Sigmoid)
        # Parameters of contained modules are discovered.
        ml2 = ModuleList([Linear(2, 2, rng=0)])
        assert len(list(ml2.named_parameters())) == 2


class TestLayers:
    def test_conv2d_layer_shapes(self, rng):
        layer = Conv2d(2, 4, 3, padding=1, rng=rng)
        out = layer(Tensor(np.ones((1, 2, 6, 6), dtype=np.float32)))
        assert out.shape == (1, 4, 6, 6)

    def test_harmonic_layer_shapes(self, rng):
        layer = HarmonicConv2d(2, 4, n_harmonics=3, kernel_time=3, rng=rng)
        out = layer(Tensor(np.ones((1, 2, 8, 6), dtype=np.float32)))
        assert out.shape == (1, 4, 8, 6)

    def test_harmonic_layer_even_kernel_raises(self):
        with pytest.raises(ConfigurationError):
            HarmonicConv2d(1, 1, kernel_time=2)

    def test_instance_norm_normalises(self, rng):
        layer = InstanceNorm2d(3, affine=False)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)) * 5 + 2)
        out = layer(x).data
        assert np.allclose(out.mean(axis=(2, 3)), 0, atol=1e-5)
        assert np.allclose(out.std(axis=(2, 3)), 1, atol=1e-2)

    def test_instance_norm_channel_check(self):
        layer = InstanceNorm2d(3)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((1, 2, 4, 4))))

    def test_instance_norm_affine_params(self):
        layer = InstanceNorm2d(2, affine=True)
        assert {"weight", "bias"} == set(dict(layer.named_parameters()))

    def test_activations(self):
        x = Tensor(np.array([-1.0, 1.0]))
        assert np.allclose(ReLU()(x).data, [0, 1])
        assert np.allclose(LeakyReLU(0.2)(x).data, [-0.2, 1])
        assert np.allclose(Sigmoid()(x).data, 1 / (1 + np.exp([1.0, -1.0])))
        assert np.allclose(Tanh()(x).data, np.tanh([-1.0, 1.0]))

    def test_pool_upsample_layers(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        assert AvgPool2d((1, 2))(x).shape == (1, 1, 4, 2)
        assert MaxPool2d((2, 1))(x).shape == (1, 1, 2, 4)
        assert UpsampleNearest((2, 2))(x).shape == (1, 1, 8, 8)

    def test_dropout_layer_respects_mode(self, rng):
        layer = Dropout(0.9, rng=rng)
        x = Tensor(np.ones(1000))
        layer.eval()
        assert np.allclose(layer(x).data, 1.0)
        layer.train()
        assert not np.allclose(layer(x).data, 1.0)

    def test_linear_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(list(layer.named_parameters())) == 1


#: Every initialiser, called on a (3, 3) shape with any extra keywords.
INITIALISERS = {
    "kaiming_uniform": lambda **kw: init.kaiming_uniform(
        (3, 3), np.random.default_rng(0), **kw),
    "xavier_uniform": lambda **kw: init.xavier_uniform(
        (3, 3), np.random.default_rng(0), **kw),
    "normal": lambda **kw: init.normal(
        (3, 3), np.random.default_rng(0), **kw),
    "uniform": lambda **kw: init.uniform(
        (3, 3), np.random.default_rng(0), **kw),
    "zeros": lambda **kw: init.zeros((3, 3), **kw),
    "ones": lambda **kw: init.ones((3, 3), **kw),
}


class TestInitDtype:
    @pytest.mark.parametrize("name", sorted(INITIALISERS))
    def test_default_is_float32(self, name):
        assert INITIALISERS[name]().dtype == np.float32

    @pytest.mark.parametrize("name", sorted(INITIALISERS))
    def test_explicit_dtype_preserved(self, name):
        assert INITIALISERS[name](dtype=np.float64).dtype == np.float64
