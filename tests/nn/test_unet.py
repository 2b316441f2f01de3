"""Tests for the SpAc LU-Net and its Fig. 3 variants."""

import hashlib

import numpy as np
import pytest

from repro.core.inpainting import (
    PRIOR_KINDS,
    InpaintingConfig,
    config_for_prior_kind,
)
from repro.errors import ConfigurationError, ShapeError
from repro.nn import SpAcLUNet, UNetConfig, stack_networks


def prior_network(kind, rng=None, dtype=np.float32, **base):
    """The Fig. 3 variant ``kind`` of ``InpaintingConfig(**base)``'s
    network, built as a deep-prior fit builds it."""
    config = config_for_prior_kind(kind, InpaintingConfig(**base))
    return SpAcLUNet(config.network_config(), rng=rng, dtype=dtype)


@pytest.fixture
def small_cfg():
    return UNetConfig(in_channels=4, base_channels=4, depth=2,
                      n_harmonics=2, kernel_time=3)


class TestConfig:
    def test_bad_conv_kind(self):
        with pytest.raises(ConfigurationError):
            UNetConfig(conv_kind="fancy")

    def test_bad_depth(self):
        with pytest.raises(ConfigurationError):
            UNetConfig(depth=0)

    def test_even_kernel(self):
        with pytest.raises(ConfigurationError):
            UNetConfig(kernel_time=4)

    @pytest.mark.parametrize("field,value", [
        ("in_channels", 0), ("base_channels", 0), ("n_harmonics", 0),
        ("kernel_time", -1), ("anchor", 0), ("time_dilation", 0),
        ("base_channels", 2.5), ("depth", True),
    ])
    def test_bad_int_field_raises_when_built(self, field, value):
        # Each used to pass here and fail later: in the initialiser
        # (ZeroDivisionError, math domain error) or at the first call.
        with pytest.raises(ConfigurationError, match=f"UNetConfig.{field}"):
            UNetConfig(**{field: value})


class TestForward:
    def test_output_shape_and_range(self, small_cfg, rng):
        net = SpAcLUNet(small_cfg, rng=rng)
        z = net.make_input_code(17, 12, rng=rng)
        out = net(z)
        assert out.data.shape == (1, 1, 17, 12)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_frequency_size_preserved_odd(self, small_cfg, rng):
        # Frequency pooling is prohibited: odd freq sizes must survive.
        net = SpAcLUNet(small_cfg, rng=rng)
        z = net.make_input_code(33, 16, rng=rng)
        assert net(z).data.shape[2] == 33

    def test_non_power_of_two_time(self, small_cfg, rng):
        net = SpAcLUNet(small_cfg, rng=rng)
        z = net.make_input_code(9, 13, rng=rng)
        assert net(z).data.shape[3] == 13

    def test_too_short_time_raises(self, small_cfg, rng):
        net = SpAcLUNet(small_cfg, rng=rng)
        with pytest.raises(ShapeError):
            net.make_input_code(9, 2, rng=rng)

    def test_wrong_channels_raises(self, small_cfg, rng):
        net = SpAcLUNet(small_cfg, rng=rng)
        with pytest.raises(ShapeError):
            net(np.zeros((1, 7, 8, 8), dtype=np.float32))

    def test_deterministic_given_seed(self, small_cfg):
        a = SpAcLUNet(small_cfg, rng=5)
        b = SpAcLUNet(small_cfg, rng=5)
        za = a.make_input_code(9, 8, rng=1)
        zb = b.make_input_code(9, 8, rng=1)
        assert np.allclose(a(za).data, b(zb).data)

    def test_freq_pooling_variant_runs(self, rng):
        cfg = UNetConfig(in_channels=4, base_channels=4, depth=2,
                         freq_pooling=True)
        net = SpAcLUNet(cfg, rng=rng)
        z = net.make_input_code(16, 12, rng=rng)
        assert net(z).data.shape == (1, 1, 16, 12)

    def test_gradients_flow_to_all_parameters(self, small_cfg, rng):
        net = SpAcLUNet(small_cfg, rng=rng)
        z = net.make_input_code(9, 8, rng=rng)
        out = net(z)
        out.backward(np.ones_like(out.data))
        for name, p in net.named_parameters():
            assert p.grad is not None, f"no grad for {name}"


class TestFactory:
    def test_all_kinds_build_and_run(self, rng):
        for kind in PRIOR_KINDS:
            net = prior_network(
                kind, rng=rng, base_channels=4, depth=2, time_dilation=3,
            )
            z = net.make_input_code(16, 12, rng=rng)
            assert net(z).data.shape == (1, 1, 16, 12), kind

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    def test_forward_and_gradients_keep_the_network_dtype(
        self, rng, kind, dtype
    ):
        # A fit runs at its config's dtype only if no layer casts.
        net = prior_network(
            kind, rng=rng, base_channels=4, depth=2, time_dilation=3,
            dtype=dtype,
        )
        z = net.make_input_code(16, 12, rng=rng, dtype=dtype)
        out = net(z)
        out.backward(np.ones_like(out.data))
        assert out.data.dtype == dtype
        for name, p in net.named_parameters():
            assert p.data.dtype == dtype, name
            assert p.grad.dtype == dtype, name

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            prior_network("magic")

    def test_variant_properties(self, rng):
        conventional = prior_network("conventional", rng=rng)
        assert conventional.cfg.conv_kind == "standard"
        baseline = prior_network("harmonic_baseline", rng=rng)
        assert baseline.cfg.anchor == 2 and baseline.cfg.freq_pooling
        spac = prior_network("spac", rng=rng)
        assert spac.cfg.anchor == 1 and not spac.cfg.freq_pooling
        dilated = prior_network("spac_dilated", rng=rng, time_dilation=7)
        assert dilated.cfg.time_dilation == 7


#: SHA-256 over the sorted parameter names, dtypes, shapes and bytes of
#: ``prior_network(kind, rng=7, dtype=dtype)`` (the default
#: ``InpaintingConfig``'s variant) followed by the stack of the rng=7 and
#: rng=8 networks.  It pins seeded init, which
#: every fit starts from, so a change here moves every DHF estimate;
#: nothing stored on disk depends on it.
#: At the default geometry (three harmonics, three time taps) all four
#: kinds share one parameter layout and one seeded initialisation.
STATE_DIGESTS = {
    "float32": "abae60437f22d6cc88101f1073fbdc241e822f89cc0d50c725860e190bd7e300",
    "float64": "e520044da099b60e6a83f4ed4fb51f63993e2e470df5f8f22cf7a6302ebd7fb3",
}


class TestStateDictContract:
    @staticmethod
    def _update(digest, network):
        for name, param in sorted(network.named_parameters(),
                                  key=lambda item: item[0]):
            value = param.data
            digest.update(name.encode())
            digest.update(f"{value.dtype.str}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    def test_names_shapes_dtypes_and_init_bytes(self, kind, dtype):
        digest = hashlib.sha256()
        self._update(digest, prior_network(kind, rng=7, dtype=dtype))
        stacked = stack_networks(
            [prior_network(kind, rng=seed, dtype=dtype) for seed in (7, 8)]
        )
        self._update(digest, stacked)
        assert digest.hexdigest() == STATE_DIGESTS[np.dtype(dtype).name]
