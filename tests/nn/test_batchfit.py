"""Tests for the deep-prior fit engine (:mod:`repro.nn.batchfit`) and the
record-stacked :class:`repro.nn.SpAcLUNet` it runs on."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn import Adam, SpAcLUNet, Tensor, UNetConfig, stack_networks
from repro.nn.batchfit import fit_batched

TINY_CFG = UNetConfig(
    in_channels=2, base_channels=2, depth=2, n_harmonics=2,
    kernel_time=3, anchor=1, time_dilation=3,
)


def make_networks(n, cfg=TINY_CFG, dtype=np.float64):
    return [SpAcLUNet(cfg, rng=100 + i, dtype=dtype) for i in range(n)]


class TestStackedSpAcLUNet:
    def test_forward_matches_per_record_networks(self, rng):
        nets = make_networks(3)
        stacked = stack_networks(nets)
        assert stacked.stacked and stacked.n_records == 3
        code = rng.uniform(0, 0.1, size=(3, 2, 9, 8))
        out = stacked(code).data
        for r, net in enumerate(nets):
            single = net(code[r: r + 1]).data[0]
            np.testing.assert_allclose(out[r], single, atol=1e-12)

    def test_conventional_variant(self, rng):
        cfg = UNetConfig(in_channels=2, base_channels=2, depth=1,
                         conv_kind="standard")
        nets = [SpAcLUNet(cfg, rng=i, dtype=np.float64) for i in range(2)]
        stacked = stack_networks(nets)
        code = rng.uniform(0, 0.1, size=(2, 2, 6, 6))
        out = stacked(code).data
        for r, net in enumerate(nets):
            single = net(code[r: r + 1]).data[0]
            np.testing.assert_allclose(out[r], single, atol=1e-12)

    def test_stacking_leaves_inputs_untouched(self):
        nets = make_networks(2)
        before = [
            {name: param.data.copy()
             for name, param in net.named_parameters()}
            for net in nets
        ]
        # The stack holds copies: writing into its parameters in place
        # reaches neither input.
        for param in stack_networks(nets).parameters():
            param.data += 1.0
        for net, values in zip(nets, before):
            assert not net.stacked
            for name, param in net.named_parameters():
                np.testing.assert_array_equal(param.data, values[name])

    def test_stack_rejections(self):
        other = UNetConfig(in_channels=2, base_channels=4, depth=2,
                           n_harmonics=2, time_dilation=3)
        with pytest.raises(ConfigurationError):
            stack_networks(
                [SpAcLUNet(TINY_CFG, rng=0), SpAcLUNet(other, rng=1)]
            )
        with pytest.raises(ConfigurationError):
            stack_networks([])
        with pytest.raises(ConfigurationError):
            stack_networks([stack_networks(make_networks(2))])

    def test_input_validation(self, rng):
        stacked = stack_networks(make_networks(2))
        with pytest.raises(ShapeError):
            stacked(rng.uniform(size=(3, 2, 9, 8)))   # record count
        with pytest.raises(ShapeError):
            stacked(rng.uniform(size=(2, 4, 9, 8)))   # channels
        with pytest.raises(ShapeError):
            stacked(rng.uniform(size=(2, 2, 9)))      # ndim
        with pytest.raises(ShapeError):                      # unstacked: 1
            make_networks(1)[0](rng.uniform(size=(2, 2, 9, 8)))


class TestFitBatched:
    def _problem(self, n, rng, dtype=np.float64):
        stacked = stack_networks(make_networks(n, dtype=dtype))
        code = rng.uniform(0, 0.1, size=(n, 2, 9, 8)).astype(dtype)
        target = rng.uniform(0.2, 0.8, size=(n, 1, 9, 8)).astype(dtype)
        mask = np.ones((n, 1, 9, 8), dtype=dtype)
        mask[:, :, :, 3:5] = 0
        return stacked, code, target, mask

    def test_losses_decrease(self, rng):
        stacked, code, target, mask = self._problem(2, rng)
        fit = fit_batched(stacked, code, target, mask,
                          iterations=20, learning_rate=1e-2)
        for losses in fit.losses:
            assert losses.size == 20
            assert losses[-1] < losses[0]
        assert fit.outputs.shape == (2, 9, 8)

    def test_unstacked_network_is_a_stack_of_one(self, rng):
        stacked, code, target, mask = self._problem(1, rng)
        plain = make_networks(1)[0]
        a = fit_batched(stacked, code, target, mask,
                        iterations=5, learning_rate=1e-2)
        b = fit_batched(plain, code, target, mask,
                        iterations=5, learning_rate=1e-2)
        np.testing.assert_array_equal(a.outputs, b.outputs)
        np.testing.assert_array_equal(a.losses[0], b.losses[0])

    def test_a_shorter_fit_is_a_prefix_of_a_longer_one(self, rng):
        # Stopping a fit after k iterations is the same, bitwise, as
        # asking for k iterations: the short fit's losses and concealed
        # errors open the longer fit's, and its output is that fit's
        # prediction at iteration k.
        _, code, target, mask = self._problem(2, rng)
        reference = rng.uniform(0.2, 0.8, size=(2, 9, 8))
        short, longer = (
            fit_batched(stack_networks(make_networks(2)), code, target,
                        mask, iterations=n, learning_rate=0.3,
                        reference=reference)
            for n in (7, 20)
        )
        concealed = mask[:, 0] == 0
        for r in range(2):
            np.testing.assert_array_equal(short.losses[r],
                                          longer.losses[r][:7])
            np.testing.assert_array_equal(short.concealed_errors[r],
                                          longer.concealed_errors[r][:7])
            delta = short.outputs[r][concealed[r]] \
                - reference[r][concealed[r]]
            assert np.mean(delta ** 2) == longer.concealed_errors[r][6]
        assert not np.array_equal(short.outputs, longer.outputs)

    def test_concealed_errors_follow_the_reference(self, rng):
        stacked, code, target, mask = self._problem(2, rng)
        fit = fit_batched(stacked, code, target, mask,
                          iterations=3, learning_rate=1e-2)
        assert fit.concealed_errors is None
        stacked, code, target, mask = self._problem(2, rng)
        reference = rng.uniform(0.2, 0.8, size=(2, 9, 8))
        fit = fit_batched(stacked, code, target, mask,
                          iterations=3, learning_rate=1e-2,
                          reference=reference)
        concealed = mask[:, 0] == 0
        for r in range(2):
            curve = fit.concealed_errors[r]
            assert curve.shape == fit.losses[r].shape
            delta = fit.outputs[r][concealed[r]] - reference[r][concealed[r]]
            assert curve[-1] == pytest.approx(float(np.mean(delta ** 2)))

    def test_shape_validation(self, rng):
        stacked, code, target, mask = self._problem(2, rng)
        with pytest.raises(ShapeError):
            fit_batched(stacked, code[:1], target, mask,
                        iterations=1, learning_rate=1e-2)
        with pytest.raises(ConfigurationError):
            fit_batched(stacked, code, target, np.zeros_like(mask),
                        iterations=1, learning_rate=1e-2)
        with pytest.raises(ConfigurationError):
            fit_batched(stacked, code, target, mask,
                        iterations=0, learning_rate=1e-2)
        with pytest.raises(ShapeError):
            fit_batched(stacked, code, target, mask, iterations=1,
                        learning_rate=1e-2,
                        reference=np.zeros((2, 9, 7)))

    def test_each_iteration_calls_the_traced_names(self, rng, monkeypatch):
        # A traced benchmark run attributes the fit's time by wrapping
        # these names, so every iteration must go through each once.
        calls = {}
        for owner, name in ((SpAcLUNet, "__call__"), (Tensor, "backward"),
                            (Adam, "zero_grad"), (Adam, "step")):
            original = getattr(owner, name)

            def counted(*args, _original=original, _key=name, **kwargs):
                calls[_key] = calls.get(_key, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        stacked, code, target, mask = self._problem(2, rng)
        fit_batched(stacked, code, target, mask,
                    iterations=3, learning_rate=1e-2)
        assert calls == {"__call__": 3, "backward": 3, "zero_grad": 3,
                         "step": 3}
