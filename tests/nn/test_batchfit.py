"""Tests for the deep-prior fit engine (:mod:`repro.nn.batchfit`) and the
record-stacked :class:`repro.nn.SpAcLUNet` it runs on."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn import Adam, SpAcLUNet, Tensor, UNetConfig, stack_networks
from repro.nn.batchfit import EarlyStopConfig, fit_batched

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

    def test_compact_keeps_selected_records(self, rng):
        nets = make_networks(3)
        stacked = stack_networks(nets)
        stacked.compact(np.array([0, 2]))
        assert stacked.n_records == 2
        code = rng.uniform(0, 0.1, size=(2, 2, 9, 8))
        out = stacked(code).data
        for local, original in enumerate((0, 2)):
            single = nets[original](code[local: local + 1]).data[0]
            np.testing.assert_allclose(out[local], single, atol=1e-12)

    def test_stacking_leaves_inputs_untouched(self):
        nets = make_networks(2)
        before = {
            name: param.data.copy()
            for name, param in nets[0].named_parameters()
        }
        stack_networks(nets).compact(np.array([1]))
        assert not nets[0].stacked
        for name, param in nets[0].named_parameters():
            np.testing.assert_array_equal(param.data, before[name])

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


class TestEarlyStopConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EarlyStopConfig(patience=0)
        with pytest.raises(ConfigurationError):
            EarlyStopConfig(rel_tol=1.0)
        with pytest.raises(ConfigurationError):
            EarlyStopConfig(min_iterations=-1)

    @pytest.mark.parametrize("bad", [
        {"patience": 2.5},
        {"patience": True},
        {"min_iterations": 1.5},
        {"min_iterations": True},
        {"rel_tol": "0.1"},
    ], ids=["patience-float", "patience-bool", "min-iterations-float",
            "min-iterations-bool", "rel-tol-str"])
    def test_wrong_types_raise(self, bad):
        # A bool is an int and 2.5 compares like one; neither counts.
        with pytest.raises(ConfigurationError):
            EarlyStopConfig(**bad)

    def test_boundary_values_accepted(self):
        config = EarlyStopConfig(patience=1, rel_tol=0.0, min_iterations=0)
        assert (config.patience, config.rel_tol, config.min_iterations) \
            == (1, 0.0, 0)


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
        assert fit.stop_iterations == [None, None]
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

    def test_early_stop_rolls_back_to_argmin(self, rng):
        stacked, code, target, mask = self._problem(3, rng)
        # A criterion demanding 60% improvement per iteration trips almost
        # immediately, exercising retirement + compaction.
        early = EarlyStopConfig(patience=2, rel_tol=0.6, min_iterations=1)
        fit = fit_batched(stacked, code, target, mask,
                          iterations=50, learning_rate=1e-2,
                          early_stop=early)
        for r in range(3):
            stop = fit.stop_iterations[r]
            assert stop is not None
            losses = fit.losses[r]
            assert losses.size < 50, "record did not stop early"
            assert stop == int(np.argmin(losses))
            assert losses[stop:].min() >= losses[stop]

    def test_early_stopped_output_equals_a_shorter_fit(self, rng):
        # A one-record stack is never compacted before it retires, so
        # the rolled-back output must equal, bitwise, that of a fit
        # given exactly stop + 1 iterations.
        # A large step makes the loss bounce, so the fit runs on past its
        # best iteration before patience runs out.
        _, code, target, mask = self._problem(1, rng)
        early = EarlyStopConfig(patience=3, rel_tol=0.0, min_iterations=1)
        stopped = fit_batched(make_networks(1)[0], code, target, mask,
                              iterations=80, learning_rate=0.3,
                              early_stop=early)
        stop = stopped.stop_iterations[0]
        assert stop is not None and stopped.losses[0].size > stop + 1
        plain = fit_batched(make_networks(1)[0], code, target, mask,
                            iterations=stop + 1, learning_rate=0.3)
        np.testing.assert_array_equal(stopped.outputs, plain.outputs)
        np.testing.assert_array_equal(stopped.losses[0][: stop + 1],
                                      plain.losses[0])

    def test_min_iterations_delays_retirement(self, rng):
        stacked, code, target, mask = self._problem(2, rng)
        # No iteration improves the loss 99-fold, so patience runs out at
        # once and only min_iterations holds the records back.
        early = EarlyStopConfig(patience=1, rel_tol=0.99, min_iterations=7)
        fit = fit_batched(stacked, code, target, mask,
                          iterations=30, learning_rate=1e-2,
                          early_stop=early)
        assert [losses.size for losses in fit.losses] == [7, 7]

    def test_patience_counts_iterations_without_improvement(self, rng):
        stacked, code, target, mask = self._problem(2, rng)
        # The first loss sets the plateau; three more without a 99-fold
        # improvement exhaust a patience of 3.
        early = EarlyStopConfig(patience=3, rel_tol=0.99, min_iterations=0)
        fit = fit_batched(stacked, code, target, mask,
                          iterations=30, learning_rate=1e-2,
                          early_stop=early)
        assert [losses.size for losses in fit.losses] == [4, 4]

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
