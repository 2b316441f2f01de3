"""Tests for the deep-prior fit engine (:mod:`repro.nn.batchfit`) and the
record-stacked :class:`repro.nn.SpAcLUNet` it runs on."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SerializationError, ShapeError
from repro.nn import (
    Adam,
    SpAcLUNet,
    Tensor,
    UNetConfig,
    stack_networks,
)
from repro.nn.batchfit import (
    EarlyStopConfig,
    _StackedAdam,
    fit_batched,
)
from repro.nn.module import Parameter

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
        out = stacked(Tensor(code)).data
        for r, net in enumerate(nets):
            single = net(Tensor(code[r: r + 1])).data[0]
            np.testing.assert_allclose(out[r], single, atol=1e-12)

    def test_conventional_variant(self, rng):
        cfg = UNetConfig(in_channels=2, base_channels=2, depth=1,
                         conv_kind="standard")
        nets = [SpAcLUNet(cfg, rng=i, dtype=np.float64) for i in range(2)]
        stacked = stack_networks(nets)
        code = rng.uniform(0, 0.1, size=(2, 2, 6, 6))
        out = stacked(Tensor(code)).data
        for r, net in enumerate(nets):
            single = net(Tensor(code[r: r + 1])).data[0]
            np.testing.assert_allclose(out[r], single, atol=1e-12)

    def test_record_state_round_trips(self):
        nets = make_networks(2)
        stacked = stack_networks(nets)
        state = stacked.record_state(1)
        assert set(state) == set(nets[1].state_dict())
        for name, value in nets[1].state_dict().items():
            np.testing.assert_array_equal(state[name], value)
        # An unstacked network is its own record 0.
        for name, value in nets[0].record_state(0).items():
            np.testing.assert_array_equal(value, nets[0].state_dict()[name])
        with pytest.raises(ShapeError):
            stacked.record_state(5)

    def test_load_record_state(self):
        nets = make_networks(2)
        stacked = stack_networks(nets)
        stacked.load_record_state(0, nets[1].state_dict())
        for name, value in nets[1].state_dict().items():
            np.testing.assert_array_equal(stacked.record_state(0)[name], value)

    def test_warm_start_load_errors(self):
        stacked = stack_networks(make_networks(2))
        state = make_networks(1)[0].state_dict()
        missing = dict(state)
        missing.pop("head.bias")
        with pytest.raises(SerializationError, match="missing"):
            stacked.load_record_state(0, missing)
        with pytest.raises(SerializationError, match="unexpected"):
            stacked.load_record_state(0, {**state, "extra": np.zeros(1)})
        wrong = dict(state)
        wrong["head.bias"] = np.zeros(3)
        with pytest.raises(ShapeError, match="head.bias"):
            stacked.load_record_state(0, wrong)
        with pytest.raises(ShapeError):
            stacked.load_record_state(2, state)

    def test_compact_keeps_selected_records(self, rng):
        nets = make_networks(3)
        stacked = stack_networks(nets)
        stacked.compact(np.array([0, 2]))
        assert stacked.n_records == 2
        code = rng.uniform(0, 0.1, size=(2, 2, 9, 8))
        out = stacked(Tensor(code)).data
        for local, original in enumerate((0, 2)):
            single = nets[original](Tensor(code[local: local + 1])).data[0]
            np.testing.assert_allclose(out[local], single, atol=1e-12)

    def test_stacking_leaves_inputs_untouched(self):
        nets = make_networks(2)
        before = nets[0].state_dict()
        stack_networks(nets).compact(np.array([1]))
        assert not nets[0].stacked
        for name, value in nets[0].state_dict().items():
            np.testing.assert_array_equal(value, before[name])

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
            stacked(Tensor(rng.uniform(size=(3, 2, 9, 8))))   # record count
        with pytest.raises(ShapeError):
            stacked(Tensor(rng.uniform(size=(2, 4, 9, 8))))   # channels
        with pytest.raises(ShapeError):
            stacked(Tensor(rng.uniform(size=(2, 2, 9))))      # ndim
        with pytest.raises(ShapeError):                      # unstacked: 1
            make_networks(1)[0](Tensor(rng.uniform(size=(2, 2, 9, 8))))


class TestStackedAdam:
    def test_matches_reference_adam(self, rng):
        data = rng.standard_normal((3, 4, 5))
        grads = [rng.standard_normal((3, 4, 5)) for _ in range(4)]
        p_ref = Parameter(data.copy())
        p_fused = Parameter(data.copy())
        ref = Adam([p_ref], lr=1e-2)
        fused = _StackedAdam([p_fused], lr=1e-2)
        for grad in grads:
            p_ref.grad = grad.copy()
            p_fused.grad = grad.copy()
            ref.step()
            fused.step()
            np.testing.assert_array_equal(p_ref.data, p_fused.data)

    def test_compact_slices_moments(self, rng):
        p = Parameter(rng.standard_normal((3, 2)))
        adam = _StackedAdam([p], lr=1e-2)
        p.grad = rng.standard_normal((3, 2))
        adam.step()
        m_before = adam._m[0].copy()
        p.data = p.data[[0, 2]]
        adam.compact(np.array([0, 2]))
        np.testing.assert_array_equal(adam._m[0], m_before[[0, 2]])


class TestEarlyStopConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EarlyStopConfig(patience=0)
        with pytest.raises(ConfigurationError):
            EarlyStopConfig(rel_tol=1.0)
        with pytest.raises(ConfigurationError):
            EarlyStopConfig(min_iterations=-1)


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
