"""Tests for optimisers, schedulers and loss functions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn import (
    SGD,
    Adam,
    CosineAnnealingLR,
    Parameter,
    RMSprop,
    StepLR,
    Tensor,
    l1_loss,
    masked_mse_loss,
    mse_loss,
)


def quadratic_minimise(optimizer_cls, steps=200, **kwargs):
    """Minimise ||x - 3||^2 from x=0; return the final parameter."""
    p = Parameter(np.zeros(4))
    opt = optimizer_cls([p], **kwargs)
    for _ in range(steps):
        opt.zero_grad()
        loss = ((p - 3.0) ** 2).sum()
        loss.backward()
        opt.step()
    return p.data


class TestOptimizers:
    def test_sgd_converges(self):
        assert np.allclose(quadratic_minimise(SGD, lr=0.1), 3.0, atol=1e-3)

    def test_sgd_momentum_converges(self):
        final = quadratic_minimise(SGD, lr=0.05, momentum=0.9)
        assert np.allclose(final, 3.0, atol=1e-3)

    def test_adam_converges(self):
        assert np.allclose(
            quadratic_minimise(Adam, steps=400, lr=0.1), 3.0, atol=1e-2
        )

    def test_rmsprop_converges(self):
        assert np.allclose(
            quadratic_minimise(RMSprop, steps=400, lr=0.05), 3.0, atol=1e-2
        )

    def test_weight_decay_shrinks(self):
        p = Parameter(np.full(3, 10.0))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            opt.zero_grad()
            (p * 0.0).sum().backward()  # zero data gradient
            opt.step()
        assert np.all(np.abs(p.data) < 1.0)

    def test_empty_params_raise(self):
        with pytest.raises(ConfigurationError):
            SGD([], lr=0.1)

    def test_bad_lr_raises(self):
        with pytest.raises(ConfigurationError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_bad_betas_raise(self):
        with pytest.raises(ConfigurationError):
            Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.9))

    def test_step_skips_none_grads(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=0.1)
        opt.step()  # no backward happened; must not crash
        assert np.allclose(p.data, 1.0)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_step_is_the_textbook_update(self, dtype, weight_decay):
        # The in-place update reproduces the out-of-place formulation
        # bit for bit at the parameter's own dtype.
        rng = np.random.default_rng(3)
        p = Parameter(rng.standard_normal((4, 5)).astype(dtype))
        opt = Adam([p], lr=1e-2, weight_decay=weight_decay)
        beta1, beta2, eps = opt.beta1, opt.beta2, opt.eps
        data = p.data.copy()
        m = np.zeros_like(data)
        v = np.zeros_like(data)
        for t in range(1, 4):
            p.grad = rng.standard_normal((4, 5)).astype(dtype)
            grad = p.grad + weight_decay * data if weight_decay else p.grad
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            data = data - 1e-2 * m_hat / (np.sqrt(v_hat) + eps)
            opt.step()
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, data)


class TestSchedulers:
    def test_step_lr(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.5)
        sched.step()
        assert opt.lr == 1.0
        sched.step()
        assert opt.lr == 0.5

    def test_cosine_decays_to_min(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10, eta_min=0.1)
        for _ in range(10):
            sched.step()
        assert abs(opt.lr - 0.1) < 1e-9

    def test_bad_params(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        with pytest.raises(ConfigurationError):
            StepLR(opt, step_size=0)
        with pytest.raises(ConfigurationError):
            CosineAnnealingLR(opt, t_max=0)


class TestLosses:
    def test_mse_loss_value(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = mse_loss(pred, np.array([0.0, 0.0]))
        assert np.isclose(float(loss.data), 2.5)

    def test_mse_loss_sum_reduction(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        assert np.isclose(
            float(mse_loss(pred, np.zeros(2), reduction="sum").data), 5.0
        )

    def test_l1_loss(self):
        pred = Tensor(np.array([1.0, -3.0]), requires_grad=True)
        assert np.isclose(float(l1_loss(pred, np.zeros(2)).data), 2.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros(2)), np.zeros(3))

    def test_unknown_reduction_raises(self):
        with pytest.raises(ConfigurationError):
            mse_loss(Tensor(np.zeros(2)), np.zeros(2), reduction="bogus")

    def test_masked_mse_ignores_concealed(self):
        pred = Tensor(np.array([5.0, 1.0]), requires_grad=True)
        target = np.array([0.0, 1.0])
        mask = np.array([0.0, 1.0])
        loss = masked_mse_loss(pred, target, mask)
        assert np.isclose(float(loss.data), 0.0)

    def test_masked_mse_grad_zero_at_concealed(self):
        pred = Tensor(np.array([5.0, 1.0]), requires_grad=True)
        loss = masked_mse_loss(pred, np.zeros(2), np.array([0.0, 1.0]))
        loss.backward()
        assert pred.grad[0] == 0.0
        assert pred.grad[1] != 0.0

    def test_masked_mse_sum_matches_eq9(self):
        pred = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        loss = masked_mse_loss(
            pred, np.zeros(2), np.ones(2), reduction="sum"
        )
        assert np.isclose(float(loss.data), 13.0)

    def test_all_zero_mask_raises(self):
        with pytest.raises(ConfigurationError):
            masked_mse_loss(Tensor(np.zeros(2)), np.zeros(2), np.zeros(2))
