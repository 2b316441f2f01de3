"""Tests for Adam and the Eq. 9 loss."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn import Adam, Parameter, masked_mse_loss


class TestAdam:
    def test_converges_on_a_quadratic(self):
        # Minimise ||x - 3||^2 from x = 0.
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.1)
        for _ in range(400):
            opt.zero_grad()
            p.grad = 2 * (p.data - 3.0)
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-2)

    def test_zero_grad_clears_every_gradient(self):
        params = [Parameter(np.zeros(2)), Parameter(np.zeros(3))]
        for p in params:
            p.grad = np.ones_like(p.data)
        Adam(params).zero_grad()
        assert all(p.grad is None for p in params)

    def test_empty_params_raise(self):
        with pytest.raises(ConfigurationError):
            Adam([], lr=0.1)

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_is_the_textbook_update(self, dtype):
        # The in-place update reproduces the out-of-place formulation
        # bit for bit at the parameter's own dtype.
        rng = np.random.default_rng(3)
        p = Parameter(rng.standard_normal((4, 5)).astype(dtype))
        opt = Adam([p], lr=1e-2)
        beta1, beta2, eps = opt.beta1, opt.beta2, opt.eps
        data = p.data.copy()
        m = np.zeros_like(data)
        v = np.zeros_like(data)
        for t in range(1, 4):
            p.grad = rng.standard_normal((4, 5)).astype(dtype)
            m = beta1 * m + (1 - beta1) * p.grad
            v = beta2 * v + (1 - beta2) * p.grad * p.grad
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            data = data - 1e-2 * m_hat / (np.sqrt(v_hat) + eps)
            opt.step()
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_state_is_the_textbook_update_per_parameter(
            self, rng, dtype):
        # Several record-stacked parameters of mixed shapes share one
        # flat state.  With one parameter left without a gradient for a
        # step, each stays bitwise equal to the textbook update of that
        # parameter alone.
        shapes = [(3, 4, 2, 3, 3), (3, 4), (3, 1, 5, 1, 1), (3, 6)]
        params = [Parameter(rng.standard_normal(s).astype(dtype))
                  for s in shapes]
        opt = Adam(params, lr=1e-2)
        beta1, beta2, eps = opt.beta1, opt.beta2, opt.eps
        ref = [(p.data.copy(), np.zeros(s, dtype), np.zeros(s, dtype))
               for p, s in zip(params, shapes)]
        for t in range(1, 6):
            opt.zero_grad()
            for i, (p, (data, m, v)) in enumerate(zip(params, ref)):
                if t == 2 and i == 1:
                    continue  # no gradient: value and moments untouched
                p.grad = rng.standard_normal(data.shape).astype(dtype)
                m = beta1 * m + (1 - beta1) * p.grad
                v = beta2 * v + (1 - beta2) * p.grad * p.grad
                m_hat = m / (1.0 - beta1 ** t)
                v_hat = v / (1.0 - beta2 ** t)
                ref[i] = (data - 1e-2 * m_hat / (np.sqrt(v_hat) + eps), m, v)
            opt.step()
            for p, (data, _, _) in zip(params, ref):
                assert p.data.dtype == dtype
                assert np.array_equal(p.data, data)

    def test_parameters_are_views_of_one_buffer(self):
        params = [Parameter(np.ones((2, 3))), Parameter(np.zeros(4))]
        opt = Adam(params)
        base = params[0].data.base
        assert base is not None and params[1].data.base is base
        np.testing.assert_array_equal(params[0].data, 1.0)
        # Data replaced since the last step is taken back into the state.
        params[1].data = np.full(4, 2.0)
        params[1].grad = np.zeros(4)
        opt.step()
        assert params[1].data.base is base
        np.testing.assert_array_equal(params[1].data, 2.0)

    def test_mixed_dtypes_raise(self):
        with pytest.raises(ConfigurationError):
            Adam([Parameter(np.zeros(2)),
                  Parameter(np.zeros(2, dtype=np.float32))])


def _problem(rng, shape=(2, 1, 5, 6)):
    prediction = rng.uniform(0.0, 1.0, size=shape)
    target = rng.uniform(0.0, 1.0, size=shape)
    mask = (rng.random(shape) < 0.6).astype(np.float64)
    mask[:, 0, 0, 0] = 1.0  # every record shows something
    return prediction, target, mask


class TestMaskedMseLoss:
    def test_value_is_eq9_over_the_visible_count(self, rng):
        prediction, target, mask = _problem(rng)
        losses, _ = masked_mse_loss(prediction, target, mask)
        for r in range(2):
            visible = mask[r] == 1
            expected = np.sum((prediction[r] - target[r])[visible] ** 2) \
                / visible.sum()
            assert np.isclose(losses[r], expected, rtol=1e-12)

    def test_gradient_matches_central_differences(self, rng):
        prediction, target, mask = _problem(rng)
        _, grad = masked_mse_loss(prediction, target, mask)
        numeric = np.zeros_like(prediction)
        eps = 1e-6
        for index in np.ndindex(prediction.shape):
            bumped = prediction.copy()
            bumped[index] += eps
            f_plus = masked_mse_loss(bumped, target, mask)[0].sum()
            bumped[index] -= 2 * eps
            f_minus = masked_mse_loss(bumped, target, mask)[0].sum()
            numeric[index] = (f_plus - f_minus) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)

    def test_concealed_cells_cost_and_pull_nothing(self, rng):
        prediction, target, mask = _problem(rng)
        moved = prediction + 5.0 * (mask == 0)
        np.testing.assert_array_equal(
            masked_mse_loss(moved, target, mask)[0],
            masked_mse_loss(prediction, target, mask)[0],
        )
        assert not masked_mse_loss(prediction, target, mask)[1][mask == 0].any()

    def test_float32_stays_float32(self, rng):
        arrays = [a.astype(np.float32) for a in _problem(rng)]
        losses, grad = masked_mse_loss(*arrays)
        assert losses.dtype == grad.dtype == np.float32

    def test_all_zero_record_raises(self, rng):
        prediction, target, mask = _problem(rng)
        mask[1] = 0
        with pytest.raises(ConfigurationError):
            masked_mse_loss(prediction, target, mask)

    def test_shape_mismatch_raises(self, rng):
        prediction, target, mask = _problem(rng)
        with pytest.raises(ShapeError):
            masked_mse_loss(prediction[:, :, :4], target, mask)
        with pytest.raises(ShapeError):
            masked_mse_loss(prediction, target, mask[:, :, :4])
