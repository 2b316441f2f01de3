"""Tests for the convolution/pooling operators (repro.nn.functional)."""

import numpy as np
import pytest
from scipy.signal import correlate2d

from repro.errors import ConfigurationError, ShapeError
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.functional import harmonic_index_map
from repro.nn.gradcheck import check_gradients


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestConv2d:
    def test_matches_scipy_valid(self, rng):
        x = rng.standard_normal((1, 1, 8, 9))
        w = rng.standard_normal((1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w)).data[0, 0]
        ref = correlate2d(x[0, 0], w[0, 0], mode="valid")
        assert np.allclose(out, ref, atol=1e-10)

    def test_padding_same_shape(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        assert F.conv2d(x, w, padding=1).shape == (1, 3, 8, 8)

    def test_bias_added(self, rng):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 1, 1)))
        b = Tensor(np.array([1.5, -2.0]))
        out = F.conv2d(x, w, b)
        assert np.allclose(out.data[0, 0], 1.5)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_stacked_records_match_one_kernel_each(self, rng):
        x = rng.standard_normal((2, 2, 5, 6))
        w = rng.standard_normal((2, 3, 2, 3, 3))
        b = rng.standard_normal((2, 3))
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        for r in range(2):
            single = F.conv2d(
                Tensor(x[r: r + 1]), Tensor(w[r]), Tensor(b[r]), padding=1
            ).data[0]
            np.testing.assert_allclose(out[r], single, atol=1e-12)

    def test_record_count_mismatch_raises(self, rng):
        with pytest.raises(ShapeError, match="records"):
            F.conv2d(Tensor(np.zeros((2, 1, 4, 4))),
                     Tensor(np.zeros((1, 1, 3, 3))))
        with pytest.raises(ShapeError, match="records"):
            F.conv2d(Tensor(np.zeros((2, 1, 4, 4))),
                     Tensor(np.zeros((3, 1, 1, 3, 3))))

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            F.conv2d(
                Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3)))
            )

    def test_wrong_ndim_raises(self):
        with pytest.raises(ShapeError):
            F.conv2d(Tensor(np.zeros((4, 4))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_empty_output_raises(self):
        with pytest.raises(ShapeError):
            F.conv2d(
                Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5)))
            )


class TestHarmonicIndexMap:
    def test_anchor_one_forward_multiples(self):
        indices, valid = harmonic_index_map(8, 3, 1)
        assert np.array_equal(indices[0], np.arange(8))  # k=1 identity
        assert indices[1, 2] == 4 and indices[2, 2] == 6  # k=2,3 at f=2
        assert not valid[1, 5]  # 2*5=10 out of band
        assert valid[0].all()

    def test_anchor_two_fractional(self):
        indices, valid = harmonic_index_map(8, 4, 2)
        # k=1, anchor 2: round(f/2)
        assert indices[0, 3] == 2  # round(1.5) = 2 (banker's rounding)
        assert valid[0].all()

    def test_cached(self):
        a = harmonic_index_map(16, 3, 1)
        b = harmonic_index_map(16, 3, 1)
        assert a[0] is b[0]

    def test_invalid_params_raise(self):
        with pytest.raises(ConfigurationError):
            harmonic_index_map(8, 0, 1)
        with pytest.raises(ConfigurationError):
            harmonic_index_map(8, 2, 0)


class TestHarmonicConv2d:
    def test_output_shape_preserved(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 16, 10)))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)))
        out = F.harmonic_conv2d(x, w, anchor=1, time_dilation=2)
        assert out.shape == (1, 4, 16, 10)

    def test_manual_single_harmonic(self, rng):
        # One harmonic, one time tap: output = w * x exactly.
        x = rng.standard_normal((1, 1, 6, 5))
        w = np.full((1, 1, 1, 1), 2.0)
        out = F.harmonic_conv2d(Tensor(x), Tensor(w))
        assert np.allclose(out.data, 2.0 * x)

    def test_second_harmonic_reads_double_frequency(self):
        # Input is one-hot at frequency 4; with 2 harmonics and anchor 1,
        # output at f=2 must include the k=2 reading of bin 4.
        x = np.zeros((1, 1, 8, 3))
        x[0, 0, 4, 1] = 1.0
        w = np.zeros((1, 1, 2, 1))
        w[0, 0, 1, 0] = 1.0  # only the k=2 tap
        out = F.harmonic_conv2d(Tensor(x), Tensor(w))
        assert out.data[0, 0, 2, 1] == 1.0  # 2*2=4 read the hot bin
        assert out.data[0, 0, 4, 1] == 0.0  # 2*4=8 out of band

    def test_time_dilation_reaches_far_frames(self):
        x = np.zeros((1, 1, 4, 9))
        x[0, 0, 1, 0] = 1.0
        w = np.zeros((1, 1, 1, 3))
        w[0, 0, 0, 0] = 1.0  # tap at t - D
        out = F.harmonic_conv2d(Tensor(x), Tensor(w), time_dilation=4)
        assert out.data[0, 0, 1, 4] == 1.0

    def test_records_do_not_mix(self, rng):
        """Record r of the output depends only on record r of the input."""
        x1 = rng.standard_normal((2, 2, 7, 9))
        w = 0.3 * rng.standard_normal((2, 3, 2, 2, 3))
        out1 = F.harmonic_conv2d(Tensor(x1), Tensor(w)).data
        x2 = x1.copy()
        x2[1] = rng.standard_normal((2, 7, 9))  # perturb record 1 only
        out2 = F.harmonic_conv2d(Tensor(x2), Tensor(w)).data
        np.testing.assert_array_equal(out1[0], out2[0])
        assert np.abs(out1[1] - out2[1]).max() > 0

    def test_record_and_channel_mismatch_raise(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 7, 9)))
        with pytest.raises(ShapeError):
            F.harmonic_conv2d(x, Tensor(rng.standard_normal((3, 3, 2, 2, 3))))
        with pytest.raises(ShapeError):
            F.harmonic_conv2d(x, Tensor(rng.standard_normal((2, 3, 4, 2, 3))))
        with pytest.raises(ShapeError):
            F.harmonic_conv2d(x, Tensor(rng.standard_normal((3, 2, 2, 3))))

    def test_even_kernel_time_raises(self, rng):
        with pytest.raises(ConfigurationError):
            F.harmonic_conv2d(
                Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2)))
            )

    def test_bad_dilation_raises(self):
        with pytest.raises(ConfigurationError):
            F.harmonic_conv2d(
                Tensor(np.zeros((1, 1, 4, 4))),
                Tensor(np.zeros((1, 1, 2, 3))),
                time_dilation=0,
            )


class TestConvGradcheckSweep:
    """Finite-difference gradchecks of the two convolution kernels.

    Each kernel is swept on per-record weights stacked for two records
    (``records=2``) and on a plain kernel, which is a stack of one.
    """

    @staticmethod
    def _operands(rng, records, weight_shape, x_shape):
        stack = () if records is None else (records,)
        x = t64(rng.standard_normal((records or 1, *x_shape)))
        w = t64(0.3 * rng.standard_normal((*stack, *weight_shape)))
        b = t64(0.1 * rng.standard_normal((*stack, weight_shape[0])))
        return x, w, b

    @pytest.mark.parametrize("records", [2, None])
    @pytest.mark.parametrize("anchor", [1, 2, 3])
    @pytest.mark.parametrize("dilation", [1, 2, 5])
    def test_harmonic_conv2d(self, rng, records, anchor, dilation):
        x, w, b = self._operands(rng, records, (3, 2, 3, 3), (2, 7, 9))
        ok, err = check_gradients(
            lambda: (F.harmonic_conv2d(
                x, w, b, anchor=anchor, time_dilation=dilation
            ) ** 2).sum(),
            [x, w, b],
        )
        assert ok, err

    @pytest.mark.parametrize("records", [2, None])
    @pytest.mark.parametrize("kernel,padding", [(3, 1), (3, 0), (1, 0)])
    def test_conv2d(self, rng, records, kernel, padding):
        x, w, b = self._operands(
            rng, records, (3, 2, kernel, kernel), (2, 5, 7)
        )
        ok, err = check_gradients(
            lambda: (F.conv2d(x, w, b, padding=padding) ** 2).sum(),
            [x, w, b],
        )
        assert ok, err


class TestPoolingUpsample:
    def test_avg_pool(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, (2, 2))
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 0, 0] == (0 + 1 + 4 + 5) / 4

    def test_avg_pool_gradcheck(self, rng):
        x = t64(rng.standard_normal((1, 2, 5, 6)))
        ok, err = check_gradients(
            lambda: (F.avg_pool2d(x, (2, 2)) ** 2).sum(), [x]
        )
        assert ok, err

    def test_max_pool_value_and_grad(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        x4 = x.reshape(1, 1, 2, 2)
        out = F.max_pool2d(x4, (2, 2))
        assert out.data[0, 0, 0, 0] == 4.0
        out.sum().backward()
        assert np.allclose(x.grad, [[0, 0], [0, 1.0]])

    def test_pool_too_large_raises(self):
        with pytest.raises(ShapeError):
            F.max_pool2d(Tensor(np.zeros((1, 1, 2, 2))), (4, 4))

    def test_upsample_nearest_values(self):
        x = Tensor(np.array([[1.0, 2.0]]).reshape(1, 1, 1, 2))
        out = F.upsample_nearest(x, (2, 2))
        assert out.shape == (1, 1, 2, 4)
        assert np.allclose(out.data[0, 0], [[1, 1, 2, 2], [1, 1, 2, 2]])

    def test_upsample_gradcheck(self, rng):
        x = t64(rng.standard_normal((1, 1, 3, 4)))
        ok, err = check_gradients(
            lambda: (F.upsample_nearest(x, (1, 2)) ** 2).sum(), [x]
        )
        assert ok, err

    def test_pool_upsample_inverse_on_constant(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        down = F.avg_pool2d(x, (2, 2))
        up = F.upsample_nearest(down, (2, 2))
        assert np.allclose(up.data, 1.0)


class TestDropoutAndCrop:
    def test_dropout_eval_identity(self, rng):
        x = Tensor(np.ones(100))
        out = F.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_scales(self, rng):
        x = Tensor(np.ones(10_000))
        out = F.dropout(x, 0.5, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_dropout_bad_p(self, rng):
        with pytest.raises(ConfigurationError):
            F.dropout(Tensor(np.ones(3)), 1.0, rng)

    def test_crop_or_pad_time(self):
        x = Tensor(np.ones((1, 1, 2, 5)))
        assert F.crop_or_pad_time(x, 3).shape[-1] == 3
        assert F.crop_or_pad_time(x, 8).shape[-1] == 8
        assert F.crop_or_pad_time(x, 5) is x
