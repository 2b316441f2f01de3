"""Tests for the kernel builders (repro.nn.functional).

Every forward is checked against a direct implementation that shares no
code with it: a loop over Eq. 8 for the harmonic convolution, scipy for
the standard convolution, plain numpy for instance norm with leaky ReLU,
pooling and upsampling.  Every backward is checked against float64
central differences of its forward, which are independent of the
hand-written adjoints.  Each operator is built once on a
:class:`StaleWorkspace` and its call lists are replayed, as a fit
replays its network's plan: the central differences replay the built
forward after perturbing its input or parameters in place.
"""

import numpy as np
import pytest
from scipy.signal import correlate2d

from repro.errors import ConfigurationError, ShapeError
from repro.nn import functional as F
from repro.nn.functional import harmonic_index_map


def numerical_gradient(fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``array``.

    ``array`` (contiguous float64) is perturbed in place, one entry at a
    time, so ``fn`` must read it afresh on every call.
    """
    grad = np.zeros_like(array)
    flat, grad_flat = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        f_plus = fn()
        flat[i] = original - eps
        f_minus = fn()
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def assert_gradients(fn, pairs) -> None:
    """Each ``(array, analytic)`` pair matches the central differences."""
    for array, analytic in pairs:
        np.testing.assert_allclose(
            analytic, numerical_gradient(fn, array), rtol=1e-5, atol=1e-7
        )


def _operands(rng, records, weight_shape, x_shape):
    """float64 input, kernels and bias; ``records=None`` is a plain 4-D
    kernel, given its record axis by :func:`F.record_kernels`."""
    stack = () if records is None else (records,)
    x = rng.standard_normal((records or 1, *x_shape))
    weight = 0.3 * rng.standard_normal((*stack, *weight_shape))
    bias = 0.1 * rng.standard_normal((*stack, weight_shape[0]))
    w, b = F.record_kernels(weight, bias)
    return x, weight, bias, w, b


class StaleWorkspace(F.Workspace):
    """A workspace whose buffers are stale whenever a list replays.

    In a fit each role's buffer still holds what the previous layer left
    there, so a call list must write every scratch cell before reading
    it; :meth:`replay` fills every buffer with NaN (a non-zero value in
    boolean and integer roles) first, so a cell that a list reads
    unwritten shows in the result.
    """

    def replay(self, calls):
        for buffer in self._buffers.values():
            buffer.fill(np.nan if buffer.dtype.kind == "f" else 1)
        F.run(calls)


def build(builder, *args, **kwargs):
    """Build an operator on the :class:`StaleWorkspace` among ``args``
    and replay its forward once; returns ``(out, forward, backward,
    scratch)``."""
    scratch = next(a for a in args if isinstance(a, StaleWorkspace))
    out, calls, backward = builder(*args, **kwargs)
    scratch.replay(calls)
    return out, calls, backward, scratch


def run_forward(builder, *args, **kwargs):
    """The output of one replay of a freshly built operator."""
    return build(builder, *args, **kwargs)[0]


def adjoint(backward, scratch, grad, *args):
    """Build ``backward`` around ``grad`` and replay it once; returns
    copies of its gradients (``None`` stays ``None``)."""
    *grads, calls = backward(grad, *args)
    scratch.replay(calls)
    return [None if g is None else g.copy() for g in grads]


def replayed_loss(scratch, calls, out, probe, before=None):
    """``sum(out * probe)`` after replaying ``calls`` (``before()`` first)."""
    def loss():
        if before is not None:
            before()
        scratch.replay(calls)
        return float((out * probe).sum())
    return loss


# --------------------------------------------------------------------- #
# Direct references
# --------------------------------------------------------------------- #
def harmonic_reference(x, w, b, anchor, dilation):
    """Eq. 8 written out: harmonic ``k`` of output bin ``f`` reads input
    bin ``round(k f / anchor)``, tap ``dt`` reads frame
    ``t + (dt - KT // 2) * dilation``; out-of-range bins and frames read
    zero."""
    n_rec, c_in, n_freq, n_time = x.shape
    _, c_out, _, n_harm, kt = w.shape
    out = np.repeat(b[:, :, None, None], n_freq, axis=2)
    out = np.repeat(out, n_time, axis=3)
    for k in range(1, n_harm + 1):
        for f in range(n_freq):
            source = round(k * f / anchor)
            if source >= n_freq:
                continue
            for dt in range(kt):
                shift = (dt - kt // 2) * dilation
                for t in range(n_time):
                    if 0 <= t + shift < n_time:
                        out[:, :, f, t] += np.einsum(
                            "roc,rc->ro", w[:, :, :, k - 1, dt],
                            x[:, :, source, t + shift],
                        )
    return out


def conv2d_reference(x, w, b, padding):
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n_rec, c_out, c_in = w.shape[:3]
    return np.stack([
        np.stack([
            b[r, o] + sum(correlate2d(xp[r, c], w[r, o, c], mode="valid")
                          for c in range(c_in))
            for o in range(c_out)
        ])
        for r in range(n_rec)
    ])


def instance_norm_reference(x, weight, bias, eps, slope):
    c = x.shape[1]
    mean = x.mean(axis=(2, 3), keepdims=True)
    var = x.var(axis=(2, 3), keepdims=True)
    u = (x - mean) / np.sqrt(var + eps)
    u = u * weight.reshape(-1, c, 1, 1) + bias.reshape(-1, c, 1, 1)
    return np.where(u > 0, u, slope * u)


def max_pool_reference(x, kernel):
    kh, kw = kernel
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    windows = x[:, :, :oh * kh, :ow * kw].reshape(n, c, oh, kh, ow, kw)
    return windows.max(axis=(3, 5))


def upsample_reference(x, scale, size):
    """Repeat each cell, then crop or zero-pad to ``size``."""
    up = np.repeat(np.repeat(x, scale[0], axis=2), scale[1], axis=3)
    out = np.zeros(x.shape[:2] + tuple(size))
    h, w = min(size[0], up.shape[2]), min(size[1], up.shape[3])
    out[:, :, :h, :w] = up[:, :, :h, :w]
    return out


# --------------------------------------------------------------------- #
# Plans
# --------------------------------------------------------------------- #
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


class TestHarmonicBandPlan:
    @pytest.mark.parametrize("anchor", [1, 2, 3])
    @pytest.mark.parametrize("n_freq", [1, 2, 5, 33, 129])
    @pytest.mark.parametrize("n_harmonics", range(1, 7))
    def test_bands_partition_rows_by_harmonics_in_band(
            self, anchor, n_freq, n_harmonics):
        bands = F.harmonic_band_plan(n_freq, n_harmonics, anchor)
        _, valid = harmonic_index_map(n_freq, n_harmonics, anchor)
        edge = 0
        for j, lo, hi in bands:
            assert lo == edge and hi > lo
            edge = hi
            # Harmonics 1..j are in band on every row of band j, and no
            # later harmonic is on any of them.
            assert valid[:j, lo:hi].all()
            assert not valid[j:, lo:hi].any()
        assert edge == n_freq


class TestReshapeView:
    def test_returns_a_view_that_sees_later_writes(self):
        array = np.zeros((2, 3, 4))
        strided = array[:, 1:]
        for source, shape in ((array, (6, 4)), (strided, (2, 8))):
            view = F.reshape_view(source, shape)
            assert view.shape == shape
            source[...] = 7.0
            assert (view == 7.0).all()

    def test_a_reshape_that_would_copy_raises(self):
        transposed = np.zeros((3, 4)).T
        with pytest.raises(ShapeError, match="without copying"):
            F.reshape_view(transposed, (12,))


# --------------------------------------------------------------------- #
# Convolutions
# --------------------------------------------------------------------- #
#: The harmonic sweep: stacked (2 records) and plain kernels, anchors
#: 1-3, dilations from inside the 9-frame axis to past both of its ends,
#: and one bin (a single band) or 7 and 12 bins (several bands).
HARMONIC_SWEEP = pytest.mark.parametrize(
    "records,anchor,dilation,n_freq",
    [(records, anchor, dilation, n_freq)
     for records in (2, None) for anchor in (1, 2, 3)
     for dilation in (1, 2, 5, 9) for n_freq in (1, 7, 12)],
)
#: The standard-convolution sweep: kernel size and padding.
CONV_SWEEP = pytest.mark.parametrize(
    "records,kernel,padding",
    [(records, kernel, padding) for records in (2, None)
     for kernel, padding in ((3, 1), (3, 0), (1, 0))],
)


class TestHarmonicConv2d:
    @HARMONIC_SWEEP
    def test_forward_is_eq8(self, rng, records, anchor, dilation, n_freq):
        x, _, _, w, b = _operands(rng, records, (3, 2, 3, 3), (2, n_freq, 9))
        out = run_forward(F.harmonic_conv2d, x, w, b, StaleWorkspace(), anchor,
                          dilation)
        np.testing.assert_allclose(
            out, harmonic_reference(x, w, b, anchor, dilation),
            rtol=0, atol=1e-12,
        )

    @HARMONIC_SWEEP
    def test_backward_matches_central_differences(
            self, rng, records, anchor, dilation, n_freq):
        x, weight, bias, w, b = _operands(
            rng, records, (3, 2, 3, 3), (2, n_freq, 9)
        )
        probe = rng.standard_normal((x.shape[0], 3, n_freq, 9))
        out, calls, backward, scratch = build(
            F.harmonic_conv2d, x, w, b, StaleWorkspace(), anchor, dilation
        )
        grad_x, grad_w, grad_b = adjoint(backward, scratch, probe)
        assert_gradients(replayed_loss(scratch, calls, out, probe), [
            (x, grad_x),
            (weight, grad_w.reshape(weight.shape)),
            (bias, grad_b.reshape(bias.shape)),
        ])

    @pytest.mark.parametrize("records", [2, None])
    def test_input_written_into_the_gather_lane(self, rng, records):
        # At anchor 1 harmonic 1's lane is the input: a producer that
        # writes there spares the copy, with the same output and
        # gradients.
        x, weight, bias, w, b = _operands(rng, records, (3, 2, 3, 3), (2, 7, 9))
        probe = rng.standard_normal((x.shape[0], 3, 7, 9))
        gathered = np.full((x.shape[0], 3) + x.shape[1:], np.nan)
        lane = gathered[:, 0]
        np.copyto(lane, x)
        out, calls, backward, scratch = build(
            F.harmonic_conv2d, lane, w, b, StaleWorkspace(), 1, 2,
            gathered=gathered,
        )
        grad_x, grad_w, grad_b = adjoint(backward, scratch, probe)
        loss = replayed_loss(scratch, calls, out, probe,
                             before=lambda: np.copyto(lane, x))
        np.testing.assert_allclose(
            out, harmonic_reference(x, w, b, 1, 2), rtol=0, atol=1e-12
        )
        assert_gradients(loss, [
            (x, grad_x),
            (weight, grad_w.reshape(weight.shape)),
            (bias, grad_b.reshape(bias.shape)),
        ])

    def test_only_an_identity_lane_holds_the_input(self, rng):
        _, _, _, w, b = _operands(rng, None, (3, 2, 3, 3), (2, 7, 9))
        gathered = np.zeros((1, 3, 2, 7, 9))
        with pytest.raises(ConfigurationError):
            F.harmonic_conv2d(gathered[:, 0], w, b, StaleWorkspace(), 2,
                              gathered=gathered)

    def test_output_shape_preserved(self, rng):
        x, _, _, w, b = _operands(rng, None, (4, 2, 3, 3), (2, 16, 10))
        out = run_forward(F.harmonic_conv2d, x, w, b, StaleWorkspace(), 1, 2)
        assert out.shape == (1, 4, 16, 10)

    def test_manual_single_harmonic(self, rng):
        # One harmonic, one time tap: output = w * x exactly.
        x = rng.standard_normal((1, 1, 6, 5))
        w, b = F.record_kernels(np.full((1, 1, 1, 1), 2.0), np.zeros(1))
        out = run_forward(F.harmonic_conv2d, x, w, b, StaleWorkspace())
        np.testing.assert_array_equal(out, 2.0 * x)

    def test_second_harmonic_reads_double_frequency(self):
        # Input is one-hot at bin 4; with 2 harmonics and anchor 1, the
        # output at bin 2 includes the k=2 reading of bin 4.
        x = np.zeros((1, 1, 8, 3))
        x[0, 0, 4, 1] = 1.0
        weight = np.zeros((1, 1, 2, 1))
        weight[0, 0, 1, 0] = 1.0  # only the k=2 tap
        out = run_forward(
            F.harmonic_conv2d, x, *F.record_kernels(weight, np.zeros(1)),
            StaleWorkspace(),
        )
        assert out[0, 0, 2, 1] == 1.0  # 2*2=4 reads the hot bin
        assert out[0, 0, 4, 1] == 0.0  # 2*4=8 is out of band

    def test_time_dilation_reaches_far_frames(self):
        x = np.zeros((1, 1, 4, 9))
        x[0, 0, 1, 0] = 1.0
        weight = np.zeros((1, 1, 1, 3))
        weight[0, 0, 0, 0] = 1.0  # the tap at t - D
        out = run_forward(
            F.harmonic_conv2d, x, *F.record_kernels(weight, np.zeros(1)),
            StaleWorkspace(), time_dilation=4,
        )
        assert out[0, 0, 1, 4] == 1.0

    def test_dilation_past_both_ends_leaves_the_centre_tap(self, rng):
        # Side taps shifted by >= T frames read only zero padding.
        x, weight, bias, w, b = _operands(rng, None, (3, 2, 2, 3), (2, 7, 5))
        wide = run_forward(F.harmonic_conv2d, x, w, b, StaleWorkspace(),
                           time_dilation=5)
        centre = run_forward(
            F.harmonic_conv2d, x, *F.record_kernels(weight[..., 1:2], bias),
            StaleWorkspace(),
        )
        np.testing.assert_allclose(wide, centre, rtol=0, atol=1e-12)

    def test_records_do_not_mix(self, rng):
        """Record r of the output depends only on record r of the input."""
        x1, _, _, w, b = _operands(rng, 2, (3, 2, 2, 3), (2, 7, 9))
        out1 = run_forward(F.harmonic_conv2d, x1, w, b, StaleWorkspace())
        x2 = x1.copy()
        x2[1] = rng.standard_normal((2, 7, 9))  # perturb record 1 only
        out2 = run_forward(F.harmonic_conv2d, x2, w, b, StaleWorkspace())
        np.testing.assert_array_equal(out1[0], out2[0])
        assert np.abs(out1[1] - out2[1]).max() > 0

    def test_backward_without_input_gradient(self, rng):
        x, _, _, w, b = _operands(rng, 2, (3, 2, 3, 3), (2, 7, 9))
        _, _, backward, scratch = build(F.harmonic_conv2d, x, w, b,
                                        StaleWorkspace(), 1, 2)
        probe = rng.standard_normal((2, 3, 7, 9))
        full = adjoint(backward, scratch, probe)
        grad_x, grad_w, grad_b = adjoint(backward, scratch, probe, False)
        assert grad_x is None
        np.testing.assert_array_equal(grad_w, full[1])
        np.testing.assert_array_equal(grad_b, full[2])

    def test_even_kernel_time_raises(self):
        w, b = F.record_kernels(np.zeros((1, 1, 2, 2)), np.zeros(1))
        with pytest.raises(ConfigurationError):
            F.harmonic_conv2d(np.zeros((1, 1, 4, 4)), w, b, StaleWorkspace())

    def test_bad_dilation_raises(self):
        w, b = F.record_kernels(np.zeros((1, 1, 2, 3)), np.zeros(1))
        with pytest.raises(ConfigurationError):
            F.harmonic_conv2d(np.zeros((1, 1, 4, 4)), w, b, StaleWorkspace(),
                              time_dilation=0)


class TestConv2d:
    @CONV_SWEEP
    def test_forward_matches_scipy(self, rng, records, kernel, padding):
        x, _, _, w, b = _operands(
            rng, records, (3, 2, kernel, kernel), (2, 5, 7)
        )
        out = run_forward(F.conv2d, x, w, b, StaleWorkspace(),
                          (padding, padding))
        np.testing.assert_allclose(
            out, conv2d_reference(x, w, b, (padding, padding)),
            rtol=0, atol=1e-12,
        )

    @CONV_SWEEP
    def test_backward_matches_central_differences(
            self, rng, records, kernel, padding):
        x, weight, bias, w, b = _operands(
            rng, records, (3, 2, kernel, kernel), (2, 5, 7)
        )
        out, calls, backward, scratch = build(
            F.conv2d, x, w, b, StaleWorkspace(), (padding, padding)
        )
        probe = rng.standard_normal(out.shape)
        grad_x, grad_w, grad_b = adjoint(backward, scratch, probe)
        assert_gradients(replayed_loss(scratch, calls, out, probe), [
            (x, grad_x),
            (weight, grad_w.reshape(weight.shape)),
            (bias, grad_b.reshape(bias.shape)),
        ])

    def test_padding_same_shape(self, rng):
        x, _, _, w, b = _operands(rng, None, (3, 2, 3, 3), (2, 8, 8))
        out = run_forward(F.conv2d, x, w, b, StaleWorkspace(), (1, 1))
        assert out.shape == (1, 3, 8, 8)

    def test_bias_added(self):
        w, b = F.record_kernels(np.zeros((2, 1, 1, 1)), np.array([1.5, -2.0]))
        out = run_forward(F.conv2d, np.zeros((1, 1, 4, 4)), w, b,
                          StaleWorkspace())
        np.testing.assert_array_equal(out[0, 0], np.full((4, 4), 1.5))
        np.testing.assert_array_equal(out[0, 1], np.full((4, 4), -2.0))

    def test_stacked_records_match_one_kernel_each(self, rng):
        x, weight, bias, w, b = _operands(rng, 2, (3, 2, 3, 3), (2, 5, 6))
        out = run_forward(F.conv2d, x, w, b, StaleWorkspace(), (1, 1))
        for r in range(2):
            single = run_forward(
                F.conv2d, x[r: r + 1], *F.record_kernels(weight[r], bias[r]),
                StaleWorkspace(), (1, 1),
            )
            np.testing.assert_allclose(out[r], single[0], rtol=0, atol=1e-12)

    def test_empty_output_raises(self):
        w, b = F.record_kernels(np.zeros((1, 1, 5, 5)), np.zeros(1))
        with pytest.raises(ShapeError):
            F.conv2d(np.zeros((1, 1, 2, 2)), w, b, StaleWorkspace())


class TestFloat32Parity:
    """float32 operands run each convolution at single precision and
    match the float64 result to single-precision relative accuracy."""

    RTOL = 1e-5

    @staticmethod
    def _relative_deviation(ref, out):
        return float(np.abs(out - ref).max()) / float(np.abs(ref).max())

    @pytest.mark.parametrize("op,weight_shape,x_shape,kwargs", [
        (F.harmonic_conv2d, (2, 3, 3, 3, 3), (2, 3, 33, 16),
         dict(anchor=1, time_dilation=2)),
        (F.conv2d, (2, 4, 3, 3, 3), (2, 3, 9, 11),
         dict(padding=(1, 1))),
    ])
    def test_convolution(self, rng, op, weight_shape, x_shape, kwargs):
        x64 = rng.standard_normal(x_shape)
        w64 = rng.standard_normal(weight_shape) * 0.2  # one per record
        b64 = rng.standard_normal(weight_shape[:2]) * 0.1
        out64 = run_forward(op, x64, w64, b64, StaleWorkspace(), **kwargs)
        out32 = run_forward(op, *(a.astype(np.float32) for a in (x64, w64, b64)),
                            StaleWorkspace(), **kwargs)
        assert out32.dtype == np.float32
        assert self._relative_deviation(out64, out32) <= self.RTOL


# --------------------------------------------------------------------- #
# Instance norm (fused leaky ReLU), pooling, upsampling
# --------------------------------------------------------------------- #
class TestInstanceNorm:
    @pytest.mark.parametrize("stacked", [True, False])
    def test_forward_and_backward(self, rng, stacked):
        # Stacked: one (scale, shift) pair per record; else one shared.
        x = rng.standard_normal((3, 2, 7, 9)) * 2.0 + 0.5
        affine = (3, 2) if stacked else (2,)
        weight = 1.0 + 0.3 * rng.standard_normal(affine)
        bias = 0.2 * rng.standard_normal(affine)
        # The norm normalises its input in place, so every replay starts
        # from a fresh copy of ``x``.
        x_in = x.copy()
        out, calls, backward, scratch = build(
            F.instance_norm, x_in, weight, bias, 1e-5, 0.1, StaleWorkspace()
        )
        np.testing.assert_allclose(
            out, instance_norm_reference(x, weight, bias, 1e-5, 0.1),
            rtol=0, atol=1e-12,
        )
        probe = rng.standard_normal(out.shape)
        grad_x, grad_w, grad_b = adjoint(backward, scratch, probe)
        loss = replayed_loss(scratch, calls, out, probe,
                             before=lambda: np.copyto(x_in, x))
        # The affine gradients come per record; a shared pair sums them.
        assert_gradients(loss, [
            (x, grad_x),
            (weight, grad_w.reshape((-1,) + affine).sum(axis=0)),
            (bias, grad_b.reshape((-1,) + affine).sum(axis=0)),
        ])

    def test_identity_affine_normalises_each_map(self, rng):
        # Unit scale, zero shift and slope 1 (no rectification) leave
        # each (record, channel) map at zero mean and unit variance.
        x = rng.standard_normal((3, 2, 7, 9)) * 4.0 - 1.5
        out = run_forward(F.instance_norm, x, np.ones(2), np.zeros(2), 1e-5,
                          1.0, StaleWorkspace())
        np.testing.assert_allclose(out.mean(axis=(2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=(2, 3)), 1.0, atol=1e-5)


class TestMaxPool:
    @pytest.mark.parametrize("kernel", [(1, 2), (2, 2), (2, 3)])
    def test_forward_and_backward(self, rng, kernel):
        # Distinct values, so every window's arg-max (hence the
        # subgradient) is unambiguous under the perturbation.
        x = rng.permutation(126).astype(np.float64).reshape(1, 2, 7, 9) / 126
        out, calls, backward, scratch = build(F.max_pool2d, x, kernel,
                                              StaleWorkspace())
        np.testing.assert_array_equal(out, max_pool_reference(x, kernel))
        probe = rng.standard_normal(out.shape)
        grad_x, = adjoint(backward, scratch, probe)
        assert_gradients(replayed_loss(scratch, calls, out, probe),
                         [(x, grad_x)])

    def test_ties_route_to_the_first_maximum(self):
        _, _, backward, scratch = build(F.max_pool2d, np.ones((1, 1, 2, 2)),
                                        (2, 2), StaleWorkspace())
        grad, = adjoint(backward, scratch, np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_kernel_larger_than_input_raises(self):
        with pytest.raises(ShapeError):
            F.max_pool2d(np.zeros((1, 1, 2, 2)), (4, 4), StaleWorkspace())


class TestUpsampleNearest:
    @pytest.mark.parametrize("scale", [(1, 2), (2, 3)])
    # The decoder's skip extents: exact, cropped and zero-padded.
    @pytest.mark.parametrize("extra", [(0, 0), (-1, -1), (1, 2)])
    def test_forward_and_backward(self, rng, scale, extra):
        x = rng.standard_normal((2, 2, 3, 4))
        size = (3 * scale[0] + extra[0], 4 * scale[1] + extra[1])
        out, calls, backward, scratch = build(F.upsample_nearest, x, scale,
                                              StaleWorkspace(), size=size)
        np.testing.assert_array_equal(out, upsample_reference(x, scale, size))
        probe = rng.standard_normal(out.shape)
        grad_x, = adjoint(backward, scratch, probe)
        assert_gradients(replayed_loss(scratch, calls, out, probe),
                         [(x, grad_x)])

    def test_values(self):
        x = np.array([1.0, 2.0]).reshape(1, 1, 1, 2)
        out = run_forward(F.upsample_nearest, x, (2, 2), StaleWorkspace())
        np.testing.assert_array_equal(out[0, 0], [[1, 1, 2, 2], [1, 1, 2, 2]])

    def test_pool_upsample_inverse_on_constant(self):
        down = run_forward(F.max_pool2d, np.ones((1, 1, 4, 4)), (2, 2),
                           StaleWorkspace())
        np.testing.assert_array_equal(
            run_forward(F.upsample_nearest, down, (2, 2), StaleWorkspace()),
            np.ones((1, 1, 4, 4)),
        )

    def test_writes_into_a_given_buffer(self, rng):
        x = rng.standard_normal((1, 2, 3, 4))
        joined = np.full((1, 5, 3, 9), np.nan)
        run_forward(F.upsample_nearest, x, (1, 2), StaleWorkspace(),
                    size=(3, 9), out=joined[:, 3:])
        np.testing.assert_array_equal(
            joined[:, 3:], upsample_reference(x, (1, 2), (3, 9))
        )
        assert np.isnan(joined[:, :3]).all()
