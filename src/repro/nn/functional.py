"""The SpAc LU-Net's kernels, as raw-array forward/backward pairs.

Implements the operators the SpAc LU-Net needs, most importantly the
*dilated harmonic convolution* of the paper (Eqs. 1, 2 and 8): at output
frequency ``f`` the kernel reads input bins ``round(k * f / anchor)`` for
harmonics ``k = 1..H`` and time offsets spaced ``dilation`` frames apart.

Standard 2-D convolution (used by the "conventional CNN" variant of Fig. 3),
instance normalisation fused with its leaky ReLU, max pooling and
nearest-neighbour upsampling are also provided.

Every operator exists once, as a **raw-array kernel pair**:
``<op>_forward(...)`` returns ``(out, ctx)`` where ``ctx`` holds exactly
what the adjoint needs (``None`` when ``save`` is false), and
``<op>_backward(ctx, grad, ...)`` returns the input and parameter
gradients.  Their one caller is :class:`repro.nn.unet.SpAcLUNet`, which
walks them inside its single whole-network graph node.  Backward kernels
never write into the ``grad`` they are handed.

Memory comes from two places.  What a kernel saves for its adjoint goes
into the layer's own slot of saved activations (:func:`saved_array`).
What lives only within a call (tap outputs, shifted gradients, GEMM
outputs, normalisation and pooling temporaries), and the input gradient
a backward kernel hands to the next layer's adjoint, comes from the
network's one :class:`Workspace`: a flat buffer per role, shared by
every layer, so a fit's iterations neither allocate nor free
activation-sized memory.  Every kernel that needs a transient takes the
workspace as an argument.

Both convolutions run per *record*: a 5-D kernel ``(R, C_out, C_in, K1,
K2)`` holds one kernel per record and contracts only against record ``r``
of an ``(R, C_in, ...)`` input, which is how one stacked deep-prior fit
advances R independent networks at once (:mod:`repro.nn.batchfit`).
:func:`record_kernels` gives a plain 4-D kernel its record axis, as a
stack of one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError


# --------------------------------------------------------------------- #
# Cached kernel-tap plans
#
# Like repro.dsp.plan.StftPlan caches a geometry's window and frame grid,
# these memoise the per-(shape, kernel) slicing and gather plans the
# convolutions walk on every call.  Deep-prior fits re-run the same
# few layer shapes hundreds of times per record, so the plan for a given
# geometry is computed exactly once per process.
# --------------------------------------------------------------------- #
@lru_cache(maxsize=512)
def conv_tap_plan(h_pad: int, w_pad: int, kh: int, kw: int) -> tuple:
    """Output extents and per-tap input slices of a 2-D convolution.

    Returns ``(oh, ow, taps)`` where ``taps`` is a tuple of
    ``((di, dj), (h_slice, w_slice))`` pairs, one per kernel tap, over an
    input already padded to ``(h_pad, w_pad)``.  ``oh``/``ow`` may be
    non-positive for kernels larger than the input; callers raise.
    """
    oh = h_pad - kh + 1
    ow = w_pad - kw + 1
    taps = tuple(
        ((di, dj), (slice(di, di + oh), slice(dj, dj + ow)))
        for di in range(kh) for dj in range(kw)
    )
    return oh, ow, taps


@lru_cache(maxsize=256)
def harmonic_gather_plan(n_freq: int, n_harmonics: int, anchor: int) -> tuple:
    """Per-harmonic gather plan of the frequency remap, and its adjoint.

    The in-band rows of :func:`harmonic_index_map` are always a prefix
    (the index ``round(k f / anchor)`` is non-decreasing), so each
    harmonic gathers its first ``n_valid`` rows and nothing else (see
    :func:`harmonic_band_plan`).  When the row indices form an arithmetic
    progression (always true for ``anchor = 1``, where harmonic ``k``
    reads rows ``0, k, 2k, ...``) the gather is a strided slice copy, and
    its adjoint a strided slice ``+=``.  Otherwise the rows are
    fancy-indexed; ``unique`` records whether they are duplicate-free, so
    the adjoint scatter can skip the much slower ``np.add.at``
    (duplicates occur when ``anchor > k``, e.g. the Zhang-baseline
    ``anchor = 2``).

    Returns one ``(n_valid, row_slice_or_None, rows_or_None, unique)``
    tuple per harmonic: exactly one of the middle two is set.
    """
    indices, valid = harmonic_index_map(n_freq, n_harmonics, anchor)
    plan = []
    for k in range(n_harmonics):
        n_valid = int(valid[k].sum())
        rows = indices[k][:n_valid]
        if n_valid >= 2:
            steps = np.diff(rows)
            uniform = steps.min() == steps.max() and steps[0] > 0
        else:
            uniform = True
        if uniform:
            step = int(rows[1] - rows[0]) if n_valid >= 2 else 1
            start = int(rows[0]) if n_valid else 0
            plan.append(
                (n_valid, slice(start, start + step * n_valid, step), None,
                 True)
            )
        else:
            rows = np.ascontiguousarray(rows)
            rows.setflags(write=False)
            plan.append(
                (n_valid, None, rows, np.unique(rows).size == rows.size)
            )
    return tuple(plan)


@lru_cache(maxsize=256)
def harmonic_band_plan(n_freq: int, n_harmonics: int, anchor: int) -> tuple:
    """Output-row bands of the harmonic convolution, by harmonics in band.

    Harmonic ``k``'s in-band rows are a prefix of length ``n_valid[k]``
    (:func:`harmonic_gather_plan`), and ``n_valid`` never grows with
    ``k``, so output rows ``[n_valid[j], n_valid[j - 1])`` read exactly
    the first ``j`` harmonics.  Returns one ``(j, lo, hi)`` per non-empty
    band, in row order, partitioning ``[0, n_freq)``.  The convolution's
    forward and input-gradient GEMMs run once per band, over the band's
    rows and the leading ``j`` harmonics, and its weight-gradient GEMMs
    once per harmonic over the bands that read it, so no out-of-band
    lane is ever written, read or multiplied.
    """
    counts = [lane[0] for lane in
              harmonic_gather_plan(n_freq, n_harmonics, anchor)] + [0]
    return tuple(
        (j, counts[j], counts[j - 1])
        for j in range(n_harmonics, 0, -1) if counts[j] < counts[j - 1]
    )


def saved_array(saved: Optional[dict], name: str, shape: tuple,
                dtype) -> np.ndarray:
    """An uninitialised array for a forward kernel to save into.

    ``saved`` is one layer's slot of a network's saved activations:
    ``saved[name]`` is handed back while its shape and dtype still hold,
    so a fit's iterations keep writing into the same memory.  Without
    ``saved`` every call gets a fresh array.
    """
    if saved is None:
        return np.empty(shape, dtype=dtype)
    array = saved.get(name)
    if array is None or array.shape != shape or array.dtype != dtype:
        array = saved[name] = np.empty(shape, dtype=dtype)
    return array


class Workspace:
    """A network's scratch memory: one flat buffer per role.

    Every layer takes its transients of a role from the same buffer,
    which grows to the largest layer's request and is then reused, so
    it stays warm in cache from one layer to the next.  A role's
    contents are valid only until the next :meth:`take` of that role;
    a kernel that hands a scratch array on (a backward kernel's input
    gradient) relies on its consumer using other roles.  A workspace
    belongs to one graph node at a time (see
    :meth:`repro.nn.unet.SpAcLUNet.__call__`).
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers = {}

    def take(self, role: str, shape: tuple, dtype) -> np.ndarray:
        """An uninitialised ``shape`` array at the start of ``role``'s buffer."""
        size = math.prod(shape)
        buffer = self._buffers.get(role)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self._buffers[role] = np.empty(size, dtype=dtype)
        return buffer[:size].reshape(shape)


# --------------------------------------------------------------------- #
# Per-record convolutions
# --------------------------------------------------------------------- #
def record_kernels(weight: np.ndarray, bias: np.ndarray):
    """Give a convolution's kernels and bias their record axis.

    A 4-D ``weight`` ``(C_out, C_in, K1, K2)`` is a stack of one record;
    returns the kernels as ``(R, C_out, C_in, K1, K2)`` and the bias as
    ``(R, C_out)``, both views of the inputs.
    """
    w = weight if weight.ndim == 5 else weight[None]
    return w, bias.reshape(w.shape[:2])


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                   scratch: Workspace, padding=(0, 0), save: bool = True,
                   saved: Optional[dict] = None):
    """Per-record stride-1 cross-correlation over raw arrays.

    ``x`` is ``(R, C_in, H, W)``, ``w`` ``(R, C_out, C_in, KH, KW)`` and
    ``b`` ``(R, C_out)``; ``padding`` zero-pads ``(H, W)`` by ``(PH,
    PW)`` on both sides.  The input is unfolded once into an
    ``(R, C_in*KH*KW, OH*OW)`` column buffer (a free view for a 1x1
    kernel without padding, so the adjoint then keeps ``x`` itself) and
    contracted in one batched GEMM; the buffer is what the adjoint
    keeps (in ``saved``, see :func:`saved_array`).  The padded input is
    a ``scratch`` transient.
    """
    ph, pw = padding
    n_rec, c_in, h, width = x.shape
    c_out, kh, kw = w.shape[1], w.shape[3], w.shape[4]
    oh, ow, taps = conv_tap_plan(h + 2 * ph, width + 2 * pw, kh, kw)
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"conv2d output would be empty: input {x.shape}, kernel "
            f"{w.shape[1:]}, padding {(ph, pw)}"
        )
    if kh == kw == 1 and not (ph or pw):
        cols = x.reshape(n_rec, c_in, h * width)
    else:
        xp = x
        if ph or pw:
            xp = scratch.take("padded",
                              (n_rec, c_in, h + 2 * ph, width + 2 * pw),
                              x.dtype)
            xp.fill(0)
            xp[:, :, ph: ph + h, pw: pw + width] = x
        cols = saved_array(saved, "cols", (n_rec, c_in, kh, kw, oh, ow),
                           x.dtype)
        for (di, dj), (sl_h, sl_w) in taps:
            cols[:, :, di, dj] = xp[:, :, sl_h, sl_w]
        cols = cols.reshape(n_rec, c_in * kh * kw, oh * ow)
    w_flat = w.reshape(n_rec, c_out, c_in * kh * kw)
    out = np.matmul(w_flat, cols)
    out += b[:, :, None]
    out = out.reshape(n_rec, c_out, oh, ow)
    ctx = (cols, w_flat, padding, x.shape, w.shape) if save else None
    return out, ctx


def conv2d_backward(ctx, grad: np.ndarray, scratch: Workspace,
                    need_input: bool = True):
    """Adjoint of :func:`conv2d_forward`: ``(grad_x, grad_w, grad_b)``.

    ``grad_x`` is ``None`` unless ``need_input``; it is a ``scratch``
    array (roles ``"grad_in"`` and ``"grad_x"``), valid until the next
    convolution's backward.
    """
    cols, w_flat, (ph, pw), x_shape, w_shape = ctx
    n_rec, c_out, oh, ow = grad.shape
    g = grad.reshape(n_rec, c_out, oh * ow)
    grad_w = np.matmul(g, cols.transpose(0, 2, 1)).reshape(w_shape)
    grad_b = grad.sum(axis=(2, 3))
    grad_x = None
    if need_input:
        grad_cols = np.matmul(
            w_flat.transpose(0, 2, 1), g,
            out=scratch.take("grad_in", (n_rec, cols.shape[1], oh * ow),
                             np.result_type(w_flat, g)),
        )
        _, c_in, h, width = x_shape
        kh, kw = w_shape[3], w_shape[4]
        if kh == kw == 1 and not (ph or pw):
            grad_x = grad_cols.reshape(x_shape)
        else:
            grad_cols = grad_cols.reshape(n_rec, c_in, kh, kw, oh, ow)
            _, _, taps = conv_tap_plan(h + 2 * ph, width + 2 * pw, kh, kw)
            grad_xp = scratch.take(
                "grad_x", (n_rec, c_in, h + 2 * ph, width + 2 * pw),
                grad.dtype,
            )
            grad_xp.fill(0)
            for (di, dj), (sl_h, sl_w) in taps:
                grad_xp[:, :, sl_h, sl_w] += grad_cols[:, :, di, dj]
            grad_x = grad_xp[:, :, ph: ph + h, pw: pw + width]
    return grad_x, grad_w, grad_b


# --------------------------------------------------------------------- #
# Harmonic convolution (paper Eqs. 1, 2 and 8)
# --------------------------------------------------------------------- #
@lru_cache(maxsize=256)
def harmonic_index_map(n_freq: int, n_harmonics: int, anchor: int) -> tuple:
    """Frequency-gather indices for harmonic convolution.

    For harmonic ``k`` (1-based) and output bin ``f``, the input bin is
    ``round(k * f / anchor)``.  Bins that fall outside ``[0, n_freq)`` are
    flagged out-of-band and contribute zero.

    Returns
    -------
    (indices, valid):
        ``indices`` — int array of shape ``(n_harmonics, n_freq)`` with
        clipped in-range indices; ``valid`` — bool array of the same shape,
        ``False`` where the harmonic leaves the band.
    """
    if n_harmonics < 1:
        raise ConfigurationError(f"n_harmonics must be >= 1, got {n_harmonics}")
    if anchor < 1:
        raise ConfigurationError(f"anchor must be >= 1, got {anchor}")
    freqs = np.arange(n_freq)
    ks = np.arange(1, n_harmonics + 1).reshape(-1, 1)
    raw = np.round(ks * freqs / float(anchor)).astype(np.int64)
    valid = (raw >= 0) & (raw < n_freq)
    indices = np.clip(raw, 0, n_freq - 1)
    indices.setflags(write=False)
    valid.setflags(write=False)
    return indices, valid


def _tap_shifts(kt: int, time_dilation: int) -> range:
    """Frame shift of each time tap: tap ``dt`` reads frame ``t + shift``."""
    pad = (kt // 2) * time_dilation
    return range(-pad, pad + 1, time_dilation)


def harmonic_conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                            scratch: Workspace, anchor: int = 1,
                            time_dilation: int = 1, save: bool = True,
                            saved: Optional[dict] = None):
    """Per-record dilated harmonic convolution over raw arrays (Eq. 8)::

        out[r, o, f, t] = b[r, o] + sum_{c, k=1..H, dt}
            w[r, o, c, k - 1, dt] * x[r, c, round(k f / anchor), t + s(dt)]

    with tap shifts ``s(dt) = (dt - KT // 2) * time_dilation``.  Input
    bins outside ``[0, F)`` and frames outside ``[0, T)`` read zero.
    ``x`` is ``(R, C_in, F, T)``, ``w`` ``(R, C_out, C_in, H, KT)`` (odd
    ``KT``) and ``b`` ``(R, C_out)``; the output is ``(R, C_out, F, T)``.
    ``anchor = 1`` accesses forward integral harmonics only (the paper's
    spectrally accurate choice); larger anchors permit fractional ones.
    ``saved`` is the layer's slot of reused saved activations (see
    :func:`saved_array`); the GEMM's tap outputs are a ``scratch``
    transient.
    """
    if time_dilation < 1:
        raise ConfigurationError(f"time_dilation must be >= 1, got {time_dilation}")
    n_rec, c_in, n_freq, n_time = x.shape
    c_out, n_harm, kt = w.shape[1], w.shape[3], w.shape[4]
    if kt % 2 == 0:
        raise ConfigurationError(f"time kernel size must be odd, got {kt}")
    lanes = harmonic_gather_plan(n_freq, n_harm, anchor)
    bands = harmonic_band_plan(n_freq, n_harm, anchor)

    # One frequency gather per call into a harmonic-major (R, H, C, F, T)
    # buffer.  Each harmonic lane is a strided slice copy (or a fancy
    # gather) of its in-band prefix only: the bands below never read the
    # out-of-band tail, so it is left unwritten.
    n_flat = n_freq * n_time
    gathered = saved_array(saved, "gather",
                           (n_rec, n_harm, c_in, n_freq, n_time), x.dtype)
    for k, (n_valid, row_slice, rows, _) in enumerate(lanes):
        gathered[:, k, :, :n_valid] = \
            x[:, :, row_slice if rows is None else rows]
    g_flat = gathered.reshape(n_rec, n_harm * c_in, n_flat)
    w_fold = saved_array(saved, "weight", (n_rec, c_out * kt, n_harm * c_in),
                         w.dtype)
    np.copyto(w_fold.reshape(n_rec, c_out, kt, n_harm, c_in),
              w.transpose(0, 1, 4, 3, 2))

    # One batched GEMM per band contracts the band's leading (harmonic,
    # channel) rows against its contiguous (f, t) columns:
    #     tmp[r, (o, dt), (f, t)] = sum_(h<j,c) w[r, o, c, h, dt] * g[r, (h,c), (f,t)]
    # and the KT tap outputs are then overlap-added at their dilated time
    # shifts.  Each add runs over the flattened (f, t) axis in one pass:
    # the frames a tap would carry across a row boundary are the ones
    # that read zero padding, so they are zeroed first.
    taps = scratch.take("taps", (n_rec, c_out * kt, n_flat),
                        np.result_type(w_fold, g_flat))
    for j, lo, hi in bands:
        cols = slice(lo * n_time, hi * n_time)
        np.matmul(w_fold[:, :, :j * c_in], g_flat[:, :j * c_in, cols],
                  out=taps[:, :, cols])
    taps = taps.reshape(n_rec, c_out, kt, n_freq, n_time)
    out = np.empty((n_rec, c_out, n_freq, n_time), dtype=x.dtype)
    out_flat = out.reshape(n_rec, c_out, n_flat)
    started = False
    for dt, shift in enumerate(_tap_shifts(kt, time_dilation)):
        if abs(shift) >= n_time:
            continue
        tap = taps[:, :, dt]
        if shift > 0:
            tap[..., :shift] = 0
        else:
            tap[..., n_time + shift:] = 0
        lo, hi = max(-shift, 0), n_flat - max(shift, 0)
        window = tap.reshape(n_rec, c_out, n_flat)[..., lo + shift: hi + shift]
        if started:
            out_flat[..., lo:hi] += window
        else:
            out_flat[..., :lo] = 0
            out_flat[..., hi:] = 0
            out_flat[..., lo:hi] = window
            started = True
    out += b[:, :, None, None]
    ctx = (g_flat, w_fold, lanes, bands, time_dilation, x.shape, w.shape) \
        if save else None
    return out, ctx


def harmonic_conv2d_backward(ctx, grad: np.ndarray, scratch: Workspace,
                             need_input: bool = True):
    """Adjoint of :func:`harmonic_conv2d_forward`.

    Returns ``(grad_x, grad_w, grad_b)``; ``grad_x`` is ``None`` unless
    ``need_input`` (a fit's code needs no gradient, so its first layer
    skips the input GEMM and scatter).  The shifted gradients and the
    input-gradient GEMM outputs are ``scratch`` transients, and
    ``grad_x`` is a ``scratch`` array too (roles ``"grad_in"`` and
    ``"grad_x"``), valid until the next convolution's backward.
    """
    g_flat, w_fold, lanes, bands, time_dilation, x_shape, w_shape = ctx
    n_rec, c_out, n_freq, n_time = grad.shape
    c_in, n_harm, kt = w_shape[2], w_shape[3], w_shape[4]
    # Adjoint of the overlap-add: tap ``dt`` sees ``grad`` shifted back
    # onto the input frames it read (one flat copy), zero where it read
    # padding.
    n_flat = n_freq * n_time
    grad_flat = grad.reshape(n_rec, c_out, n_flat)
    shifted = scratch.take("shifted", (n_rec, c_out, kt, n_freq, n_time),
                           grad.dtype)
    for dt, shift in enumerate(_tap_shifts(kt, time_dilation)):
        lane = shifted[:, :, dt]
        if abs(shift) >= n_time:
            lane[...] = 0
        elif shift > 0:
            lane.reshape(n_rec, c_out, n_flat)[..., shift:] = \
                grad_flat[..., :n_flat - shift]
            lane[..., :shift] = 0
        else:
            lane.reshape(n_rec, c_out, n_flat)[..., :n_flat + shift] = \
                grad_flat[..., -shift:]
            lane[..., n_time + shift:] = 0
    s_flat = shifted.reshape(n_rec, c_out * kt, n_flat)
    # Weight gradient: harmonic ``k``'s kernels contract the taps against
    # its in-band prefix (the union of the bands that read it), one GEMM
    # per harmonic into its own columns.
    grad_w = np.empty((n_rec, c_out * kt, n_harm * c_in),
                      dtype=np.result_type(s_flat, g_flat))
    for k, (n_valid, _, _, _) in enumerate(lanes):
        cols = slice(0, n_valid * n_time)
        chans = slice(k * c_in, (k + 1) * c_in)
        np.matmul(s_flat[:, :, cols],
                  g_flat[:, chans, cols].transpose(0, 2, 1),
                  out=grad_w[:, :, chans])
    grad_w = grad_w.reshape(n_rec, c_out, kt, n_harm, c_in).transpose(
        0, 1, 4, 3, 2
    )
    grad_b = grad.sum(axis=(2, 3))
    grad_x = None
    if need_input:
        # Input gradient back through the gather, band by band (only
        # in-band lanes are computed), then the adjoint of each harmonic
        # lane's copy.
        grad_g = scratch.take("grad_in", (n_rec, n_harm * c_in, n_flat),
                              np.result_type(w_fold, s_flat))
        w_t = w_fold.transpose(0, 2, 1)
        for j, lo, hi in bands:
            cols = slice(lo * n_time, hi * n_time)
            np.matmul(w_t[:, :j * c_in], s_flat[:, :, cols],
                      out=grad_g[:, :j * c_in, cols])
        grad_g = grad_g.reshape(n_rec, n_harm, c_in, n_freq, n_time)
        scatter = list(enumerate(lanes))
        if lanes[0][1] == slice(0, n_freq, 1):
            # Harmonic 1 at anchor 1 reads every bin once: its lane is
            # the start of the input gradient, in place.
            grad_x = grad_g[:, 0]
            scatter = scatter[1:]
        else:
            grad_x = scratch.take("grad_x", x_shape, grad.dtype)
            grad_x.fill(0)
        for k, (n_valid, row_slice, rows, unique) in scatter:
            source = grad_g[:, k, :, :n_valid]
            if rows is None:
                grad_x[:, :, row_slice] += source
                continue
            target = np.moveaxis(grad_x, 2, 0)
            source = np.moveaxis(source, 2, 0)
            if unique:
                target[rows] += source
            else:
                np.add.at(target, rows, source)
    return grad_x, grad_w, grad_b


# --------------------------------------------------------------------- #
# Instance normalisation fused with its leaky ReLU
# --------------------------------------------------------------------- #
def instance_norm_forward(x: np.ndarray, weight: np.ndarray,
                          bias: np.ndarray, eps: float,
                          negative_slope: float, scratch: Workspace,
                          save: bool = True, saved: Optional[dict] = None):
    """Per-sample, per-channel normalisation, then a leaky ReLU.

    ``x`` is ``(N, C, H, W)``; each ``(n, c)`` map is normalised over its
    ``H * W`` cells (biased variance, ``eps`` inside the square root),
    scaled and shifted by the affine ``weight``/``bias`` — ``(N, C)``
    (one pair per record) or ``(C,)`` (shared) — and rectified with
    slope ``negative_slope`` in ``[0, 1)``: the conv block's
    norm-then-activate stage.  The normalised activations and the ReLU
    mask are written into ``saved`` (see :func:`saved_array`), and the
    rectifier's slope product is a ``scratch`` transient.
    """
    n, c = x.shape[:2]
    # ``x.mean`` without its Python wrapper: the same sum and divide.
    mean = np.add.reduce(x, axis=(2, 3), keepdims=True)
    mean /= x[0, 0].size
    xhat = np.subtract(x, mean,
                       out=saved_array(saved, "xhat", x.shape, x.dtype))
    var = np.einsum("nchw,nchw->nc", xhat, xhat) * (1.0 / (x[0, 0].size))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[:, :, None, None]
    scale = weight.reshape(-1, c)[:, :, None, None]
    out = xhat * scale
    out += bias.reshape(-1, c)[:, :, None, None]
    positive = None
    if save:
        positive = np.greater(
            out, 0, out=saved_array(saved, "positive", out.shape, bool)
        )
    # max(u, s*u) is leaky ReLU for 0 <= s < 1, without a masked pass.
    np.maximum(out, np.multiply(
        out, negative_slope,
        out=scratch.take("slope", out.shape, out.dtype),
    ), out=out)
    ctx = (xhat, inv_std, scale, positive, negative_slope) if save else None
    return out, ctx


def instance_norm_backward(ctx, grad: np.ndarray, scratch: Workspace):
    """Adjoint of :func:`instance_norm_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``; the affine gradients
    are ``(N, C)`` (callers sum them to a shared weight's shape).  The
    rectified gradient is a ``scratch`` transient, and ``grad_x`` is a
    ``scratch`` array too (role ``"norm_grad"``), valid until the next
    normalisation's backward.
    """
    xhat, inv_std, scale, positive, negative_slope = ctx
    slope = scratch.take("slope", grad.shape, grad.dtype)
    np.copyto(slope, positive)
    np.maximum(slope, negative_slope, out=slope)
    grad = np.multiply(grad, slope, out=slope)
    count = xhat[0, 0].size
    grad_b = grad.sum(axis=(2, 3))
    grad_w = np.einsum("nchw,nchw->nc", grad, xhat)
    # d/dx of (x - mean) * inv_std, through both the mean and the
    # variance:  inv_std * (g - mean(g) - xhat * mean(g * xhat)).
    grad_x = np.multiply(
        xhat, (grad_w * (-1.0 / count))[:, :, None, None],
        out=scratch.take("norm_grad", xhat.shape,
                         np.result_type(xhat, grad_w)),
    )
    grad_x += grad
    grad_x -= (grad_b * (1.0 / count))[:, :, None, None]
    grad_x *= (scale[:, :, 0, 0] * inv_std)[:, :, None, None]
    return grad_x, grad_w, grad_b


# --------------------------------------------------------------------- #
# Pooling and upsampling
# --------------------------------------------------------------------- #
def _window_taps(kh: int, kw: int, oh: int, ow: int) -> tuple:
    """Strided ``(rows, cols)`` slices of each tap of a pooling window."""
    return tuple(
        (slice(di, di + kh * oh, kh), slice(dj, dj + kw * ow, kw))
        for di in range(kh) for dj in range(kw)
    )


def max_pool2d_forward(x: np.ndarray, kernel, save: bool = True,
                       saved: Optional[dict] = None):
    """Non-overlapping max pooling over raw arrays; remainder dropped.

    Walks the ``kh * kw`` window taps as strided views, keeping the
    first maximum of each window (the ``argmax`` tie rule) in an arg-max
    map written into ``saved`` (see :func:`saved_array`).
    """
    kh, kw = kernel
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    if oh == 0 or ow == 0:
        raise ShapeError(f"max_pool2d kernel {kernel} larger than input {x.shape}")
    taps = _window_taps(kh, kw, oh, ow)
    out = x[:, :, taps[0][0], taps[0][1]].copy()
    arg = None
    if save:
        arg = saved_array(saved, "arg", out.shape, np.int8)
        arg.fill(0)
    for j, (rows, cols) in enumerate(taps[1:], start=1):
        tap = x[:, :, rows, cols]
        if save:
            arg += (tap > out) * (j - arg)
        np.maximum(out, tap, out=out)
    return out, ((arg, x.shape, kernel) if save else None)


def max_pool2d_backward(ctx, grad: np.ndarray,
                        scratch: Workspace) -> np.ndarray:
    """Adjoint of :func:`max_pool2d_forward`: route to each window's max.

    The result is a ``scratch`` array (role ``"pool"``).
    """
    arg, in_shape, (kh, kw) = ctx
    full = scratch.take("pool", in_shape, grad.dtype)
    full.fill(0)
    hit = scratch.take("pool_hit", arg.shape, bool)
    for j, (rows, cols) in enumerate(
            _window_taps(kh, kw, grad.shape[2], grad.shape[3])):
        np.multiply(grad, np.equal(arg, j, out=hit),
                    out=full[:, :, rows, cols])
    return full


def upsample_nearest_forward(x: np.ndarray, scale, size=None,
                             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Nearest-neighbour upsampling of the two spatial axes.

    ``size`` crops or zero-pads the result to exactly ``(H, W)`` (the
    U-Net decoder matching a skip connection); ``out`` receives the
    result in place (the decoder's concatenation buffer).
    """
    sh, sw = scale
    n, c, h, w = x.shape
    size = (h * sh, w * sw) if size is None else tuple(size)
    if out is None:
        out = np.empty((n, c) + size, dtype=x.dtype)
    for i in range(sh):
        rows = min(h, len(range(i, size[0], sh)))
        for j in range(sw):
            cols = min(w, len(range(j, size[1], sw)))
            out[:, :, i: i + sh * rows: sh, j: j + sw * cols: sw] = \
                x[:, :, :rows, :cols]
    out[:, :, sh * h:] = 0
    out[:, :, :, sw * w:] = 0
    return out


def upsample_nearest_backward(grad: np.ndarray, scale, in_shape,
                              scratch: Workspace) -> np.ndarray:
    """Adjoint of :func:`upsample_nearest_forward`: sum each cell's copies.

    The result is a ``scratch`` array (role ``"upsample"``).
    """
    sh, sw = scale
    h, w = in_shape[2], in_shape[3]
    size = grad.shape[2:]
    out = scratch.take("upsample", in_shape, grad.dtype)
    out.fill(0)
    for i in range(sh):
        rows = min(h, len(range(i, size[0], sh)))
        for j in range(sw):
            cols = min(w, len(range(j, size[1], sw)))
            out[:, :, :rows, :cols] += \
                grad[:, :, i: i + sh * rows: sh, j: j + sw * cols: sw]
    return out

