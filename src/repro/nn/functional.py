"""Neural-network operators built on the :class:`repro.nn.tensor.Tensor` autograd.

Implements the operators the SpAc LU-Net needs, most importantly the
*dilated harmonic convolution* of the paper (Eqs. 1, 2 and 8): at output
frequency ``f`` the kernel reads input bins ``round(k * f / anchor)`` for
harmonics ``k = 1..H`` and time offsets spaced ``dilation`` frames apart.

Standard 2-D convolution (used by the "conventional CNN" variant of Fig. 3),
pooling and nearest-neighbour upsampling are also provided.  All operators
register hand-written backward closures on the autograd graph — cheaper and
far more memory-friendly than composing them from primitive ops.

Both convolutions run per *record*: a 5-D kernel ``(R, C_out, C_in, K1,
K2)`` holds one kernel per record and contracts only against record ``r``
of an ``(R, C_in, ...)`` input, which is how one stacked deep-prior fit
advances R independent networks at once (:mod:`repro.nn.batchfit`).  A
plain 4-D kernel is a stack of one record.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.backend import active_backend
from repro.errors import ConfigurationError, ShapeError
from repro.nn.tensor import Tensor, astensor


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ConfigurationError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


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
    """Per-harmonic gather plan of the frequency remap.

    The in-band rows of :func:`harmonic_index_map` are always a prefix
    (the index ``round(k f / anchor)`` is non-decreasing), so each
    harmonic gathers ``n_valid`` rows and zero-fills the rest.  When the
    row indices form an arithmetic progression (always true for
    ``anchor = 1``, where harmonic ``k`` reads rows ``0, k, 2k, ...``)
    the gather is a strided slice copy instead of fancy indexing.

    Returns one ``(n_valid, row_slice_or_None, rows_or_None)`` triple per
    harmonic: exactly one of the last two is set.
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
                (n_valid, slice(start, start + step * n_valid, step), None)
            )
        else:
            rows = np.ascontiguousarray(rows)
            rows.setflags(write=False)
            plan.append((n_valid, None, rows))
    return tuple(plan)


@lru_cache(maxsize=256)
def harmonic_scatter_plan(n_freq: int, n_harmonics: int, anchor: int) -> tuple:
    """Per-harmonic adjoint-scatter plan of the frequency gather.

    For each harmonic row of :func:`harmonic_index_map`, precomputes the
    in-band source rows, their target input bins, and whether those bins
    are duplicate-free.  Unique rows scatter with a plain fancy-index
    ``+=`` (one vectorised add); only rows with duplicate targets (which
    occur when ``anchor > k``, e.g. the Zhang-baseline ``anchor=2``) need
    the much slower ``np.add.at``.
    """
    indices, valid = harmonic_index_map(n_freq, n_harmonics, anchor)
    plan = []
    for k in range(n_harmonics):
        rows = np.flatnonzero(valid[k])
        targets = indices[k][rows]
        rows.setflags(write=False)
        targets.setflags(write=False)
        plan.append((rows, targets, np.unique(targets).size == targets.size))
    return tuple(plan)


# --------------------------------------------------------------------- #
# Per-record convolutions
# --------------------------------------------------------------------- #
def _per_record(x: Tensor, weight: Tensor, bias: Optional[Tensor], op: str):
    """Check a convolution's operands and give its kernels a record axis.

    Returns the kernels as ``(R, C_out, C_in, K1, K2)`` and the bias (or
    ``None``) as ``(R, C_out)``.  A 4-D ``weight`` is a stack of one
    record; either way record ``r`` of ``x`` is the one sample record
    ``r``'s kernels see.
    """
    if x.ndim != 4:
        raise ShapeError(f"{op} input must be 4-D, got {x.shape}")
    if weight.ndim not in (4, 5):
        raise ShapeError(
            f"{op} weight must be 4-D (O, C, K1, K2) or 5-D "
            f"(R, O, C, K1, K2), got {weight.shape}"
        )
    w = weight.data if weight.ndim == 5 else weight.data[None]
    if x.shape[0] != w.shape[0]:
        raise ShapeError(
            f"{op} input has {x.shape[0]} records but the weight holds "
            f"{w.shape[0]}"
        )
    if x.shape[1] != w.shape[2]:
        raise ShapeError(
            f"input has {x.shape[1]} channels but weight expects {w.shape[2]}"
        )
    b = None if bias is None else bias.data.reshape(w.shape[:2])
    return w, b


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    padding=0,
) -> Tensor:
    """Per-record 2-D cross-correlation (stride 1), NCHW layout.

    Parameters
    ----------
    x:
        Input of shape ``(R, C_in, H, W)`` — one sample per record.
    weight:
        Per-record kernels ``(R, C_out, C_in, KH, KW)``, or one kernel
        ``(C_out, C_in, KH, KW)`` (a stack of one record).
    bias:
        Optional bias ``(R, C_out)`` (``(C_out,)`` for one kernel).
    padding:
        Int or pair, symmetric zero-padding of the two spatial axes.

    Record ``r`` of the output depends only on record ``r`` of the input
    and kernels: ``R`` independent convolutions fused into one graph node.
    """
    x = astensor(x)
    weight = astensor(weight)
    w, b = _per_record(x, weight, bias, "conv2d")
    ph, pw = _pair(padding)
    n_rec, _, h, width = x.shape
    c_out, kh, kw = w.shape[1], w.shape[3], w.shape[4]

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) \
        if (ph or pw) else x.data
    oh, ow, taps = conv_tap_plan(xp.shape[2], xp.shape[3], kh, kw)
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"conv2d output would be empty: input {x.shape}, kernel "
            f"{weight.shape}, padding {(ph, pw)}"
        )

    backend = active_backend()
    out_data = np.zeros((n_rec, c_out, oh, ow), dtype=x.dtype)
    # Loop over kernel taps; each tap is one batched GEMM.  kh*kw is
    # small (<= 9 here) so this beats materialising an im2col buffer.
    for (di, dj), (sl_h, sl_w) in taps:
        out_data += backend.einsum(
            "roc,rchw->rohw", w[:, :, :, di, dj], xp[:, :, sl_h, sl_w]
        )
    if b is not None:
        out_data += b.reshape(n_rec, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make(out_data, parents, "conv2d")

    def backward(grad):
        grad_xp = np.zeros(xp.shape, dtype=x.dtype)
        grad_w = np.zeros_like(w)
        for (di, dj), (sl_h, sl_w) in taps:
            grad_w[:, :, :, di, dj] = backend.einsum(
                "rohw,rchw->roc", grad, xp[:, :, sl_h, sl_w]
            )
            grad_xp[:, :, sl_h, sl_w] += backend.einsum(
                "roc,rohw->rchw", w[:, :, :, di, dj], grad
            )
        grad_x = grad_xp[:, :, ph: ph + h, pw: pw + width] if (ph or pw) \
            else grad_xp
        grads = [grad_x, grad_w.reshape(weight.shape)]
        if bias is not None:
            grads.append(grad.sum(axis=(2, 3)).reshape(bias.shape))
        return tuple(grads)

    Tensor._attach(out, parents, backward, "conv2d")
    return out


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


def harmonic_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    anchor: int = 1,
    time_dilation: int = 1,
) -> Tensor:
    """Per-record dilated harmonic convolution over (frequency, time) maps.

    Implements Eq. 8 of the paper::

        (X * K)[f, t] = sum_{k=1..H} sum_{dt=-T..T}
                        X[round(k f / anchor), t - time_dilation * dt] K[k, dt]

    Parameters
    ----------
    x:
        Input of shape ``(R, C_in, F, T)`` — one sample per record.
    weight:
        Per-record kernels ``(R, C_out, C_in, H, KT)``, or one kernel
        ``(C_out, C_in, H, KT)`` (a stack of one record) — ``H``
        harmonics tall, ``KT`` (odd) time taps wide.
    bias:
        Optional bias ``(R, C_out)`` (``(C_out,)`` for one kernel).
    anchor:
        Harmonic anchor ``n`` from Eq. 2.  ``anchor=1`` restricts access to
        forward integral multiples only (the paper's spectrally-accurate
        choice); larger anchors permit backward/fractional harmonics.
    time_dilation:
        Spacing ``D_conv`` between time taps (Eq. 8).

    Output has the same ``F`` and ``T`` as the input (time is
    zero-padded); record ``r`` depends only on record ``r`` of the input
    and kernels.
    """
    x = astensor(x)
    weight = astensor(weight)
    w, b = _per_record(x, weight, bias, "harmonic_conv2d")
    if time_dilation < 1:
        raise ConfigurationError(f"time_dilation must be >= 1, got {time_dilation}")
    n_rec, c_in, n_freq, n_time = x.shape
    c_out, n_harm, kt = w.shape[1], w.shape[3], w.shape[4]
    if kt % 2 == 0:
        raise ConfigurationError(f"time kernel size must be odd, got {kt}")

    gather_plan = harmonic_gather_plan(n_freq, n_harm, anchor)
    scatter_plan = harmonic_scatter_plan(n_freq, n_harm, anchor)
    pad_t = (kt // 2) * time_dilation
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, 0), (pad_t, pad_t))) \
        if pad_t else x.data
    n_tp = xp.shape[-1]

    # One frequency gather per call: (R, C, H, F, Tp).  Each harmonic
    # lane is a strided slice copy (or a fancy gather of its in-band
    # prefix) with the out-of-band tail zero-filled.
    gather_shape = (n_rec, c_in, n_harm, n_freq, n_tp)
    gathered = np.empty(gather_shape, dtype=x.dtype)
    for k, (n_valid, row_slice, rows) in enumerate(gather_plan):
        lane = gathered[:, :, k]
        lane[:, :, :n_valid] = xp[:, :, row_slice if rows is None else rows]
        lane[:, :, n_valid:] = 0

    # One batched GEMM contracts the whole (channel, harmonic) axis
    # against the un-duplicated gather buffer:
    #     tmp[r, (o, dt), (f, tp)] = sum_(c,h) w[r, o, c, h, dt] * g[r, (c,h), (f,tp)]
    # and the KT tap outputs are then overlap-added at their dilated time
    # offsets, so each input cell is touched once per layer.
    backend = active_backend()
    w_fold = np.ascontiguousarray(w.transpose(0, 1, 4, 2, 3)).reshape(
        n_rec, c_out * kt, c_in * n_harm
    )
    g_flat = gathered.reshape(n_rec, c_in * n_harm, n_freq * n_tp)
    tmp_taps = backend.matmul(w_fold, g_flat).reshape(
        n_rec, c_out, kt, n_freq, n_tp
    )
    out_data = np.zeros((n_rec, c_out, n_freq, n_time), dtype=x.dtype)
    for dt in range(kt):
        t0 = dt * time_dilation
        out_data += tmp_taps[:, :, dt, :, t0: t0 + n_time]
    if b is not None:
        out_data += b.reshape(n_rec, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make(out_data, parents, "harmonic_conv2d")

    def backward(grad):
        # Adjoint of the overlap-add: each tap sees ``grad`` in its own
        # dilated window and zero elsewhere.
        grad_tmp = np.zeros((n_rec, c_out, kt, n_freq, n_tp), dtype=x.dtype)
        for dt in range(kt):
            t0 = dt * time_dilation
            grad_tmp[:, :, dt, :, t0: t0 + n_time] = grad
        gt_flat = grad_tmp.reshape(n_rec, c_out * kt, n_freq * n_tp)
        # Weight gradient: contract the taps against the gather buffer.
        grad_w = backend.matmul(gt_flat, g_flat.transpose(0, 2, 1)).reshape(
            n_rec, c_out, kt, c_in, n_harm
        ).transpose(0, 1, 3, 4, 2)
        # Input gradient back through the gather: a scatter-add per
        # harmonic along the cached plan.  Only in-band rows scatter, and
        # duplicate-free targets (always the case for anchor = 1) take the
        # plain fancy-index ``+=``.
        grad_gathered = backend.matmul(
            w_fold.transpose(0, 2, 1), gt_flat
        ).reshape(gather_shape)
        grad_xp = np.zeros(xp.shape, dtype=x.dtype)
        moved = np.moveaxis(grad_xp, 2, 0)   # (F, R, C, Tp) view
        for k, (rows, targets, is_unique) in enumerate(scatter_plan):
            source = np.moveaxis(grad_gathered[:, :, k], 2, 0)[rows]
            backend.index_add(moved, targets, source, unique=is_unique)
        grad_x = grad_xp[:, :, :, pad_t: pad_t + n_time] if pad_t else grad_xp
        grads = [grad_x, grad_w.reshape(weight.shape)]
        if bias is not None:
            grads.append(grad.sum(axis=(2, 3)).reshape(bias.shape))
        return tuple(grads)

    Tensor._attach(out, parents, backward, "harmonic_conv2d")
    return out


# --------------------------------------------------------------------- #
# Pooling and upsampling
# --------------------------------------------------------------------- #
def avg_pool2d(x: Tensor, kernel) -> Tensor:
    """Non-overlapping average pooling; trailing remainder is dropped."""
    x = astensor(x)
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d input must be 4-D, got {x.shape}")
    kh, kw = _pair(kernel)
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    if oh == 0 or ow == 0:
        raise ShapeError(f"avg_pool2d kernel {kernel} larger than input {x.shape}")
    trimmed = x.data[:, :, : oh * kh, : ow * kw]
    out_data = trimmed.reshape(n, c, oh, kh, ow, kw).mean(axis=(3, 5))
    out = x._make(out_data, (x,), "avg_pool2d")

    def backward(grad):
        g = np.broadcast_to(
            grad[:, :, :, None, :, None], (n, c, oh, kh, ow, kw)
        ).reshape(n, c, oh * kh, ow * kw) / (kh * kw)
        full = np.zeros((n, c, h, w), dtype=grad.dtype)
        full[:, :, : oh * kh, : ow * kw] = g
        return (full,)

    Tensor._attach(out, (x,), backward, "avg_pool2d")
    return out


def max_pool2d(x: Tensor, kernel) -> Tensor:
    """Non-overlapping max pooling; trailing remainder is dropped."""
    x = astensor(x)
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d input must be 4-D, got {x.shape}")
    kh, kw = _pair(kernel)
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    if oh == 0 or ow == 0:
        raise ShapeError(f"max_pool2d kernel {kernel} larger than input {x.shape}")
    windows = x.data[:, :, : oh * kh, : ow * kw].reshape(n, c, oh, kh, ow, kw)
    flat = windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, kh * kw)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    out = x._make(out_data, (x,), "max_pool2d")

    def backward(grad):
        grad_flat = np.zeros_like(flat)
        np.put_along_axis(grad_flat, arg[..., None], grad[..., None], axis=-1)
        g = grad_flat.reshape(n, c, oh, ow, kh, kw).transpose(0, 1, 2, 4, 3, 5)
        full = np.zeros((n, c, h, w), dtype=grad.dtype)
        full[:, :, : oh * kh, : ow * kw] = g.reshape(n, c, oh * kh, ow * kw)
        return (full,)

    Tensor._attach(out, (x,), backward, "max_pool2d")
    return out


def upsample_nearest(x: Tensor, scale) -> Tensor:
    """Nearest-neighbour upsampling of the two spatial axes."""
    x = astensor(x)
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest input must be 4-D, got {x.shape}")
    sh, sw = _pair(scale)
    n, c, h, w = x.shape
    out_data = np.repeat(np.repeat(x.data, sh, axis=2), sw, axis=3)
    out = x._make(out_data, (x,), "upsample_nearest")

    def backward(grad):
        g = grad.reshape(n, c, h, sh, w, sw).sum(axis=(3, 5))
        return (g,)

    Tensor._attach(out, (x,), backward, "upsample_nearest")
    return out


def crop_or_pad_time(x: Tensor, target_len: int) -> Tensor:
    """Crop or zero-pad the last (time) axis to exactly ``target_len``.

    Used by the U-Net decoder to match skip-connection lengths when the
    input time extent is not a power-of-two multiple.
    """
    x = astensor(x)
    current = x.shape[-1]
    if current == target_len:
        return x
    if current > target_len:
        index = (slice(None),) * (x.ndim - 1) + (slice(0, target_len),)
        return x[index]
    pad_width = [(0, 0)] * (x.ndim - 1) + [(0, target_len - current)]
    return x.pad(pad_width)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or ``p == 0``."""
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout p must be in [0, 1), got {p}")
    x = astensor(x)
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    keep = keep.astype(x.dtype)
    out = x._make(x.data * keep, (x,), "dropout")
    Tensor._attach(out, (x,), lambda g: (g * keep,), "dropout")
    return out
