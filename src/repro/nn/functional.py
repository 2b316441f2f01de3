"""The SpAc LU-Net's kernels, as builders of replayable NumPy calls.

Implements the operators the SpAc LU-Net needs, most importantly the
*dilated harmonic convolution* of the paper (Eqs. 1, 2 and 8): at output
frequency ``f`` the kernel reads input bins ``round(k * f / anchor)`` for
harmonics ``k = 1..H`` and time offsets spaced ``dilation`` frames apart.

Standard 2-D convolution (used by the "conventional CNN" variant of Fig. 3),
instance normalisation fused with its leaky ReLU, max pooling and
nearest-neighbour upsampling are also provided.

Every operator exists once, as a **builder** that computes nothing.
``<op>(x, ...)`` allocates what the operator writes and returns ``(out,
forward, backward)``: its output array, its forward as a list of NumPy
calls with every operand, view and ``out=`` already bound, and
``backward(grad, ...)``, which builds the adjoint the same way around
``grad``, the array the incoming gradient will be in, and returns the
gradient arrays its calls write together with the calls.  :func:`run`
replays a list: once the input (and the parameter arrays the kernels
view) hold new values, replaying the forward recomputes ``out``, and
once ``grad`` does, replaying the backward recomputes the gradients.
Backward calls never write into ``grad``.  The one caller is
:class:`repro.nn.unet.SpAcLUNet`, which builds its whole network's two
lists once per fit and replays them every iteration.

Memory comes from three places.  What an operator saves for its adjoint
is an array of its own.  Its output is one too: a convolution's always
(the instance norm after it normalises it in place and keeps it), and
the norm's, the pool's or the upsample's unless the caller hands it the
array the consumer keeps (``out``).  What lives only within a call (tap
outputs, shifted gradients, GEMM outputs, normalisation and pooling
temporaries), and the input gradient a backward hands to the next
layer's adjoint, is a view of the network's one :class:`Workspace`: a
flat buffer per role, shared by every layer.

Both convolutions run per *record*: a 5-D kernel ``(R, C_out, C_in, K1,
K2)`` holds one kernel per record and contracts only against record ``r``
of an ``(R, C_in, ...)`` input, which is how one stacked deep-prior fit
advances R independent networks at once (:mod:`repro.nn.batchfit`).
:func:`record_kernels` gives a plain 4-D kernel its record axis, as a
stack of one.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Callable, List, Optional

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


class Workspace:
    """A network's scratch memory: one flat buffer per role.

    Every layer takes its transients of a role from the start of the
    same buffer, which grows to the largest layer's request and is then
    reused, so it stays warm in cache from one layer to the next.  A
    role's contents are valid only until the next call that writes that
    role; a backward that hands a scratch array on (its input gradient)
    relies on its consumer writing other roles first.  A view taken
    before its role grew still points into the superseded buffer, so a
    caller that keeps views sizes every role before it takes any (see
    the plans of :mod:`repro.nn.unet`).  A workspace belongs to one plan.
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


def run(calls: List[Callable[[], object]]) -> None:
    """Replay a builder's bound calls, in order."""
    for call in calls:
        call()


def reshape_view(array: np.ndarray, shape: tuple) -> np.ndarray:
    """``array`` reshaped to ``shape`` as a view, never a copy.

    A bound call must see every later write into the array it views (a
    parameter updated in place, a gradient written by the previous
    layer), so a reshape that would copy raises instead.  (A copy is a
    fresh allocation, so it never overlaps the memory of ``array``.)
    """
    view = array.reshape(shape)
    if view.size and not np.may_share_memory(view, array):
        raise ShapeError(
            f"cannot view an array of shape {array.shape} and strides "
            f"{array.strides} as {shape} without copying it"
        )
    return view


def _zeroing(view: np.ndarray) -> list:
    """The call that zeroes ``view``; none when it is empty."""
    return [partial(view.fill, 0)] if view.size else []


def _scatter_add(target: np.ndarray, rows: np.ndarray,
                 source: np.ndarray) -> None:
    """``target[rows] += source`` for duplicate-free ``rows``."""
    target[rows] += source


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
    return w, reshape_view(bias, w.shape[:2])


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, scratch: Workspace,
           padding=(0, 0)):
    """Per-record stride-1 cross-correlation over raw arrays.

    ``x`` is ``(R, C_in, H, W)``, ``w`` ``(R, C_out, C_in, KH, KW)`` and
    ``b`` ``(R, C_out)``; ``padding`` zero-pads ``(H, W)`` by ``(PH,
    PW)`` on both sides.  The input is unfolded into an
    ``(R, C_in*KH*KW, OH*OW)`` column buffer (for a 1x1 kernel without
    padding, a view of ``x`` itself, which must allow one) and
    contracted in one batched GEMM into a new ``(R, C_out, OH, OW)``
    output array; the column buffer is what the adjoint reads.  The
    padded input is a ``scratch`` transient.

    ``backward(grad, need_input=True)`` returns ``(grad_x, grad_w,
    grad_b, calls)``.  ``grad_x`` is ``None`` unless ``need_input``; it
    is a ``scratch`` array (roles ``"grad_in"`` and ``"grad_x"``),
    valid until the next convolution's backward calls.
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
    pointwise = kh == kw == 1 and not (ph or pw)
    forward = []
    if pointwise:
        cols = reshape_view(x, (n_rec, c_in, h * width))
    else:
        xp = x
        if ph or pw:
            xp = scratch.take("padded",
                              (n_rec, c_in, h + 2 * ph, width + 2 * pw),
                              x.dtype)
            forward += [
                partial(xp.fill, 0),
                partial(np.copyto, xp[:, :, ph: ph + h, pw: pw + width], x),
            ]
        unfolded = np.empty((n_rec, c_in, kh, kw, oh, ow), dtype=x.dtype)
        forward += [
            partial(np.copyto, unfolded[:, :, di, dj], xp[:, :, sl_h, sl_w])
            for (di, dj), (sl_h, sl_w) in taps
        ]
        cols = unfolded.reshape(n_rec, c_in * kh * kw, oh * ow)
    w_flat = reshape_view(w, (n_rec, c_out, c_in * kh * kw))
    out = np.empty((n_rec, c_out, oh, ow), dtype=np.result_type(w_flat, cols))
    out_flat = reshape_view(out, (n_rec, c_out, oh * ow))
    forward += [
        partial(np.matmul, w_flat, cols, out_flat),
        partial(np.add, out_flat, b[:, :, None], out_flat),
    ]

    def backward(grad: np.ndarray, need_input: bool = True):
        g = reshape_view(grad, (n_rec, c_out, oh * ow))
        grad_w = np.empty((n_rec, c_out, cols.shape[1]),
                          dtype=np.result_type(g, cols))
        grad_b = np.empty((n_rec, c_out), dtype=grad.dtype)
        calls = [
            partial(np.matmul, g, cols.transpose(0, 2, 1), grad_w),
            # grad.sum(axis=(2, 3))
            partial(np.add.reduce, grad, (2, 3), None, grad_b),
        ]
        grad_x = None
        if need_input:
            grad_cols = scratch.take("grad_in",
                                     (n_rec, cols.shape[1], oh * ow),
                                     np.result_type(w_flat, g))
            calls.append(
                partial(np.matmul, w_flat.transpose(0, 2, 1), g, grad_cols)
            )
            if pointwise:
                grad_x = grad_cols.reshape(x.shape)
            else:
                grad_cols = grad_cols.reshape(n_rec, c_in, kh, kw, oh, ow)
                grad_xp = scratch.take(
                    "grad_x", (n_rec, c_in, h + 2 * ph, width + 2 * pw),
                    grad.dtype,
                )
                calls.append(partial(grad_xp.fill, 0))
                for (di, dj), (sl_h, sl_w) in taps:
                    window = grad_xp[:, :, sl_h, sl_w]
                    calls.append(partial(np.add, window,
                                         grad_cols[:, :, di, dj], window))
                grad_x = grad_xp[:, :, ph: ph + h, pw: pw + width]
        return grad_x, grad_w.reshape(w.shape), grad_b, calls

    return out, forward, backward


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


def harmonic_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                    scratch: Workspace, anchor: int = 1,
                    time_dilation: int = 1,
                    gathered: Optional[np.ndarray] = None):
    """Per-record dilated harmonic convolution over raw arrays (Eq. 8)::

        out[r, o, f, t] = b[r, o] + sum_{c, k=1..H, dt}
            w[r, o, c, k - 1, dt] * x[r, c, round(k f / anchor), t + s(dt)]

    with tap shifts ``s(dt) = (dt - KT // 2) * time_dilation``.  Input
    bins outside ``[0, F)`` and frames outside ``[0, T)`` read zero.
    ``x`` is ``(R, C_in, F, T)``, ``w`` ``(R, C_out, C_in, H, KT)`` (odd
    ``KT``) and ``b`` ``(R, C_out)``; the output is a new ``(R, C_out,
    F, T)`` array.  ``anchor = 1`` accesses forward integral harmonics
    only (the paper's spectrally accurate choice); larger anchors permit
    fractional ones.

    The input is gathered into a harmonic-major ``(R, H, C_in, F, T)``
    buffer that the adjoint reads.  At ``anchor = 1`` harmonic 1 reads
    every bin once, so its lane is the input itself: a caller that wrote
    ``x`` as lane 0 of a buffer of that shape passes the buffer as
    ``gathered``, and the lane is not copied.  The GEMM's tap outputs are
    a ``scratch`` transient.

    ``backward(grad, need_input=True)`` returns ``(grad_x, grad_w,
    grad_b, calls)``; ``grad_x`` is ``None`` unless ``need_input`` (a
    fit's code needs no gradient, so its first layer skips the input
    GEMM and scatter).  The shifted gradients and the input-gradient GEMM
    outputs are ``scratch`` transients, and ``grad_x`` is a ``scratch``
    array too (roles ``"grad_in"`` and ``"grad_x"``), valid until the
    next convolution's backward calls.
    """
    if time_dilation < 1:
        raise ConfigurationError(f"time_dilation must be >= 1, got {time_dilation}")
    n_rec, c_in, n_freq, n_time = x.shape
    c_out, n_harm, kt = w.shape[1], w.shape[3], w.shape[4]
    if kt % 2 == 0:
        raise ConfigurationError(f"time kernel size must be odd, got {kt}")
    lanes = harmonic_gather_plan(n_freq, n_harm, anchor)
    bands = harmonic_band_plan(n_freq, n_harm, anchor)
    identity_lane = lanes[0][1] == slice(0, n_freq, 1)

    # One frequency gather per call into the harmonic-major buffer.  Each
    # harmonic lane is a strided slice copy (or a fancy gather) of its
    # in-band prefix only: the bands below never read the out-of-band
    # tail, so it is left unwritten.
    forward = []
    copied = list(enumerate(lanes))
    if gathered is None:
        gathered = np.empty((n_rec, n_harm, c_in, n_freq, n_time),
                            dtype=x.dtype)
    elif identity_lane:
        copied = copied[1:]
    else:
        raise ConfigurationError(
            f"only an identity harmonic-1 lane can hold the input; "
            f"anchor {anchor} has none"
        )
    for k, (n_valid, row_slice, rows, _) in copied:
        lane = gathered[:, k, :, :n_valid]
        if rows is None:
            forward.append(partial(np.copyto, lane, x[:, :, row_slice]))
        else:
            forward.append(partial(np.take, x, rows, axis=2, out=lane))
    n_flat = n_freq * n_time
    g_flat = gathered.reshape(n_rec, n_harm * c_in, n_flat)
    w_fold = np.empty((n_rec, c_out * kt, n_harm * c_in), dtype=w.dtype)
    forward.append(partial(
        np.copyto, w_fold.reshape(n_rec, c_out, kt, n_harm, c_in),
        w.transpose(0, 1, 4, 3, 2),
    ))

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
        forward.append(partial(np.matmul, w_fold[:, :, :j * c_in],
                               g_flat[:, :j * c_in, cols], taps[:, :, cols]))
    taps = taps.reshape(n_rec, c_out, kt, n_freq, n_time)
    out = np.empty((n_rec, c_out, n_freq, n_time), dtype=x.dtype)
    out_flat = reshape_view(out, (n_rec, c_out, n_flat))
    started = False
    for dt, shift in enumerate(_tap_shifts(kt, time_dilation)):
        if abs(shift) >= n_time:
            continue
        tap = taps[:, :, dt]
        edge = tap[..., :shift] if shift > 0 else tap[..., n_time + shift:]
        forward += _zeroing(edge)
        lo, hi = max(-shift, 0), n_flat - max(shift, 0)
        window = tap.reshape(n_rec, c_out, n_flat)[..., lo + shift: hi + shift]
        target = out_flat[..., lo:hi]
        if started:
            forward.append(partial(np.add, target, window, target))
        else:
            forward += [
                *_zeroing(out_flat[..., :lo]),
                *_zeroing(out_flat[..., hi:]),
                partial(np.copyto, target, window),
            ]
            started = True
    forward.append(partial(np.add, out, b[:, :, None, None], out))

    def backward(grad: np.ndarray, need_input: bool = True):
        # Adjoint of the overlap-add: tap ``dt`` sees ``grad`` shifted
        # back onto the input frames it read (one flat copy), zero where
        # it read padding.
        grad_flat = reshape_view(grad, (n_rec, c_out, n_flat))
        shifted = scratch.take("shifted", (n_rec, c_out, kt, n_freq, n_time),
                               grad.dtype)
        calls = []
        for dt, shift in enumerate(_tap_shifts(kt, time_dilation)):
            lane = shifted[:, :, dt]
            lane_flat = lane.reshape(n_rec, c_out, n_flat)
            if abs(shift) >= n_time:
                calls.append(partial(lane.fill, 0))
            elif shift > 0:
                calls += [
                    partial(np.copyto, lane_flat[..., shift:],
                            grad_flat[..., :n_flat - shift]),
                    partial(lane[..., :shift].fill, 0),
                ]
            else:
                calls += [
                    partial(np.copyto, lane_flat[..., :n_flat + shift],
                            grad_flat[..., -shift:]),
                    *_zeroing(lane[..., n_time + shift:]),
                ]
        s_flat = shifted.reshape(n_rec, c_out * kt, n_flat)
        # Weight gradient: harmonic ``k``'s kernels contract the taps
        # against its in-band prefix (the union of the bands that read
        # it), one GEMM per harmonic into its own columns.
        grad_w = np.empty((n_rec, c_out * kt, n_harm * c_in),
                          dtype=np.result_type(s_flat, g_flat))
        for k, (n_valid, _, _, _) in enumerate(lanes):
            cols = slice(0, n_valid * n_time)
            chans = slice(k * c_in, (k + 1) * c_in)
            calls.append(partial(
                np.matmul, s_flat[:, :, cols],
                g_flat[:, chans, cols].transpose(0, 2, 1), grad_w[:, :, chans],
            ))
        grad_b = np.empty((n_rec, c_out), dtype=grad.dtype)
        # grad.sum(axis=(2, 3))
        calls.append(partial(np.add.reduce, grad, (2, 3), None, grad_b))
        grad_x = None
        if need_input:
            # Input gradient back through the gather, band by band (only
            # in-band lanes are computed), then the adjoint of each
            # harmonic lane's copy.
            grad_g = scratch.take("grad_in", (n_rec, n_harm * c_in, n_flat),
                                  np.result_type(w_fold, s_flat))
            w_t = w_fold.transpose(0, 2, 1)
            for j, lo, hi in bands:
                cols = slice(lo * n_time, hi * n_time)
                calls.append(partial(np.matmul, w_t[:, :j * c_in],
                                     s_flat[:, :, cols],
                                     grad_g[:, :j * c_in, cols]))
            grad_g = grad_g.reshape(n_rec, n_harm, c_in, n_freq, n_time)
            scatter = list(enumerate(lanes))
            if identity_lane:
                # Harmonic 1 at anchor 1 reads every bin once: its lane
                # is the start of the input gradient, in place.
                grad_x = grad_g[:, 0]
                scatter = scatter[1:]
            else:
                grad_x = scratch.take("grad_x", x.shape, grad.dtype)
                calls.append(partial(grad_x.fill, 0))
            for k, (n_valid, row_slice, rows, unique) in scatter:
                source = grad_g[:, k, :, :n_valid]
                if rows is None:
                    target = grad_x[:, :, row_slice]
                    calls.append(partial(np.add, target, source, target))
                    continue
                calls.append(partial(
                    _scatter_add if unique else np.add.at,
                    np.moveaxis(grad_x, 2, 0), rows, np.moveaxis(source, 2, 0),
                ))
        grad_w = grad_w.reshape(n_rec, c_out, kt, n_harm, c_in).transpose(
            0, 1, 4, 3, 2
        )
        return grad_x, grad_w, grad_b, calls

    return out, forward, backward


# --------------------------------------------------------------------- #
# Instance normalisation fused with its leaky ReLU
# --------------------------------------------------------------------- #
def instance_norm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                  eps: float, negative_slope: float, scratch: Workspace,
                  out: Optional[np.ndarray] = None):
    """Per-sample, per-channel normalisation, then a leaky ReLU.

    ``x`` is ``(N, C, H, W)``; each ``(n, c)`` map is normalised over its
    ``H * W`` cells (biased variance, ``eps`` inside the square root),
    scaled and shifted by the affine ``weight``/``bias`` — ``(N, C)``
    (one pair per record) or ``(C,)`` (shared) — and rectified with
    slope ``negative_slope`` in ``[0, 1)``: the conv block's
    norm-then-activate stage, written into ``out`` (a new array when
    ``None``).  ``x`` is normalised **in place**: it becomes the
    normalised activations the adjoint reads, so the layer that produced
    it hands it over.  The ReLU mask is an array of the norm's own, and
    the rectifier's slope product a ``scratch`` transient.

    ``backward(grad)`` returns ``(grad_x, grad_weight, grad_bias,
    calls)``; the affine gradients are ``(N, C)`` (callers sum them to a
    shared weight's shape).  The rectified gradient is a ``scratch``
    transient, and ``grad_x`` a ``scratch`` array too (role
    ``"norm_grad"``), valid until the next normalisation's backward
    calls.
    """
    n, c = x.shape[:2]
    count = x[0, 0].size
    xhat = x
    mean = np.empty((n, c, 1, 1), dtype=x.dtype)
    var = np.empty((n, c), dtype=x.dtype)
    inv_std = np.empty((n, c), dtype=x.dtype)
    scale = reshape_view(weight, (-1, c))
    shift = reshape_view(bias, (-1, c))
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(xhat, scale))
    positive = np.empty(out.shape, dtype=bool)
    slope = scratch.take("slope", out.shape, out.dtype)
    forward = [
        # ``x.mean``: the same sum and divide.
        partial(np.add.reduce, x, (2, 3), None, mean, True),
        partial(np.true_divide, mean, count, mean),
        partial(np.subtract, x, mean, xhat),
        partial(np.einsum, "nchw,nchw->nc", xhat, xhat, out=var),
        partial(np.multiply, var, 1.0 / count, var),
        # inv_std = 1 / sqrt(var + eps)
        partial(np.add, var, eps, inv_std),
        partial(np.sqrt, inv_std, inv_std),
        partial(np.true_divide, 1.0, inv_std, inv_std),
        partial(np.multiply, xhat, inv_std[:, :, None, None], xhat),
        partial(np.multiply, xhat, scale[:, :, None, None], out),
        partial(np.add, out, shift[:, :, None, None], out),
        partial(np.greater, out, 0, positive),
        # max(u, s*u) is leaky ReLU for 0 <= s < 1, without a masked pass.
        partial(np.multiply, out, negative_slope, slope),
        partial(np.maximum, out, slope, out=out),
    ]

    def backward(grad: np.ndarray):
        rectified = scratch.take("slope", grad.shape, grad.dtype)
        grad_b = np.empty((n, c), dtype=grad.dtype)
        grad_w = np.empty((n, c), dtype=np.result_type(grad, xhat))
        grad_x = scratch.take("norm_grad", xhat.shape,
                              np.result_type(xhat, grad_w))
        coeff = np.empty((n, c), dtype=grad_x.dtype)
        coeff_map = coeff[:, :, None, None]
        calls = [
            partial(np.copyto, rectified, positive),
            partial(np.maximum, rectified, negative_slope, out=rectified),
            partial(np.multiply, grad, rectified, rectified),
            # grad_b = rectified.sum(axis=(2, 3))
            partial(np.add.reduce, rectified, (2, 3), None, grad_b),
            partial(np.einsum, "nchw,nchw->nc", rectified, xhat, out=grad_w),
            # d/dx of (x - mean) * inv_std, through both the mean and the
            # variance:  inv_std * (g - mean(g) - xhat * mean(g * xhat)).
            partial(np.multiply, grad_w, -1.0 / count, coeff),
            partial(np.multiply, xhat, coeff_map, grad_x),
            partial(np.add, grad_x, rectified, grad_x),
            partial(np.multiply, grad_b, 1.0 / count, coeff),
            partial(np.subtract, grad_x, coeff_map, grad_x),
            partial(np.multiply, scale, inv_std, coeff),
            partial(np.multiply, grad_x, coeff_map, grad_x),
        ]
        return grad_x, grad_w, grad_b, calls

    return out, forward, backward


# --------------------------------------------------------------------- #
# Pooling and upsampling
# --------------------------------------------------------------------- #
def _window_taps(kh: int, kw: int, oh: int, ow: int) -> tuple:
    """Strided ``(rows, cols)`` slices of each tap of a pooling window."""
    return tuple(
        (slice(di, di + kh * oh, kh), slice(dj, dj + kw * ow, kw))
        for di in range(kh) for dj in range(kw)
    )


def max_pool2d(x: np.ndarray, kernel, scratch: Workspace,
               out: Optional[np.ndarray] = None):
    """Non-overlapping max pooling over raw arrays; remainder dropped.

    Walks the ``kh * kw`` window taps as strided views, keeping the
    first maximum of each window (the ``argmax`` tie rule) in an arg-max
    map of the pool's own; the comparison temporaries are ``scratch``
    transients.  The output goes to ``out`` (a new array when ``None``).

    ``backward(grad)`` returns ``(grad_x, calls)``, routing each
    window's gradient to its maximum; ``grad_x`` is a ``scratch`` array
    (role ``"pool"``).
    """
    kh, kw = kernel
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    if oh == 0 or ow == 0:
        raise ShapeError(f"max_pool2d kernel {kernel} larger than input {x.shape}")
    taps = _window_taps(kh, kw, oh, ow)
    if out is None:
        out = np.empty((n, c, oh, ow), dtype=x.dtype)
    arg = np.empty(out.shape, dtype=np.int8)
    greater = scratch.take("pool_greater", out.shape, bool)
    step = scratch.take("pool_step", out.shape, np.int8)
    forward = [
        partial(np.copyto, out, x[:, :, taps[0][0], taps[0][1]]),
        partial(arg.fill, 0),
    ]
    for j, (rows, cols) in enumerate(taps[1:], start=1):
        tap = x[:, :, rows, cols]
        forward += [
            # arg += (tap > out) * (j - arg)
            partial(np.greater, tap, out, greater),
            partial(np.subtract, j, arg, step),
            partial(np.multiply, greater, step, step),
            partial(np.add, arg, step, arg),
            partial(np.maximum, out, tap, out=out),
        ]

    def backward(grad: np.ndarray):
        full = scratch.take("pool", x.shape, grad.dtype)
        hit = scratch.take("pool_hit", arg.shape, bool)
        calls = [partial(full.fill, 0)]
        for j, (rows, cols) in enumerate(taps):
            calls += [
                partial(np.equal, arg, j, hit),
                partial(np.multiply, grad, hit, full[:, :, rows, cols]),
            ]
        return full, calls

    return out, forward, backward


def upsample_nearest(x: np.ndarray, scale, scratch: Workspace, size=None,
                     out: Optional[np.ndarray] = None):
    """Nearest-neighbour upsampling of the two spatial axes.

    ``size`` crops or zero-pads the result to exactly ``(H, W)`` (the
    U-Net decoder matching a skip connection); the result goes to
    ``out`` (a new array when ``None``; the decoder passes its
    concatenation).

    ``backward(grad)`` returns ``(grad_x, calls)``, summing each input
    cell's copies; ``grad_x`` is a ``scratch`` array (role
    ``"upsample"``).
    """
    sh, sw = scale
    n, c, h, w = x.shape
    size = (h * sh, w * sw) if size is None else tuple(size)
    if out is None:
        out = np.empty((n, c) + size, dtype=x.dtype)
    copies = []
    for i in range(sh):
        rows = min(h, len(range(i, size[0], sh)))
        for j in range(sw):
            cols = min(w, len(range(j, size[1], sw)))
            copies.append((
                (slice(i, i + sh * rows, sh), slice(j, j + sw * cols, sw)),
                (slice(0, rows), slice(0, cols)),
            ))
    forward = [
        partial(np.copyto, out[:, :, up_rows, up_cols], x[:, :, rows, cols])
        for (up_rows, up_cols), (rows, cols) in copies
    ]
    forward += _zeroing(out[:, :, sh * h:]) + _zeroing(out[:, :, :, sw * w:])

    def backward(grad: np.ndarray):
        grad_x = scratch.take("upsample", x.shape, grad.dtype)
        calls = [partial(grad_x.fill, 0)]
        for (up_rows, up_cols), (rows, cols) in copies:
            cell = grad_x[:, :, rows, cols]
            calls.append(partial(np.add, cell, grad[:, :, up_rows, up_cols],
                                 cell))
        return grad_x, calls

    return out, forward, backward
