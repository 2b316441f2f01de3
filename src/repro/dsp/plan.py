"""Cached STFT plans and vectorized overlap-add.

A :class:`StftPlan` bundles everything about an STFT geometry that is
independent of the signal being analysed: the Hann analysis/synthesis
window, its square, the centring pad, the frame index grid, and — per
frame count — the WOLA overlap-add normalizer.  Plans are memoised by
``(n_fft, hop)`` through :func:`get_stft_plan`, so separating a batch of
records with a shared geometry computes each of these exactly once
instead of once per record.

The module also hosts :func:`overlap_add`, the vectorized replacement
for the per-frame Python loop of :func:`repro.dsp.stft.istft_loop`.
It works on arbitrary leading batch dimensions: frames are regrouped
into hop-sized chunks and accumulated with ``step = ceil(n_fft / hop)``
strided slice-adds, so the Python-level work is proportional to the
overlap factor (typically 4–8) rather than to the number of frames.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dsp.windows import hann
from repro.errors import ConfigurationError, ShapeError
from repro.utils.validation import check_positive_int

#: Overlap contributions below this are treated as no coverage (matches the
#: guard the per-frame reference implementation always used).
NORMALIZER_FLOOR = 1e-12

#: Working-set budget (bytes) used by :func:`cache_friendly_chunk`: 1 MiB
#: per lane, i.e. about half a typical 2 MiB L2 cache, leaving the other
#: half for the FFT output and overlap-add scratch.
_CHUNK_BUDGET_BYTES = 1 << 20

#: Normalizers retained per plan; separating records of many distinct
#: lengths (DHF alignment yields a new length per record) must not pin one
#: full-length array per length forever.
_NORMALIZERS_PER_PLAN = 8


def overlap_add(frames: np.ndarray, hop: int, total: int) -> np.ndarray:
    """Overlap-add ``frames`` at stride ``hop`` into a ``total``-long signal.

    Parameters
    ----------
    frames:
        Array of shape ``(..., n_frames, n_fft)``; frame ``k`` is added at
        offset ``k * hop``.  Leading dimensions are treated as batch.
    hop:
        Stride between consecutive frames, ``1 <= hop <= n_fft``.
    total:
        Length of the assembled output along the last axis.

    Notes
    -----
    Frames are zero-padded to a multiple of ``hop`` and viewed as
    hop-sized blocks; block ``j`` of every frame lands ``j`` chunks after
    the frame's first chunk, so one strided slice-add per block index
    accumulates the whole batch.  This is algebraically identical to the
    per-frame loop (up to float summation order).
    """
    frames = np.asarray(frames)
    if frames.ndim < 2:
        raise ShapeError(f"frames must be at least 2-D, got {frames.shape}")
    *batch, n_frames, n_fft = frames.shape
    check_positive_int(hop, "hop")
    if hop > n_fft:
        raise ConfigurationError(f"hop {hop} must be <= n_fft {n_fft}")
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    step = -(-n_fft // hop)  # frames overlapping any given sample
    width = step * hop
    if width != n_fft:
        padded = np.zeros((*batch, n_frames, width), dtype=frames.dtype)
        padded[..., :n_fft] = frames
    else:
        padded = frames
    # Room for every frame plus the final frame's tail, even when the
    # caller asks for a shorter trimmed output.
    n_chunks = max(-(-total // hop), n_frames) + step
    out = np.zeros((*batch, n_chunks * hop), dtype=frames.dtype)
    chunks = out.reshape(*batch, n_chunks, hop)
    blocks = padded.reshape(*batch, n_frames, step, hop)
    for j in range(step):
        chunks[..., j:j + n_frames, :] += blocks[..., :, j, :]
    return out[..., :total]


class StftPlan:
    """Precomputed state for one STFT geometry.

    Attributes
    ----------
    n_fft, hop:
        The geometry key.
    window, window_sq:
        The periodic Hann window and its square, computed once.
    pad:
        Centring pad (``n_fft // 2``) virtually applied on both sides.
    n_freq:
        Number of one-sided frequency rows, ``n_fft // 2 + 1``.
    """

    def __init__(self, n_fft: int, hop: int):
        check_positive_int(n_fft, "n_fft")
        check_positive_int(hop, "hop")
        if hop > n_fft:
            raise ConfigurationError(f"hop {hop} must be <= n_fft {n_fft}")
        self.n_fft = int(n_fft)
        self.hop = int(hop)
        self.window = hann(n_fft)
        self.window_sq = self.window * self.window
        self.pad = n_fft // 2
        self.n_freq = n_fft // 2 + 1
        self._normalizers: Dict[int, np.ndarray] = {}
        self._normalizer_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Frame grid
    # ------------------------------------------------------------------ #
    def n_frames(self, n_samples: int) -> int:
        """Number of centred frames for a signal of ``n_samples``."""
        padded = n_samples + 2 * self.pad
        if padded < self.n_fft:
            raise ShapeError(
                f"signal of {n_samples} samples too short for "
                f"n_fft={self.n_fft}"
            )
        return 1 + (padded - self.n_fft) // self.hop

    def total_length(self, n_frames: int) -> int:
        """Padded overlap-add buffer length for ``n_frames`` frames."""
        return self.pad + (n_frames - 1) * self.hop + self.n_fft

    def frame_signal(self, x: np.ndarray) -> np.ndarray:
        """Zero-pad, centre, and frame ``x`` into strided windows.

        ``x`` may be 1-D ``(n,)`` or 2-D ``(batch, n)``; the result has
        shape ``(..., n_frames, n_fft)`` and is a **read-only view** of
        the padded copy (stride-trick framing — no per-frame copies).
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2:
            raise ShapeError(f"signal must be 1-D or 2-D, got {x.shape}")
        b, n = x.shape
        n_frames = self.n_frames(n)
        padded = np.zeros((b, n + 2 * self.pad))
        padded[:, self.pad:self.pad + n] = x
        s0, s1 = padded.strides
        frames = np.lib.stride_tricks.as_strided(
            padded,
            shape=(b, n_frames, self.n_fft),
            strides=(s0, s1 * self.hop, s1),
            writeable=False,
        )
        return frames[0] if squeeze else frames

    # ------------------------------------------------------------------ #
    # Overlap-add
    # ------------------------------------------------------------------ #
    def ola_normalizer(self, n_frames: int) -> np.ndarray:
        """Summed squared window over the overlap-add grid, floored at 1.

        Positions whose coverage is at or below :data:`NORMALIZER_FLOOR`
        would blow up the division; they carry no signal energy either,
        so dividing by 1 leaves them (near) zero.  Cached per frame
        count: a batch of same-length records shares a single normalizer
        instead of re-accumulating it per record.
        """
        cached = self._normalizers.get(n_frames)
        if cached is None:
            total = self.total_length(n_frames)
            tiled = np.broadcast_to(
                self.window_sq, (1, n_frames, self.n_fft)
            )
            norm = overlap_add(tiled, self.hop, total)[0]
            cached = np.where(norm > NORMALIZER_FLOOR, norm, 1.0)
            cached.setflags(write=False)
            with self._normalizer_lock:
                cached = self._normalizers.setdefault(n_frames, cached)
                while len(self._normalizers) > _NORMALIZERS_PER_PLAN:
                    self._normalizers.pop(next(iter(self._normalizers)))
        return cached

    def overlap_add(self, frames: np.ndarray, normalize: bool = True) -> np.ndarray:
        """Overlap-add windowed synthesis ``frames`` and WOLA-normalize.

        ``frames`` has shape ``(..., n_frames, n_fft)``; the result drops
        the centring pad and has shape ``(..., (n_frames-1)*hop + n_fft - pad)``
        before the caller trims to the target length.
        """
        n_frames = frames.shape[-2]
        total = self.total_length(n_frames)
        out = overlap_add(frames, self.hop, total)
        if normalize:
            out /= self.ola_normalizer(n_frames)
        return out[..., self.pad:]

    def __repr__(self) -> str:
        return f"StftPlan(n_fft={self.n_fft}, hop={self.hop})"


_PLAN_CACHE: Dict[Tuple[int, int], StftPlan] = {}
_PLAN_CACHE_MAX = 64
_PLAN_CACHE_LOCK = threading.Lock()


def get_stft_plan(n_fft: int, hop: Optional[int] = None) -> StftPlan:
    """Fetch (or build and memoise) the plan for a geometry.

    ``hop`` defaults to ``n_fft // 4`` — the same default as
    :func:`repro.dsp.stft.stft`.  Thread-safe: a gateway's job and
    session threads share this cache.
    """
    if hop is None:
        hop = n_fft // 4  # same default (and n_fft >= 4 floor) as stft()
    key = (int(n_fft), int(hop))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = StftPlan(n_fft, hop)
        with _PLAN_CACHE_LOCK:
            existing = _PLAN_CACHE.get(key)
            if existing is not None:
                return existing
            while len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
                _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
            _PLAN_CACHE[key] = plan
    return plan


def clear_plan_cache() -> None:
    """Drop all memoised plans (mainly for tests and memory hygiene)."""
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE.clear()


def cache_friendly_chunk(n_frames: int, n_fft: int, n_lanes: int = 1) -> int:
    """Records per chunk so one chunk's frames stay cache-resident.

    Batched FFT + overlap-add is memory-bound once the intermediate
    ``(chunk, n_frames, n_fft)`` arrays spill out of L2; processing the
    batch in chunks keeps the vectorized path fast at any batch size.
    ``n_lanes`` scales the estimate for callers holding several
    same-shaped intermediates alive at once.
    """
    per_record = max(1, n_frames * n_fft * 8 * max(1, n_lanes))
    return max(1, _CHUNK_BUDGET_BYTES // per_record)
