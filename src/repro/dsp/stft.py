"""Short-time Fourier transform and its inverse, implemented from scratch.

Weighted overlap-add (WOLA) convention: the periodic Hann window is
applied at analysis and synthesis and the overlap-added result is
normalised by the summed squared window, giving perfect reconstruction
for any hop with non-vanishing overlap sum (Griffin & Lim 1984).

:func:`stft` analyses one record ``(n_samples,)`` or a stack of
equal-length records ``(n_records, n_samples)``.  Either way the
:class:`StftResult` holds values of shape ``(..., n_freq, n_frames)``
and :func:`istft` inverts them to ``(..., n_samples)``, so a stack
shares one cached :class:`~repro.dsp.plan.StftPlan` and one pass of
each FFT.  The DHF pipeline reads the magnitude for the deep-prior
in-painting and the phase for the cyclic phase interpolation.

Both directions are vectorized: analysis uses stride-trick framing with
a single batched ``np.fft.rfft``, and synthesis routes through the
grouped overlap-add of :mod:`repro.dsp.plan` (no per-frame Python loop).
The frame-by-frame synthesis survives as :func:`istft_loop`, the
reference implementation used by equivalence tests and the
``bench_pipeline`` speedup baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, DataError, ShapeError
from repro.dsp.plan import StftPlan, get_stft_plan
from repro.dsp.windows import hann
from repro.utils.validation import check_positive_int


@dataclass
class StftResult:
    """A complex STFT of one record or a stack, with everything needed
    to invert it.

    Attributes
    ----------
    values:
        Complex array of shape ``(..., n_freq, n_frames)``:
        ``(n_freq, n_frames)`` for one record, ``(n_records, n_freq,
        n_frames)`` for a stack.
    n_fft:
        FFT/window length in samples.
    hop:
        Hop (stride) between frames in samples.
    sampling_hz:
        Sampling rate of the analysed signal.
    n_samples:
        Length of each analysed record (for exact-length inversion).
    """

    values: np.ndarray
    n_fft: int
    hop: int
    sampling_hz: float
    n_samples: int

    @property
    def n_freq(self) -> int:
        return self.values.shape[-2]

    @property
    def n_frames(self) -> int:
        return self.values.shape[-1]

    @property
    def magnitude(self) -> np.ndarray:
        """Magnitude spectrogram ``|S|`` of shape ``(..., n_freq, n_frames)``."""
        return np.abs(self.values)

    @property
    def phase(self) -> np.ndarray:
        """Phase angle of each bin, in radians."""
        return np.angle(self.values)

    def freqs(self) -> np.ndarray:
        """Centre frequency (Hz) of each row."""
        return np.fft.rfftfreq(self.n_fft, d=1.0 / self.sampling_hz)

    def times(self) -> np.ndarray:
        """Centre time (s) of each frame."""
        return (np.arange(self.n_frames) * self.hop) / self.sampling_hz

    def freq_resolution(self) -> float:
        """Bin spacing in Hz."""
        return self.sampling_hz / self.n_fft

    def with_values(self, values: np.ndarray) -> "StftResult":
        """Copy of this result with ``values`` replaced.

        Only the trailing ``(n_freq, n_frames)`` must match; the leading
        shape may differ, so one analysed stack can drive many syntheses
        (one per record and source, say).
        """
        values = np.asarray(values)
        if values.shape[-2:] != self.values.shape[-2:]:
            raise ShapeError(
                f"replacement values shape {values.shape} does not end in "
                f"(n_freq, n_frames) = {self.values.shape[-2:]}"
            )
        return replace(self, values=values.astype(np.complex128, copy=True))

    def copy(self) -> "StftResult":
        return replace(self, values=self.values.copy())

    def plan(self) -> StftPlan:
        """The cached :class:`~repro.dsp.plan.StftPlan` for this geometry."""
        return get_stft_plan(self.n_fft, self.hop)


def _check_geometry(sampling_hz: float, n_fft: int, hop: Optional[int]) -> int:
    check_positive_int(n_fft, "n_fft")
    if hop is None:
        hop = n_fft // 4
    check_positive_int(hop, "hop")
    if hop > n_fft:
        raise ConfigurationError(f"hop {hop} must be <= n_fft {n_fft}")
    if sampling_hz <= 0:
        raise ConfigurationError(f"sampling_hz must be positive, got {sampling_hz}")
    return hop


def stft(
    x,
    sampling_hz: float,
    n_fft: int,
    hop: Optional[int] = None,
) -> StftResult:
    """Compute the STFT of one real record or a stack of them.

    Each record is centred: ``n_fft // 2`` zeros are (virtually)
    prepended and appended so frame ``k`` is centred at sample
    ``k * hop``.

    Parameters
    ----------
    x:
        One record ``(n_samples,)`` or a stack of equal-length records
        ``(n_records, n_samples)``.
    sampling_hz:
        Sampling rate in Hz.
    n_fft:
        Window/FFT length in samples.
    hop:
        Frame stride in samples; defaults to ``n_fft // 4``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ShapeError(
            f"x must be one record (n_samples,) or a stack "
            f"(n_records, n_samples), got shape {x.shape}"
        )
    if x.size == 0:
        raise DataError(f"x must be non-empty, got shape {x.shape}")
    hop = _check_geometry(sampling_hz, n_fft, hop)
    plan = get_stft_plan(n_fft, hop)
    frames = plan.frame_signal(x)  # (..., n_frames, n_fft) strided view
    spec = np.fft.rfft(frames * plan.window, axis=-1)  # (..., n_frames, n_freq)
    return StftResult(
        values=np.swapaxes(spec, -1, -2), n_fft=n_fft, hop=hop,
        sampling_hz=float(sampling_hz), n_samples=x.shape[-1],
    )


def _synthesis_frames(result: StftResult, window: np.ndarray) -> np.ndarray:
    """Windowed synthesis frames ``(..., n_frames, n_fft)`` of ``result``."""
    values = np.asarray(result.values)
    if values.ndim < 2:
        raise ShapeError(
            f"STFT values must be (..., n_freq, n_frames), got {values.shape}"
        )
    if values.shape[-1] == 0:
        raise DataError("cannot invert an STFT with zero frames")
    n_fft = result.n_fft
    if values.shape[-2] != n_fft // 2 + 1:
        raise ShapeError(
            f"{values.shape[-2]} frequency rows inconsistent with n_fft={n_fft}"
        )
    frames = np.fft.irfft(np.swapaxes(values, -1, -2), n=n_fft, axis=-1)
    frames *= window
    return frames


def _to_length(signal: np.ndarray, length: int) -> np.ndarray:
    """Trim or zero-pad the last axis of ``signal`` to ``length``."""
    signal = signal[..., :length]
    short = length - signal.shape[-1]
    if short > 0:
        signal = np.pad(signal, [(0, 0)] * (signal.ndim - 1) + [(0, short)])
    return signal


def istft(result: StftResult, length: Optional[int] = None) -> np.ndarray:
    """Invert an STFT via weighted overlap-add (vectorized).

    Synthesis frames come from one batched ``np.fft.irfft``; the
    overlap-add and WOLA normalizer run through the cached plan's grouped
    accumulation, so no Python loop scales with the frame count.

    Parameters
    ----------
    result:
        The :class:`StftResult` to invert (possibly with modified
        values); values ``(..., n_freq, n_frames)`` give signals
        ``(..., length)``.
    length:
        Output length; defaults to ``result.n_samples``.
    """
    plan = result.plan()
    frames = _synthesis_frames(result, plan.window)
    if length is None:
        length = result.n_samples
    return _to_length(plan.overlap_add(frames), length)


def istft_loop(result: StftResult, length: Optional[int] = None) -> np.ndarray:
    """Frame-by-frame reference inversion.

    The ground truth for equivalence tests and the per-record baseline
    of ``benchmarks/bench_pipeline.py``: it rebuilds the window and the
    normalizer on every call and adds one frame at a time.  Production
    code should call :func:`istft`, which computes the same result (up
    to float summation order) without the per-frame loop.
    """
    n_fft, hop = result.n_fft, result.hop
    win = hann(n_fft)
    frames = _synthesis_frames(result, win)
    if length is None:
        length = result.n_samples

    n_frames = frames.shape[-2]
    pad = n_fft // 2
    total = pad + (n_frames - 1) * hop + n_fft
    out = np.zeros(frames.shape[:-2] + (total,))
    norm = np.zeros(total)
    sq = win * win
    for k in range(n_frames):
        start = k * hop
        out[..., start: start + n_fft] += frames[..., k, :]
        norm[start: start + n_fft] += sq
    # Avoid division blow-ups at the extreme edges where overlap is partial.
    norm = np.where(norm > 1e-12, norm, 1.0)
    out /= norm
    return _to_length(out[..., pad:], length)
