"""Short-time Fourier transform and its inverse, implemented from scratch.

Weighted overlap-add (WOLA) convention: the same window is applied at
analysis and synthesis and the overlap-added result is normalised by the
summed squared window, giving perfect reconstruction for any window/hop with
non-vanishing overlap sum (Griffin & Lim 1984).

The DHF pipeline operates on :class:`StftResult` objects: magnitude for the
deep-prior in-painting, phase for the cyclic phase interpolation, and
:func:`istft` to return to the time domain.

Hot paths are fully vectorized: analysis uses stride-trick framing with a
single batched ``np.fft.rfft``, and synthesis routes through the grouped
overlap-add of :mod:`repro.dsp.plan` (no per-frame Python loop).  The
historical frame-by-frame synthesis survives as :func:`istft_loop`, the
reference implementation used by equivalence tests and the
``bench_pipeline`` speedup baseline.  Whole batches of equal-length
records are processed at once by :func:`stft_batch` / :func:`istft_batch`,
which share one cached :class:`~repro.dsp.plan.StftPlan` across records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, DataError, ShapeError
from repro.dsp.plan import StftPlan, get_stft_plan
from repro.dsp.windows import get_window
from repro.utils.validation import as_1d_float_array, check_positive_int


@dataclass
class StftResult:
    """A complex STFT along with everything needed to invert it.

    Attributes
    ----------
    values:
        Complex array of shape ``(n_freq, n_frames)``.
    n_fft:
        FFT/window length in samples.
    hop:
        Hop (stride) between frames in samples.
    sampling_hz:
        Sampling rate of the analysed signal.
    n_samples:
        Length of the original signal (for exact-length inversion).
    window_name:
        Name of the analysis window.
    """

    values: np.ndarray
    n_fft: int
    hop: int
    sampling_hz: float
    n_samples: int
    window_name: str = "hann"

    @property
    def n_freq(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    @property
    def magnitude(self) -> np.ndarray:
        """Magnitude spectrogram ``|S|`` of shape ``(n_freq, n_frames)``."""
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
        """Copy of this result with ``values`` replaced (same geometry)."""
        values = np.asarray(values)
        if values.shape != self.values.shape:
            raise ShapeError(
                f"replacement values shape {values.shape} != {self.values.shape}"
            )
        return replace(self, values=values.astype(np.complex128, copy=True))

    def copy(self) -> "StftResult":
        return replace(self, values=self.values.copy())

    def plan(self) -> StftPlan:
        """The cached :class:`~repro.dsp.plan.StftPlan` for this geometry."""
        return get_stft_plan(self.n_fft, self.hop, self.window_name)


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
    window: str = "hann",
) -> StftResult:
    """Compute the STFT of a real signal.

    The signal is centred: ``n_fft // 2`` zeros are (virtually) prepended
    and appended so frame ``k`` is centred at sample ``k * hop``.

    Parameters
    ----------
    x:
        Real 1-D signal.
    sampling_hz:
        Sampling rate in Hz.
    n_fft:
        Window/FFT length in samples.
    hop:
        Frame stride in samples; defaults to ``n_fft // 4``.
    window:
        Window name understood by :func:`repro.dsp.windows.get_window`.
    """
    x = as_1d_float_array(x, "x")
    hop = _check_geometry(sampling_hz, n_fft, hop)
    plan = get_stft_plan(n_fft, hop, window)
    frames = plan.frame_signal(x)  # (n_frames, n_fft) strided view
    spec = np.fft.rfft(frames * plan.window, axis=1).T  # (n_freq, n_frames)
    return StftResult(
        values=spec, n_fft=n_fft, hop=hop, sampling_hz=float(sampling_hz),
        n_samples=x.size, window_name=window,
    )


def istft(result: StftResult, length: Optional[int] = None) -> np.ndarray:
    """Invert an STFT via weighted overlap-add (vectorized).

    Synthesis frames come from one batched ``np.fft.irfft``; the
    overlap-add and WOLA normalizer run through the cached plan's grouped
    accumulation, so no Python loop scales with the frame count.

    Parameters
    ----------
    result:
        The :class:`StftResult` to invert (possibly with modified values).
    length:
        Output length; defaults to ``result.n_samples``.
    """
    values = np.asarray(result.values)
    if values.ndim != 2:
        raise ShapeError(f"STFT values must be 2-D, got {values.shape}")
    if values.shape[1] == 0:
        raise DataError("cannot invert an STFT with zero frames")
    n_fft = result.n_fft
    if values.shape[0] != n_fft // 2 + 1:
        raise ShapeError(
            f"{values.shape[0]} frequency rows inconsistent with n_fft={n_fft}"
        )
    if length is None:
        length = result.n_samples
    plan = get_stft_plan(n_fft, result.hop, result.window_name)
    frames = np.fft.irfft(values.T, n=n_fft, axis=1)  # (n_frames, n_fft)
    frames *= plan.window
    signal = plan.overlap_add(frames)[:length]
    if signal.size < length:
        signal = np.pad(signal, (0, length - signal.size))
    return signal


def istft_loop(result: StftResult, length: Optional[int] = None) -> np.ndarray:
    """Frame-by-frame reference inversion (the historical implementation).

    Kept verbatim as the ground truth for equivalence tests and as the
    per-record baseline of ``benchmarks/bench_pipeline.py``.  Production
    code should call :func:`istft`, which computes the same result (up to
    float summation order) without the per-frame loop.
    """
    values = np.asarray(result.values)
    if values.ndim != 2:
        raise ShapeError(f"STFT values must be 2-D, got {values.shape}")
    if values.shape[1] == 0:
        raise DataError("cannot invert an STFT with zero frames")
    n_fft, hop = result.n_fft, result.hop
    if values.shape[0] != n_fft // 2 + 1:
        raise ShapeError(
            f"{values.shape[0]} frequency rows inconsistent with n_fft={n_fft}"
        )
    if length is None:
        length = result.n_samples
    win = get_window(result.window_name, n_fft)
    frames = np.fft.irfft(values.T, n=n_fft, axis=1)  # (n_frames, n_fft)
    frames *= win

    pad = n_fft // 2
    total = pad + (values.shape[1] - 1) * hop + n_fft
    out = np.zeros(total)
    norm = np.zeros(total)
    sq = win * win
    for k in range(values.shape[1]):
        start = k * hop
        out[start: start + n_fft] += frames[k]
        norm[start: start + n_fft] += sq
    # Avoid division blow-ups at the extreme edges where overlap is partial.
    norm = np.where(norm > 1e-12, norm, 1.0)
    out /= norm
    signal = out[pad: pad + length]
    if signal.size < length:
        signal = np.pad(signal, (0, length - signal.size))
    return signal


@dataclass
class BatchStft:
    """STFTs of a batch of equal-length records sharing one geometry.

    Attributes
    ----------
    values:
        Complex array of shape ``(n_records, n_frames, n_freq)``.  The
        layout is **frame-major** (time before frequency) so both FFT
        directions operate on a contiguous last axis — the transposed
        convention from the single-record :class:`StftResult`.
    n_fft, hop, sampling_hz, n_samples, window_name:
        Shared geometry, as in :class:`StftResult`.
    """

    values: np.ndarray
    n_fft: int
    hop: int
    sampling_hz: float
    n_samples: int
    window_name: str = "hann"

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_records(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    @property
    def n_freq(self) -> int:
        return self.values.shape[2]

    def plan(self) -> StftPlan:
        """The cached plan shared by every record in the batch."""
        return get_stft_plan(self.n_fft, self.hop, self.window_name)

    def record(self, index: int) -> StftResult:
        """Single-record :class:`StftResult` view (``(n_freq, n_frames)``)."""
        return StftResult(
            values=self.values[index].T,
            n_fft=self.n_fft,
            hop=self.hop,
            sampling_hz=self.sampling_hz,
            n_samples=self.n_samples,
            window_name=self.window_name,
        )


def stft_batch(
    xs,
    sampling_hz: float,
    n_fft: int,
    hop: Optional[int] = None,
    window: str = "hann",
) -> BatchStft:
    """STFT a 2-D batch ``(n_records, n_samples)`` in one vectorized pass.

    All records share the geometry, the window, and (via the plan cache)
    the overlap-add normalizer for later inversion.  The framing is a
    stride-trick view over the zero-padded batch, and one 3-D batched
    real FFT transforms every frame of every record.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ShapeError(f"batch must be 2-D (records, samples), got {xs.shape}")
    if xs.shape[0] == 0:
        raise DataError("batch must contain at least one record")
    if xs.shape[1] == 0:
        raise DataError("batch records must be non-empty (got 0 samples)")
    hop = _check_geometry(sampling_hz, n_fft, hop)
    plan = get_stft_plan(n_fft, hop, window)
    frames = plan.frame_signal(xs)  # (B, n_frames, n_fft) view
    values = np.fft.rfft(frames * plan.window, axis=2)  # (B, T, F)
    return BatchStft(
        values=values, n_fft=n_fft, hop=hop, sampling_hz=float(sampling_hz),
        n_samples=xs.shape[1], window_name=window,
    )


def istft_batch(
    batch: BatchStft,
    values: Optional[np.ndarray] = None,
    length: Optional[int] = None,
) -> np.ndarray:
    """Invert a :class:`BatchStft` back to ``(n_records, length)`` signals.

    Parameters
    ----------
    batch:
        The batch geometry (and default values) to invert.
    values:
        Optional replacement coefficients of shape
        ``(n_records', n_frames, n_freq)`` — e.g. masked copies of
        ``batch.values``; the leading dimension may differ from the
        analysed batch (one batch analysis can drive many syntheses).
    length:
        Output length per record; defaults to ``batch.n_samples``.
    """
    if values is None:
        values = batch.values
    values = np.asarray(values)
    if values.ndim != 3:
        raise ShapeError(
            f"batch STFT values must be 3-D (records, frames, freqs), "
            f"got {values.shape}"
        )
    if values.shape[1] == 0:
        raise DataError("cannot invert an STFT batch with zero frames")
    if values.shape[2] != batch.n_fft // 2 + 1:
        raise ShapeError(
            f"{values.shape[2]} frequency columns inconsistent with "
            f"n_fft={batch.n_fft}"
        )
    if values.shape[1] != batch.n_frames:
        raise ShapeError(
            f"{values.shape[1]} frames inconsistent with the analysed "
            f"batch ({batch.n_frames} frames)"
        )
    if length is None:
        length = batch.n_samples
    plan = batch.plan()
    frames = np.fft.irfft(values, n=batch.n_fft, axis=2)  # (B, T, n_fft)
    frames *= plan.window
    signals = plan.overlap_add(frames)[:, :length]
    if signals.shape[1] < length:
        signals = np.pad(signals, ((0, 0), (0, length - signals.shape[1])))
    return signals


def spectrogram_db(magnitude: np.ndarray, floor_db: float = -120.0) -> np.ndarray:
    """Convert a magnitude spectrogram to decibels with a noise floor."""
    magnitude = np.asarray(magnitude, dtype=np.float64)
    ref = magnitude.max(initial=0.0)
    if ref <= 0:
        return np.full(magnitude.shape, floor_db)
    db = 20.0 * np.log10(np.maximum(magnitude / ref, 10 ** (floor_db / 20.0)))
    return db
