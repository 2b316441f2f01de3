"""The beat spectrum and its dominant period.

The beat spectrum (Rafii & Pardo 2012) drives the REPET baseline's repeating
period detection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import as_1d_float_array, as_2d_float_array


def beat_spectrum(magnitude: np.ndarray, max_lag: Optional[int] = None) -> np.ndarray:
    """Beat spectrum of a magnitude spectrogram (REPET, Rafii & Pardo 2012).

    The per-frequency-row autocorrelations of the squared magnitudes are
    averaged over frequency, giving a measure of periodicity along the frame
    axis.  Lag 0 is normalised to 1.
    """
    mag = as_2d_float_array(magnitude, "magnitude")
    n_frames = mag.shape[1]
    if max_lag is None:
        max_lag = n_frames - 1
    if max_lag >= n_frames or max_lag < 0:
        raise ConfigurationError(
            f"max_lag must be in [0, {n_frames - 1}], got {max_lag}"
        )
    power = mag ** 2
    power = power - power.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n_frames - 1).bit_length()
    spectrum = np.fft.rfft(power, nfft, axis=1)
    acf = np.fft.irfft(spectrum * np.conj(spectrum), nfft, axis=1)[:, : max_lag + 1]
    counts = n_frames - np.arange(max_lag + 1)
    acf = acf / counts
    beat = acf.mean(axis=0)
    if beat[0] <= 0:
        return np.zeros(max_lag + 1)
    return beat / beat[0]


def dominant_period(beat: np.ndarray, min_lag: int = 1,
                    max_lag: Optional[int] = None) -> int:
    """Lag of the strongest beat-spectrum peak in ``[min_lag, max_lag]``.

    A peak must be a local maximum; if none exists the global maximum of the
    range is returned.
    """
    beat = as_1d_float_array(beat, "beat")
    if max_lag is None:
        max_lag = beat.size - 1
    min_lag = max(1, min_lag)
    max_lag = min(max_lag, beat.size - 1)
    if min_lag > max_lag:
        raise ConfigurationError(
            f"empty lag range [{min_lag}, {max_lag}]"
        )
    segment = beat[min_lag: max_lag + 1]
    interior = np.arange(1, segment.size - 1)
    if interior.size:
        is_peak = (segment[interior] >= segment[interior - 1]) & \
                  (segment[interior] >= segment[interior + 1])
        peaks = interior[is_peak]
        if peaks.size:
            best = peaks[np.argmax(segment[peaks])]
            return int(best + min_lag)
    return int(np.argmax(segment) + min_lag)
