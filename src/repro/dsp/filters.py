"""Digital filtering: windowed-sinc FIR design and zero-phase application.

The paper band-pass filters mixed signals to [0, 12] Hz before scoring
(Sec. 4.2).  We design linear-phase FIR filters from scratch (windowed-sinc
method, Hamming taper) and apply them zero-phase — a symmetric FIR applied
with 'same' alignment introduces no group delay.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import as_1d_float_array, check_positive

from repro.dsp.windows import hamming


def _sinc_lowpass(numtaps: int, cutoff_norm: float) -> np.ndarray:
    """Ideal low-pass impulse response truncated to ``numtaps`` samples.

    ``cutoff_norm`` is the cutoff as a fraction of the Nyquist frequency.
    """
    if numtaps % 2 == 0:
        raise ConfigurationError(f"numtaps must be odd, got {numtaps}")
    if not 0.0 < cutoff_norm < 1.0:
        raise ConfigurationError(
            f"normalised cutoff must be in (0, 1), got {cutoff_norm}"
        )
    m = np.arange(numtaps) - (numtaps - 1) / 2
    return cutoff_norm * np.sinc(cutoff_norm * m)


def design_lowpass(numtaps: int, cutoff_hz: float,
                   sampling_hz: float) -> np.ndarray:
    """Hamming-windowed-sinc low-pass FIR with unit DC gain."""
    check_positive(cutoff_hz, "cutoff_hz")
    check_positive(sampling_hz, "sampling_hz")
    nyq = sampling_hz / 2.0
    taps = _sinc_lowpass(numtaps, cutoff_hz / nyq) * hamming(numtaps)
    return taps / taps.sum()


def design_bandpass(numtaps: int, low_hz: float, high_hz: float,
                    sampling_hz: float) -> np.ndarray:
    """Windowed-sinc band-pass FIR.

    A ``low_hz`` of 0 degenerates to a pure low-pass (the paper's
    [0, 12] Hz band is exactly this case).
    """
    check_positive(sampling_hz, "sampling_hz")
    if low_hz < 0 or high_hz <= low_hz:
        raise ConfigurationError(
            f"band must satisfy 0 <= low < high, got [{low_hz}, {high_hz}]"
        )
    if high_hz >= sampling_hz / 2:
        raise ConfigurationError(
            f"high_hz {high_hz} must be below Nyquist {sampling_hz / 2}"
        )
    if low_hz == 0.0:
        return design_lowpass(numtaps, high_hz, sampling_hz)
    upper = design_lowpass(numtaps, high_hz, sampling_hz)
    lower = design_lowpass(numtaps, low_hz, sampling_hz)
    return upper - lower


def convolve_same(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """FFT-based 'same' convolution (centre-aligned)."""
    x = as_1d_float_array(x, "x")
    taps = as_1d_float_array(taps, "taps")
    n = x.size + taps.size - 1
    nfft = 1 << (n - 1).bit_length()
    full = np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(taps, nfft), nfft)[:n]
    start = (taps.size - 1) // 2
    return full[start: start + x.size]


def filter_zerophase(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Apply a symmetric FIR with zero phase and reflected edge padding."""
    x = as_1d_float_array(x, "x")
    taps = as_1d_float_array(taps, "taps")
    pad = min(taps.size, x.size - 1)
    if pad > 0:
        left = x[1: pad + 1][::-1]
        right = x[-pad - 1: -1][::-1]
        padded = np.concatenate([2 * x[0] - left, x, 2 * x[-1] - right])
    else:
        padded = x
    filtered = convolve_same(padded, taps)
    return filtered[pad: pad + x.size]


def bandpass_filter(x, sampling_hz: float, low_hz: float, high_hz: float,
                    numtaps: int = 0) -> np.ndarray:
    """Zero-phase band-pass filter of a 1-D signal.

    ``numtaps=0`` chooses an automatic length: four periods of the lowest
    non-zero band edge (or of the bandwidth when ``low_hz == 0``), capped at
    a quarter of the signal.
    """
    x = as_1d_float_array(x, "x")
    if numtaps <= 0:
        edge = low_hz if low_hz > 0 else high_hz
        numtaps = int(4 * sampling_hz / edge) | 1
        numtaps = min(numtaps, (x.size // 4) | 1)
        numtaps = max(numtaps, 5)
    if numtaps % 2 == 0:
        numtaps += 1
    taps = design_bandpass(numtaps, low_hz, high_hz, sampling_hz)
    return filter_zerophase(x, taps)
