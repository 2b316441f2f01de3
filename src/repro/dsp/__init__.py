"""repro.dsp — signal-processing substrate built from scratch on NumPy FFTs.

Public surface
--------------
Windows and COLA checks (:mod:`repro.dsp.windows`), the vectorized
STFT/iSTFT pair plus batched variants (:mod:`repro.dsp.stft`), cached
STFT plans and grouped overlap-add (:mod:`repro.dsp.plan`),
interpolation, IIR/FIR filtering, resampling, analytic-signal tools, and
spectrum estimates.
"""

from repro.dsp.plan import (
    StftPlan,
    cache_friendly_chunk,
    clear_plan_cache,
    get_stft_plan,
    overlap_add,
)
from repro.dsp.windows import (
    blackman,
    check_cola,
    cola_sum,
    get_window,
    hamming,
    hann,
    rectangular,
    window_names,
)
from repro.dsp.stft import (
    BatchStft,
    StftResult,
    istft,
    istft_batch,
    istft_loop,
    spectrogram_db,
    stft,
    stft_batch,
)
from repro.dsp.interpolate import (
    Interp1d,
    cubic_spline_interp,
    linear_interp,
    natural_cubic_spline_coeffs,
    pchip_interp,
    pchip_slopes,
)
from repro.dsp.filters import (
    bandpass_filter,
    butterworth_lowpass_sos,
    convolve_same,
    design_bandpass,
    design_highpass,
    design_lowpass,
    filter_zerophase,
    fir_frequency_response,
    sosfilt,
    sosfiltfilt,
)
from repro.dsp.resample import decimate, resample_to_grid, resample_to_rate, time_axis
from repro.dsp.analytic import (
    analytic_signal,
    envelope,
    instantaneous_frequency,
    instantaneous_phase,
)
from repro.dsp.spectrum import (
    autocorrelation,
    beat_spectrum,
    dominant_period,
    periodogram,
)

__all__ = [
    "blackman", "check_cola", "cola_sum", "get_window", "hamming", "hann",
    "rectangular", "window_names",
    "StftPlan", "cache_friendly_chunk", "clear_plan_cache", "get_stft_plan",
    "overlap_add",
    "BatchStft", "StftResult", "istft", "istft_batch", "istft_loop",
    "spectrogram_db", "stft", "stft_batch",
    "Interp1d", "cubic_spline_interp", "linear_interp",
    "natural_cubic_spline_coeffs", "pchip_interp", "pchip_slopes",
    "bandpass_filter", "butterworth_lowpass_sos", "convolve_same",
    "design_bandpass", "design_highpass", "design_lowpass",
    "filter_zerophase", "fir_frequency_response", "sosfilt", "sosfiltfilt",
    "decimate", "resample_to_grid", "resample_to_rate", "time_axis",
    "analytic_signal", "envelope", "instantaneous_frequency",
    "instantaneous_phase",
    "autocorrelation", "beat_spectrum", "dominant_period", "periodogram",
]
