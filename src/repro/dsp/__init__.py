"""repro.dsp — the signal processing the program runs, on NumPy FFTs.

Public surface
--------------
The STFT/iSTFT pair (:mod:`repro.dsp.stft`): :func:`stft` analyses one
record or a stack of equal-length records into ``(..., n_freq,
n_frames)`` values with the periodic Hann window, and :func:`istft`
inverts them; :func:`istft_loop` is the frame-by-frame reference.
Cached STFT plans and grouped overlap-add (:mod:`repro.dsp.plan`).
The Hann and Hamming windows (:mod:`repro.dsp.windows`).  The
zero-phase FIR band-pass used for scoring (:mod:`repro.dsp.filters`),
linear and natural-cubic-spline interpolation for the aligner and EMD
(:mod:`repro.dsp.interpolate`), and the beat spectrum for REPET
(:mod:`repro.dsp.spectrum`).
"""

from repro.dsp.plan import (
    StftPlan,
    cache_friendly_chunk,
    clear_plan_cache,
    get_stft_plan,
    overlap_add,
)
from repro.dsp.windows import hamming, hann
from repro.dsp.stft import StftResult, istft, istft_loop, stft
from repro.dsp.interpolate import (
    cubic_spline_interp,
    linear_interp,
    natural_cubic_spline_coeffs,
)
from repro.dsp.filters import (
    bandpass_filter,
    convolve_same,
    design_bandpass,
    design_lowpass,
    filter_zerophase,
)
from repro.dsp.spectrum import beat_spectrum, dominant_period

__all__ = [
    "hamming", "hann",
    "StftPlan", "cache_friendly_chunk", "clear_plan_cache", "get_stft_plan",
    "overlap_add",
    "StftResult", "istft", "istft_loop", "stft",
    "cubic_spline_interp", "linear_interp", "natural_cubic_spline_coeffs",
    "bandpass_filter", "convolve_same", "design_bandpass", "design_lowpass",
    "filter_zerophase",
    "beat_spectrum", "dominant_period",
]
