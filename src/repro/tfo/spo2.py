"""Fetal SpO2 estimation from separated PPG (paper Sec. 4.3, Eqs. 10–11).

Given the separated fetal PPG at both wavelengths:

1. the modulation ratio ``R = (AC/DC)_740 / (AC/DC)_850`` (Eq. 11) is
   computed in 2.5-minute windows centred at each blood-draw timestamp,
   as in [18];
2. a linear regression ``1/(Y + k) = w0 + w1 R`` with ``k = 1.885``
   (Eq. 10) calibrates R against the SaO2 readings;
3. the reported figure of merit is the Pearson correlation between the
   SpO2 estimates and the SaO2 readings (Fig. 6b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.metrics.correlation import pearson
from repro.tfo.sao2 import CALIBRATION_K
from repro.utils.validation import as_1d_float_array, check_positive

#: Averaging window around each blood draw (s), per the paper.
R_WINDOW_S = 150.0


def ac_component(segment: np.ndarray) -> float:
    """AC strength of a PPG segment: RMS about its mean, times sqrt(2).

    For a sinusoidal pulse this matches the conventional peak amplitude;
    RMS is robust to the exact beat morphology and to residual noise.
    """
    segment = np.asarray(segment, dtype=np.float64)
    if segment.size < 2:
        raise DataError("segment too short for AC estimation")
    return float(np.sqrt(2.0) * np.std(segment))


def dc_component(segment: np.ndarray) -> float:
    """DC level of a raw PPG segment (windowed mean)."""
    segment = np.asarray(segment, dtype=np.float64)
    if segment.size < 1:
        raise DataError("segment is empty")
    return float(np.mean(segment))


def modulation_ratio_at_draws(
    fetal_740,
    fetal_850,
    raw_740,
    raw_850,
    sampling_hz: float,
    draw_times_s,
    window_s: float = R_WINDOW_S,
) -> np.ndarray:
    """Eq. 11 evaluated in windows centred at each blood draw.

    Parameters
    ----------
    fetal_740, fetal_850:
        Separated fetal PPG at the two wavelengths.
    raw_740, raw_850:
        The raw sensed PPG (for the DC levels).
    draw_times_s:
        Blood-draw timestamps (s).
    window_s:
        Averaging window width (paper: 2.5 minutes).
    """
    fetal_740 = as_1d_float_array(fetal_740, "fetal_740")
    fetal_850 = as_1d_float_array(fetal_850, "fetal_850")
    raw_740 = as_1d_float_array(raw_740, "raw_740")
    raw_850 = as_1d_float_array(raw_850, "raw_850")
    check_positive(sampling_hz, "sampling_hz")
    draw_times_s = as_1d_float_array(draw_times_s, "draw_times_s")
    n = fetal_740.size
    if not (fetal_850.size == raw_740.size == raw_850.size == n):
        raise DataError("all four PPG channels must have equal length")

    half = int(window_s * sampling_hz / 2)
    ratios = np.empty(draw_times_s.size)
    for i, t in enumerate(draw_times_s):
        centre = int(round(t * sampling_hz))
        lo = max(0, centre - half)
        hi = min(n, centre + half)
        if hi - lo < 2:
            raise DataError(
                f"draw at {t:.1f}s has no samples inside the recording"
            )
        try:
            ratios[i] = window_ratio(
                fetal_740[lo:hi], fetal_850[lo:hi],
                raw_740[lo:hi], raw_850[lo:hi],
            )
        except DataError as exc:
            raise DataError(f"draw {i} at {t:.1f}s: {exc}") from None
    return ratios


def window_ratio(fetal_740, fetal_850, raw_740, raw_850) -> float:
    """Eq. 11 over one window: ``R = (AC/DC)_740 / (AC/DC)_850``.

    AC strengths come from the separated fetal PPG, DC levels from the
    raw PPG of the same window.  The one window rule of the offline
    :func:`modulation_ratio_at_draws` and the streaming
    :class:`repro.tfo.SpO2Monitor`: a window with a zero DC (a raw
    channel that reads as dropped out), a non-positive AC/DC at 850 nm,
    or a non-finite ratio raises :class:`repro.errors.DataError`.
    """
    acdc = {}
    for wavelength, fetal, raw in (
        (740, fetal_740, raw_740), (850, fetal_850, raw_850),
    ):
        dc = dc_component(raw)
        if dc == 0:
            raise DataError(
                f"zero DC at {wavelength} nm — raw channel reads as "
                f"dropped out"
            )
        acdc[wavelength] = ac_component(fetal) / dc
    if acdc[850] <= 0:
        raise DataError("non-positive AC/DC at 850 nm")
    ratio = acdc[740] / acdc[850]
    if not np.isfinite(ratio):
        raise DataError("non-finite modulation ratio")
    return ratio


@dataclass
class SpO2Fit:
    """Calibrated SpO2 estimates against blood-draw ground truth.

    Attributes
    ----------
    w0, w1:
        Fitted regression weights of Eq. 10.
    ratios:
        Modulation ratios per draw.
    sao2_readings:
        Ground-truth SaO2 (fraction) per draw.
    spo2_estimates:
        Estimated SpO2 (fraction) per draw.
    correlation:
        Pearson correlation between estimates and readings (Fig. 6b).
    """

    w0: float
    w1: float
    ratios: np.ndarray
    sao2_readings: np.ndarray
    spo2_estimates: np.ndarray
    correlation: float


def fit_spo2(ratios, sao2_readings, k: float = CALIBRATION_K) -> SpO2Fit:
    """Least-squares calibration of Eq. 10 and SpO2 estimation.

    ``1/(Y + k)`` is regressed on R; estimates are recovered by inverting
    the model at the fitted weights.
    """
    ratios = as_1d_float_array(ratios, "ratios")
    sao2 = as_1d_float_array(sao2_readings, "sao2_readings")
    if ratios.size != sao2.size:
        raise DataError(
            f"{ratios.size} ratios vs {sao2.size} SaO2 readings"
        )
    if ratios.size < 3:
        raise DataError("need at least 3 draws to calibrate")
    y = 1.0 / (sao2 + k)
    design = np.stack([np.ones_like(ratios), ratios], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    w0, w1 = float(coeffs[0]), float(coeffs[1])
    predicted = design @ coeffs
    predicted = np.maximum(predicted, 1e-6)
    spo2 = 1.0 / predicted - k
    return SpO2Fit(
        w0=w0,
        w1=w1,
        ratios=ratios,
        sao2_readings=sao2,
        spo2_estimates=spo2,
        correlation=pearson(spo2, sao2),
    )
