"""REPET and REPET-Extended (Rafii & Pardo 2012) — Table 2 baselines.

REpeating Pattern Extraction Technique: a repeating background is modelled
by the median of period-spaced spectrogram frames and extracted with a soft
mask.  For the multi-source quasi-periodic setting we follow the paper's
evaluation protocol: sources are extracted iteratively (strongest first),
each round searching the beat spectrum for a repeating period near the
round's known fundamental.  REPET-Extended re-estimates the period per
time segment, adapting to non-stationary rhythms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.baselines.base import Separator
from repro.dsp.spectrum import beat_spectrum, dominant_period
from repro.dsp.stft import istft, stft
from repro.errors import ConfigurationError
from repro.service.specs import RepetSpec
from repro.utils.validation import as_2d_float_array

_EPS = 1e-12


def refine_period(
    magnitude: np.ndarray,
    expected_lag: float,
    search_fraction: float = 0.35,
) -> int:
    """Find the repeating period (frames) near an expected lag.

    Searches the beat spectrum within ``±search_fraction`` of
    ``expected_lag`` for the strongest local peak.
    """
    mag = as_2d_float_array(magnitude, "magnitude")
    n_frames = mag.shape[1]
    if expected_lag <= 0:
        raise ConfigurationError(f"expected_lag must be positive, got {expected_lag}")
    lo = max(1, int(np.floor(expected_lag * (1 - search_fraction))))
    hi = min(n_frames - 1, int(np.ceil(expected_lag * (1 + search_fraction))))
    if lo > hi:
        return max(1, min(int(round(expected_lag)), n_frames - 1))
    beat = beat_spectrum(mag, max_lag=hi)
    return dominant_period(beat, min_lag=lo, max_lag=hi)


def repeating_model(magnitude: np.ndarray, period: int) -> np.ndarray:
    """Median of period-spaced frames — the repeating-background model."""
    mag = as_2d_float_array(magnitude, "magnitude")
    n_frames = mag.shape[1]
    if period < 1:
        raise ConfigurationError(f"period must be >= 1, got {period}")
    period = min(period, n_frames)
    n_segments = int(np.ceil(n_frames / period))
    padded = np.full((mag.shape[0], n_segments * period), np.nan)
    padded[:, :n_frames] = mag
    stacked = padded.reshape(mag.shape[0], n_segments, period)
    model = np.nanmedian(stacked, axis=1)
    tiled = np.tile(model, (1, n_segments))[:, :n_frames]
    # The repeating part can never exceed the observed magnitude.
    return np.minimum(tiled, mag)


def repeating_mask(magnitude: np.ndarray, period: int) -> np.ndarray:
    """Soft mask of the repeating background (values in [0, 1])."""
    mag = as_2d_float_array(magnitude, "magnitude")
    model = repeating_model(mag, period)
    return (model + _EPS) / (mag + _EPS)


def repet_extended_mask(
    magnitude: np.ndarray,
    expected_lags: np.ndarray,
    segment_frames: int,
) -> np.ndarray:
    """Segment-wise REPET mask with per-segment period re-estimation.

    ``expected_lags`` gives the anticipated repeating period (frames) at
    every frame; each segment refines its own period around the local
    expectation, adapting to non-stationary rhythms (REPET-Extended).
    """
    mag = as_2d_float_array(magnitude, "magnitude")
    n_frames = mag.shape[1]
    if segment_frames < 4:
        raise ConfigurationError(
            f"segment_frames must be >= 4, got {segment_frames}"
        )
    expected_lags = np.asarray(expected_lags, dtype=np.float64)
    mask = np.zeros_like(mag)
    weight = np.zeros(n_frames)
    hop = max(1, segment_frames // 2)
    taper = np.hanning(segment_frames + 2)[1:-1]
    start = 0
    while start < n_frames:
        stop = min(start + segment_frames, n_frames)
        segment = mag[:, start:stop]
        local_lag = float(np.mean(expected_lags[start:stop]))
        local_lag = min(local_lag, max(1.0, (stop - start) / 2))
        if stop - start >= 4:
            period = refine_period(segment, local_lag)
        else:
            period = max(1, int(round(local_lag)))
        local_mask = repeating_mask(segment, period)
        w = taper[: stop - start]
        mask[:, start:stop] += local_mask * w[None, :]
        weight[start:stop] += w
        if stop == n_frames:
            break
        start += hop
    weight = np.where(weight > 0, weight, 1.0)
    return np.clip(mask / weight[None, :], 0.0, 1.0)


def _expected_lag_frames(f0_track: np.ndarray, sampling_hz: float,
                         hop: int) -> np.ndarray:
    """Convert a per-sample f0 track to repeating-period frames per frame."""
    period_samples = sampling_hz / np.asarray(f0_track, dtype=np.float64)
    return period_samples / hop


@dataclass
class REPETSeparator(Separator):
    """Iterative multi-source REPET with known fundamentals.

    Sources are extracted strongest-first (by ridge energy); each round runs
    one REPET pass on the residual with the period seeded from the source's
    mean fundamental.  Configured by ``spec``
    (:class:`repro.service.RepetSpec`; ``None`` means its defaults):
    ``spec.extended`` switches to segment-wise period re-estimation
    (REPET-Extended) and names the method accordingly.
    """

    spec: Optional[RepetSpec] = None

    def __post_init__(self):
        self.spec = RepetSpec.or_default(self.spec)

    @property
    def name(self) -> str:
        return "REPET-Ext." if self.spec.extended else "REPET"

    def separate(self, mixed, sampling_hz, f0_tracks) -> Dict[str, np.ndarray]:
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        n_fft = max(32, int(self.spec.n_fft_seconds * sampling_hz))
        n_fft = min(n_fft, mixed.size)
        hop = max(1, n_fft // 8)

        # Extraction order: strongest repeating source first, measured by
        # mean mixture power around each source's fundamental ridge.
        order = _dominance_order(mixed, sampling_hz, f0_tracks, n_fft, hop)

        residual = mixed.copy()
        estimates: Dict[str, np.ndarray] = {}
        for i, source in enumerate(order):
            spec = stft(residual, sampling_hz, n_fft=n_fft, hop=hop)
            lags = _expected_lag_frames(f0_tracks[source], sampling_hz, hop)
            lags_frames = np.interp(
                spec.times() * sampling_hz, np.arange(mixed.size), lags
            )
            if self.spec.extended:
                segment_frames = max(
                    8, int(self.spec.segment_seconds * sampling_hz / hop)
                )
                segment_frames = min(segment_frames, spec.n_frames)
                mask = repet_extended_mask(
                    spec.magnitude, lags_frames, segment_frames
                )
            else:
                period = refine_period(
                    spec.magnitude, float(np.mean(lags_frames))
                )
                mask = repeating_mask(spec.magnitude, period)
            if i == len(order) - 1:
                # Last source keeps the whole residual (foreground included).
                estimates[source] = residual
            else:
                background = istft(spec.with_values(spec.values * mask))
                estimates[source] = background
                residual = residual - background
        return {name: estimates[name] for name in f0_tracks}


def _dominance_order(
    mixed: np.ndarray,
    sampling_hz: float,
    f0_tracks: Mapping[str, np.ndarray],
    n_fft: int,
    hop: int,
) -> List[str]:
    """Sources sorted by mixture energy on their fundamental ridge."""
    from repro.core.masking import (
        default_bandwidth,
        f0_track_to_frames,
        harmonic_ridge_mask,
    )

    spec = stft(mixed, sampling_hz, n_fft=n_fft, hop=hop)
    power = spec.magnitude ** 2
    energies = {}
    for name, track in f0_tracks.items():
        frames = f0_track_to_frames(track, sampling_hz, spec)
        ridge = harmonic_ridge_mask(spec, frames, 2, default_bandwidth())
        energies[name] = float(power[ridge].sum())
    return sorted(energies, key=energies.get, reverse=True)
