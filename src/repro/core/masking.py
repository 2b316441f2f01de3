"""Harmonic time-frequency masks (paper Sec. 3.3).

Every separation round needs three mask families derived from the known
fundamental-frequency tracks:

* **ridge masks** — cells within a bandwidth of each harmonic ``k·f0(t)`` of
  a source; used to pick a source's content out of a spectrogram;
* **interference masks** — the union of the non-target sources' ridges;
  these cells are *concealed* from the in-painting cost (Eq. 9) so the deep
  prior reconstructs the target underneath;
* the **masked-energy ratio** (Fig. 5a) — the share of target energy inside
  the concealed region, the paper's difficulty measure for a round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.dsp.stft import StftResult
from repro.errors import ConfigurationError, ShapeError
from repro.utils.validation import as_1d_float_array

BandwidthSpec = Union[float, Callable[[int], float]]


def bandwidth_for_harmonic(bandwidth: BandwidthSpec, k: int) -> float:
    """Resolve a bandwidth spec (constant or per-harmonic callable) at ``k``."""
    value = bandwidth(k) if callable(bandwidth) else float(bandwidth)
    if value <= 0:
        raise ConfigurationError(
            f"bandwidth for harmonic {k} must be positive, got {value}"
        )
    return value


def default_bandwidth(base_hz: float = 0.15, slope_hz: float = 0.05) -> Callable[[int], float]:
    """Linearly-growing harmonic bandwidth ``base + slope * (k - 1)``.

    Higher harmonics of a wandering fundamental sweep ``k`` times faster, so
    their ridges occupy proportionally wider bands within an STFT window.
    """
    def bw(k: int) -> float:
        return base_hz + slope_hz * (k - 1)
    return bw


def _frame_windows(f0: np.ndarray, sampling_hz: float,
                   stft_result: StftResult):
    """Each STFT frame's window on the f0 track.

    Frame ``i`` covers samples ``[c - half, c + half)`` around its centre
    sample ``c``, clipped to the track.  Returns ``(full, windows,
    edges)``: ``full`` marks the frames whose window is not clipped,
    ``windows`` holds those windows as rows (``None`` when there are
    none), and ``edges`` lists ``(i, c, lo, hi)`` for every clipped frame.
    """
    centers = (stft_result.times() * sampling_hz).astype(np.int64)
    half = stft_result.n_fft // 2
    lo = np.maximum(centers - half, 0)
    hi = np.minimum(centers + half, f0.size)
    full = (hi - lo == 2 * half) & (half > 0)
    windows = np.lib.stride_tricks.sliding_window_view(f0, 2 * half)[
        lo[full]] if full.any() else None
    edges = [
        (i, c, a, b) for i, (c, a, b, inside) in enumerate(zip(
            centers.tolist(), lo.tolist(), hi.tolist(), full.tolist()))
        if not inside
    ]
    return full, windows, edges


def f0_track_to_frames(f0_track, sampling_hz: float, stft_result: StftResult) -> np.ndarray:
    """Average a per-sample f0 track over each STFT frame's window."""
    f0 = as_1d_float_array(f0_track, "f0_track")
    full, windows, edges = _frame_windows(f0, sampling_hz, stft_result)
    out = np.empty(stft_result.n_frames)
    if windows is not None:
        out[full] = windows.mean(axis=1)
    for i, c, lo, hi in edges:
        out[i] = f0[lo:hi].mean() if hi > lo else f0[min(c, f0.size - 1)]
    return out


def f0_spread_per_frame(f0_track, sampling_hz: float,
                        stft_result: StftResult) -> np.ndarray:
    """Half peak-to-peak wander of f0 within each STFT window.

    Harmonic ``k`` of a wandering fundamental sweeps ``k`` times this value
    inside one analysis window; ridge masks widen accordingly so the mask
    still covers the smeared harmonic energy.
    """
    f0 = as_1d_float_array(f0_track, "f0_track")
    full, windows, edges = _frame_windows(f0, sampling_hz, stft_result)
    out = np.zeros(stft_result.n_frames)
    if windows is not None:
        out[full] = 0.5 * (windows.max(axis=1) - windows.min(axis=1))
    for i, _, lo, hi in edges:
        if hi - lo >= 2:
            window = f0[lo:hi]
            out[i] = 0.5 * float(window.max() - window.min())
    return out


def harmonic_ridge_mask(
    stft_result: StftResult,
    f0_frames: np.ndarray,
    n_harmonics: int,
    bandwidth: BandwidthSpec = None,
    max_freq_hz: Optional[float] = None,
    f0_spread: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean mask of cells lying on a source's harmonic ridges.

    Parameters
    ----------
    stft_result:
        Supplies the frequency/frame geometry.
    f0_frames:
        Fundamental frequency per frame (Hz), e.g. from
        :func:`f0_track_to_frames`.
    n_harmonics:
        Number of forward harmonics ``k = 1..H`` to cover.
    bandwidth:
        Half-width around each ridge in Hz; constant or callable ``k -> Hz``.
        Defaults to :func:`default_bandwidth`.
    max_freq_hz:
        Ignore ridges above this frequency (defaults to Nyquist).
    f0_spread:
        Optional per-frame f0 wander (from :func:`f0_spread_per_frame`);
        harmonic ``k``'s ridge widens by ``k * f0_spread[t]`` to cover the
        energy smeared by frequency wander within the analysis window.
    """
    if bandwidth is None:
        bandwidth = default_bandwidth()
    f0_frames = as_1d_float_array(f0_frames, "f0_frames")
    if f0_frames.size != stft_result.n_frames:
        raise ShapeError(
            f"f0_frames has {f0_frames.size} entries for {stft_result.n_frames} frames"
        )
    if np.any(f0_frames <= 0):
        raise ConfigurationError("f0 track must be strictly positive")
    if f0_spread is not None:
        f0_spread = as_1d_float_array(f0_spread, "f0_spread")
        if f0_spread.size != stft_result.n_frames:
            raise ShapeError(
                f"f0_spread has {f0_spread.size} entries for "
                f"{stft_result.n_frames} frames"
            )
    freqs = stft_result.freqs()
    if max_freq_hz is None:
        max_freq_hz = freqs[-1]
    mask = np.zeros((stft_result.n_freq, stft_result.n_frames), dtype=bool)
    for k in range(1, n_harmonics + 1):
        bw = bandwidth_for_harmonic(bandwidth, k)
        widths = bw if f0_spread is None else bw + k * f0_spread
        centers = k * f0_frames  # (T,)
        in_band = centers <= max_freq_hz + bw
        distance = np.abs(freqs[:, None] - centers[None, :])
        mask |= (distance <= widths) & in_band[None, :]
    return mask


def interference_mask(
    stft_result: StftResult,
    f0_frames_by_source: Mapping[str, np.ndarray],
    target: str,
    n_harmonics: int,
    bandwidth: BandwidthSpec = None,
    max_freq_hz: Optional[float] = None,
    f0_spread_by_source: Optional[Mapping[str, np.ndarray]] = None,
) -> np.ndarray:
    """Union of the *non-target* sources' harmonic ridges.

    These are the cells Eq. 9 conceals: ``visibility = ~interference``.
    """
    if target not in f0_frames_by_source:
        raise ConfigurationError(
            f"target {target!r} not among sources {sorted(f0_frames_by_source)}"
        )
    mask = np.zeros((stft_result.n_freq, stft_result.n_frames), dtype=bool)
    for name, f0_frames in f0_frames_by_source.items():
        if name == target:
            continue
        spread = None if f0_spread_by_source is None else \
            f0_spread_by_source.get(name)
        mask |= harmonic_ridge_mask(
            stft_result, f0_frames, n_harmonics, bandwidth, max_freq_hz,
            f0_spread=spread,
        )
    return mask


def visibility_mask(
    stft_result: StftResult,
    f0_frames_by_source: Mapping[str, np.ndarray],
    target: str,
    n_harmonics: int,
    bandwidth: BandwidthSpec = None,
    max_freq_hz: Optional[float] = None,
    f0_spread_by_source: Optional[Mapping[str, np.ndarray]] = None,
) -> np.ndarray:
    """The binary cost-function mask of Eq. 9 (1 = visible, 0 = concealed)."""
    return ~interference_mask(
        stft_result, f0_frames_by_source, target, n_harmonics, bandwidth,
        max_freq_hz, f0_spread_by_source,
    )


def masked_energy_ratio(
    target_magnitude: np.ndarray,
    mixed_magnitude: np.ndarray,
    concealed: np.ndarray,
) -> float:
    """Fig. 5a's Masked Energy Ratio for one separation round.

    Percentage of masked *target* energy relative to the overall masked
    energy: low values mean the concealed region is dominated by
    interference — the regime where prior methods struggle.
    """
    target_magnitude = np.asarray(target_magnitude, dtype=np.float64)
    mixed_magnitude = np.asarray(mixed_magnitude, dtype=np.float64)
    concealed = np.asarray(concealed, dtype=bool)
    if target_magnitude.shape != mixed_magnitude.shape or \
            target_magnitude.shape != concealed.shape:
        raise ShapeError(
            "target, mixed and mask shapes must match: "
            f"{target_magnitude.shape}, {mixed_magnitude.shape}, {concealed.shape}"
        )
    total = float(np.sum(mixed_magnitude[concealed] ** 2))
    if total <= 0:
        return 1.0
    target = float(np.sum(target_magnitude[concealed] ** 2))
    return min(target / total, 1.0)


@dataclass
class RoundMasks:
    """All masks of one separation round, for inspection and experiments."""

    target: str
    target_ridge: np.ndarray
    interference: np.ndarray
    visibility: np.ndarray

    @property
    def concealed_fraction(self) -> float:
        """Share of spectrogram cells hidden from the cost function."""
        return float(np.mean(self.interference))

    @property
    def overlap_fraction(self) -> float:
        """Share of target-ridge cells that are concealed (crossover area)."""
        ridge = float(np.sum(self.target_ridge))
        if ridge == 0:
            return 0.0
        return float(np.sum(self.target_ridge & self.interference) / ridge)


def build_round_masks(
    stft_result: StftResult,
    f0_frames_by_source: Mapping[str, np.ndarray],
    target: str,
    n_harmonics: int,
    bandwidth: BandwidthSpec = None,
    max_freq_hz: Optional[float] = None,
    f0_spread_by_source: Optional[Mapping[str, np.ndarray]] = None,
) -> RoundMasks:
    """Compute target-ridge, interference and visibility masks in one call."""
    target_spread = None if f0_spread_by_source is None else \
        f0_spread_by_source.get(target)
    ridge = harmonic_ridge_mask(
        stft_result, f0_frames_by_source[target], n_harmonics, bandwidth,
        max_freq_hz, f0_spread=target_spread,
    )
    interference = interference_mask(
        stft_result, f0_frames_by_source, target, n_harmonics, bandwidth,
        max_freq_hz, f0_spread_by_source,
    )
    return RoundMasks(
        target=target,
        target_ridge=ridge,
        interference=interference,
        visibility=~interference,
    )
