"""Harmonic spectral masking (Gerkmann & Vincent 2018) — the strongest
prior method in Table 2 and the state of the art the in-vivo study compares
against (Vali et al. 2021).

Each source is extracted by applying its harmonic ridge mask directly to
the mixed STFT — no alignment, no in-painting.  Where ridges of two sources
cross, both masks claim the same cells, so interference leaks into the
estimates; that leakage at overlaps is precisely the failure mode DHF's
in-painting repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.baselines.base import Separator
from repro.core.masking import (
    default_bandwidth,
    f0_spread_per_frame,
    f0_track_to_frames,
    harmonic_ridge_mask,
)
from repro.dsp.plan import cache_friendly_chunk, get_stft_plan
from repro.dsp.stft import istft, stft
from repro.errors import ConfigurationError


@dataclass
class SpectralMaskingSeparator(Separator):
    """Binary harmonic-comb masking of the mixture spectrogram.

    Parameters
    ----------
    n_harmonics:
        Harmonics per source comb.
    n_fft_seconds:
        STFT window length in seconds (the paper uses 60 s windows at the
        full 5-minute scale; shorter presets scale this down).
    hop_fraction:
        Hop as a fraction of the window (0.25 matches the paper's
        60 s / 15 s choice).
    exclusive:
        If true (default), cells claimed by several sources go only to the
        source whose ridge centre is nearest.  This is the stronger variant
        and matches the behaviour of the state of the art the paper
        compares against ([18]); it still discards/corrupts overlap
        content — the failure DHF repairs.  ``False`` gives the naive
        leaky variant.
    """

    n_harmonics: int = 6
    n_fft_seconds: float = 12.0
    hop_fraction: float = 0.25
    exclusive: bool = True

    name: str = "Spect. Masking"

    def stft_geometry(self, sampling_hz: float, n_samples: int) -> tuple:
        """``(n_fft, hop)`` this separator uses for a record of a given size.

        Public because streaming callers need it: for frame-exact
        equivalence with the offline path, a
        :class:`repro.streaming.StreamingSeparator` wrapping this method
        should use a segment advance that is a multiple of ``hop`` and a
        segment overlap of at least ``n_fft + hop`` (the edge zone a
        segment's virtual zero padding and partial WOLA normalizer can
        contaminate).  Note ``n_fft`` saturates at ``n_samples``, so
        probe it with the segment length, not the full record length.
        """
        n_fft = max(64, int(self.n_fft_seconds * sampling_hz))
        n_fft = min(n_fft, n_samples)
        hop = max(1, int(n_fft * self.hop_fraction))
        return n_fft, hop

    def _build_masks(self, spec, f0_tracks, sampling_hz: float) -> Dict[str, np.ndarray]:
        """Per-source harmonic combs (overlap-resolved when exclusive).

        Reads only the geometry of ``spec``, so one stacked STFT serves
        every record in it.  The ridge half-width is
        :func:`repro.core.masking.default_bandwidth`.
        """
        bandwidth = default_bandwidth()
        masks = {}
        for name, track in f0_tracks.items():
            frames = f0_track_to_frames(track, sampling_hz, spec)
            spread = f0_spread_per_frame(track, sampling_hz, spec)
            masks[name] = harmonic_ridge_mask(
                spec, frames, self.n_harmonics, bandwidth, f0_spread=spread
            )
        if self.exclusive:
            masks = _resolve_overlaps(spec, f0_tracks, masks, sampling_hz,
                                      self.n_harmonics)
        return masks

    def separate(self, mixed, sampling_hz, f0_tracks) -> Dict[str, np.ndarray]:
        return self.separate_batch([mixed], sampling_hz, [f0_tracks])[0]

    def separate_batch(self, mixed_batch, sampling_hz, f0_tracks_batch):
        """Separate records grouped by length, one stacked STFT per chunk.

        Each group of equal-length records runs in cache-sized chunks
        sharing one cached plan and overlap-add normalizer: one stacked
        :func:`repro.dsp.stft` analyses the chunk, masks are built per
        record (their f0 tracks differ), and one :func:`repro.dsp.istft`
        inverts every ``(record, source)`` masked spectrogram.
        :meth:`separate` is the one-record case.
        """
        if len(mixed_batch) != len(f0_tracks_batch):
            raise ConfigurationError(
                f"{len(mixed_batch)} mixed records but "
                f"{len(f0_tracks_batch)} f0-track mappings"
            )
        rows = [  # fail before any FFT
            self._validate(mixed, sampling_hz, tracks)
            for mixed, tracks in zip(mixed_batch, f0_tracks_batch)
        ]
        by_length: Dict[int, List[int]] = {}
        for index, row in enumerate(rows):
            by_length.setdefault(row.size, []).append(index)

        estimates: List[Dict[str, np.ndarray]] = [{} for _ in rows]
        for n, members in by_length.items():
            n_fft, hop = self.stft_geometry(sampling_hz, n)
            n_frames = get_stft_plan(n_fft, hop).n_frames(n)
            chunk = cache_friendly_chunk(n_frames, n_fft, n_lanes=4)
            for start in range(0, len(members), chunk):
                part = members[start:start + chunk]
                spec = stft(
                    np.stack([rows[i] for i in part]), sampling_hz,
                    n_fft=n_fft, hop=hop,
                )
                masks = [
                    self._build_masks(spec, f0_tracks_batch[i], sampling_hz)
                    for i in part
                ]
                masked = spec.with_values(np.stack([
                    values * mask
                    for values, by_name in zip(spec.values, masks)
                    for mask in by_name.values()
                ]))
                pairs = [(i, name) for i, by_name in zip(part, masks)
                         for name in by_name]
                for (index, name), signal in zip(pairs, istft(masked)):
                    estimates[index][name] = signal
        return estimates


def _resolve_overlaps(spec, f0_tracks, masks, sampling_hz, n_harmonics):
    """Assign contested cells to the source with the nearest ridge centre."""
    freqs = spec.freqs()
    names = list(masks)
    # Distance of each cell to the closest harmonic centre, per source.
    distances = {}
    for name in names:
        frames = f0_track_to_frames(f0_tracks[name], sampling_hz, spec)
        d = np.full((spec.n_freq, spec.n_frames), np.inf)
        for k in range(1, n_harmonics + 1):
            centers = k * frames
            d = np.minimum(d, np.abs(freqs[:, None] - centers[None, :]))
        distances[name] = d
    stacked = np.stack([distances[n] for n in names])
    owner = np.argmin(stacked, axis=0)
    resolved = {}
    for i, name in enumerate(names):
        resolved[name] = masks[name] & (owner == i)
    return resolved
