"""Non-negative matrix factorisation separation (Lee & Seung 1999) — baseline.

The magnitude spectrogram ``V ≈ W H`` is factorised with multiplicative
KL-divergence updates; components are turned back into time signals through
Wiener-style soft masks applied to the complex mixture STFT, then matched to
sources by harmonic-comb scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.baselines.base import Separator, assign_components_to_sources
from repro.dsp.stft import istft, stft
from repro.errors import ConfigurationError, DataError
from repro.service.specs import NMFSpec
from repro.utils.seeding import as_generator
from repro.utils.validation import as_2d_float_array

_EPS = 1e-12


def nmf_kl(
    v: np.ndarray,
    n_components: int,
    n_iterations: int = 200,
    rng=None,
    return_loss: bool = False,
) -> Tuple[np.ndarray, np.ndarray] | Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KL-divergence NMF via multiplicative updates.

    Parameters
    ----------
    v:
        Non-negative matrix (frequency x frames).
    n_components:
        Rank of the factorisation.
    n_iterations:
        Number of multiplicative update sweeps.
    return_loss:
        Also return the KL loss after every sweep (monotonically
        non-increasing — a property the tests verify).
    """
    v = as_2d_float_array(v, "v")
    if np.any(v < 0):
        raise DataError("NMF input must be non-negative")
    if n_components < 1:
        raise ConfigurationError(
            f"n_components must be >= 1, got {n_components}"
        )
    rng = as_generator(rng)
    n_freq, n_frames = v.shape
    scale = np.sqrt(v.mean() / max(n_components, 1)) + _EPS
    w = rng.random((n_freq, n_components)) * scale + _EPS
    h = rng.random((n_components, n_frames)) * scale + _EPS

    losses = np.empty(n_iterations)
    for it in range(n_iterations):
        wh = w @ h + _EPS
        w *= ((v / wh) @ h.T) / (h.sum(axis=1)[None, :] + _EPS)
        wh = w @ h + _EPS
        h *= (w.T @ (v / wh)) / (w.sum(axis=0)[:, None] + _EPS)
        if return_loss:
            wh = w @ h + _EPS
            losses[it] = float(
                np.sum(v * np.log((v + _EPS) / wh) - v + wh)
            )
    if return_loss:
        return w, h, losses
    return w, h


def nmf_component_signals(
    mixed,
    sampling_hz: float,
    n_components: int,
    n_fft: Optional[int] = None,
    n_iterations: int = 200,
    rng=None,
) -> np.ndarray:
    """Rank-1 component signals via Wiener masking of the mixture STFT."""
    if n_fft is None:
        n_fft = int(min(len(mixed), 8 * sampling_hz))
    spec = stft(mixed, sampling_hz, n_fft=n_fft, hop=max(1, n_fft // 4))
    v = spec.magnitude
    w, h = nmf_kl(v, n_components, n_iterations=n_iterations, rng=rng)
    wh = w @ h + _EPS
    signals = np.empty((n_components, len(mixed)))
    for k in range(n_components):
        mask = np.outer(w[:, k], h[k]) / wh
        masked = spec.with_values(spec.values * mask)
        signals[k] = istft(masked)
    return signals


@dataclass
class NMFSeparator(Separator):
    """NMF baseline: factorise, Wiener-reconstruct, assign to sources.

    Configured by ``spec`` (:class:`repro.service.NMFSpec`; ``None``
    means its defaults).
    """

    spec: Optional[NMFSpec] = None

    name = "NMF"

    def __post_init__(self):
        self.spec = NMFSpec.or_default(self.spec)

    def separate(self, mixed, sampling_hz, f0_tracks) -> Dict[str, np.ndarray]:
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        spec = self.spec
        n_components = spec.components_per_source * len(f0_tracks)
        signals = nmf_component_signals(
            mixed, sampling_hz, n_components,
            n_iterations=spec.n_iterations, rng=as_generator(spec.seed),
        )
        return assign_components_to_sources(
            signals, sampling_hz, f0_tracks, n_harmonics=spec.n_harmonics
        )
