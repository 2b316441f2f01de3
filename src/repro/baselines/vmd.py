"""Variational Mode Decomposition (Dragomiretskiy & Zosso 2014) — baseline.

ADMM in the frequency domain: each mode is a Wiener-filtered slice of the
spectrum concentrated around its centre frequency, and centre frequencies
relax to the modes' spectral centroids.  The signal is mirror-extended to
suppress boundary artefacts, as in the reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.baselines.base import Separator, assign_components_to_sources
from repro.errors import ConfigurationError
from repro.service.specs import VMDSpec
from repro.utils.validation import as_1d_float_array


def vmd(
    x,
    n_modes: int,
    alpha: float = 2000.0,
    tau: float = 0.0,
    tol: float = 1e-6,
    max_iterations: int = 500,
    init_omegas: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Decompose ``x`` into ``n_modes`` band-compact modes (rows).

    Parameters
    ----------
    x:
        Input signal.
    n_modes:
        Number of modes ``K``.
    alpha:
        Bandwidth penalty — larger values give narrower modes.
    tau:
        Dual ascent step (0 disables the Lagrangian update, tolerating
        noise as in the reference implementation's default usage).
    tol:
        Relative convergence tolerance on mode updates.
    max_iterations:
        ADMM iteration cap; like the reference implementation, the best
        decomposition so far is returned if ``tol`` is not reached.
    init_omegas:
        Optional initial centre frequencies (cycles/sample, in [0, 0.5]);
        defaults to a uniform spread.
    """
    x = as_1d_float_array(x, "x")
    if n_modes < 1:
        raise ConfigurationError(f"n_modes must be >= 1, got {n_modes}")
    n = x.size
    # Mirror extension halves boundary leakage.
    extended = np.concatenate([x[: n // 2][::-1], x, x[n - n // 2:][::-1]])
    n_ext = extended.size

    freqs = np.fft.fftfreq(n_ext)  # cycles/sample, symmetric
    half = freqs >= 0
    f_hat = np.fft.fft(extended)
    f_hat_plus = np.where(half, f_hat, 0.0)

    if init_omegas is None:
        omegas = (0.5 * (np.arange(n_modes) + 0.5) / n_modes)
    else:
        omegas = np.asarray(init_omegas, dtype=np.float64).copy()
        if omegas.size != n_modes:
            raise ConfigurationError(
                f"init_omegas must have {n_modes} entries, got {omegas.size}"
            )
    u_hat = np.zeros((n_modes, n_ext), dtype=np.complex128)
    lam = np.zeros(n_ext, dtype=np.complex128)

    for _ in range(max_iterations):
        u_prev = u_hat.copy()
        sum_u = u_hat.sum(axis=0)
        for k in range(n_modes):
            sum_u = sum_u - u_hat[k]
            numerator = f_hat_plus - sum_u - lam / 2.0
            u_hat[k] = numerator / (1.0 + 2.0 * alpha * (freqs - omegas[k]) ** 2)
            u_hat[k] = np.where(half, u_hat[k], 0.0)
            power = np.abs(u_hat[k][half]) ** 2
            total = power.sum()
            if total > 0:
                omegas[k] = float(np.sum(freqs[half] * power) / total)
            sum_u = sum_u + u_hat[k]
        if tau > 0:
            lam = lam + tau * (u_hat.sum(axis=0) - f_hat_plus)
        delta = sum(
            float(np.sum(np.abs(u_hat[k] - u_prev[k]) ** 2)) /
            max(float(np.sum(np.abs(u_prev[k]) ** 2)), 1e-30)
            for k in range(n_modes)
        )
        if delta < tol:
            break

    # Back to time domain: real part of the analytic modes, un-mirrored.
    modes = np.empty((n_modes, n))
    start = n // 2
    for k in range(n_modes):
        full = np.fft.ifft(u_hat[k])
        modes[k] = 2 * np.real(full)[start: start + n]
    order = np.argsort(omegas)
    return modes[order]


@dataclass
class VMDSeparator(Separator):
    """VMD baseline with harmonic-comb component assignment.

    Configured by ``spec`` (:class:`repro.service.VMDSpec`; ``None``
    means its defaults).  ``spec.modes_per_source`` controls
    K = ``modes_per_source * n_sources``; the paper's sources have 2+
    strong harmonics each, so the default of 3 modes per source lets VMD
    give each strong harmonic its own band.
    """

    spec: Optional[VMDSpec] = None

    name = "VMD"

    def __post_init__(self):
        self.spec = VMDSpec.or_default(self.spec)

    def separate(self, mixed, sampling_hz, f0_tracks) -> Dict[str, np.ndarray]:
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        spec = self.spec
        n_modes = spec.modes_per_source * len(f0_tracks)
        # Seed centre frequencies at the sources' mean harmonics.
        seeds = []
        for track in f0_tracks.values():
            mean_f0 = float(np.mean(track)) / sampling_hz
            for k in range(1, spec.modes_per_source + 1):
                seeds.append(min(k * mean_f0, 0.49))
        init = np.sort(np.asarray(seeds[:n_modes]))
        modes = vmd(
            mixed, n_modes=n_modes, alpha=spec.alpha, tol=spec.tol,
            max_iterations=spec.max_iterations, init_omegas=init,
        )
        return assign_components_to_sources(
            modes, sampling_hz, f0_tracks, n_harmonics=spec.n_harmonics
        )
