"""Empirical Mode Decomposition (Huang et al. 1998) — Table 2 baseline.

Classic sifting: upper/lower envelopes are natural cubic splines through
the local maxima/minima (with mirror extension at the boundaries), the mean
envelope is subtracted until the component satisfies the IMF stopping
criterion, and the procedure recurses on the residual.  The resulting IMFs
are anonymous components, matched to sources by harmonic-comb scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.baselines.base import Separator, assign_components_to_sources
from repro.dsp.interpolate import cubic_spline_interp
from repro.errors import DataError
from repro.service.specs import EMDSpec
from repro.utils.validation import as_1d_float_array


def local_extrema(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of strict local maxima and minima (plateaus take the centre)."""
    x = as_1d_float_array(x, "x")
    diff = np.sign(np.diff(x))
    # Collapse plateaus: propagate the last non-zero slope sign.
    for i in range(1, diff.size):
        if diff[i] == 0:
            diff[i] = diff[i - 1]
    turns = np.diff(diff)
    maxima = np.where(turns < 0)[0] + 1
    minima = np.where(turns > 0)[0] + 1
    return maxima, minima


def _mirror_extend(indices: np.ndarray, values: np.ndarray, n: int,
                   n_mirror: int = 2) -> Tuple[np.ndarray, np.ndarray]:
    """Mirror extrema about the signal boundaries to tame spline ends."""
    idx = list(indices)
    val = list(values)
    left_i, left_v, right_i, right_v = [], [], [], []
    for j in range(min(n_mirror, len(idx))):
        left_i.append(-idx[j])
        left_v.append(val[j])
        right_i.append(2 * (n - 1) - idx[-1 - j])
        right_v.append(val[-1 - j])
    all_i = np.array(left_i[::-1] + idx + right_i)
    all_v = np.array(left_v[::-1] + val + right_v)
    order = np.argsort(all_i)
    all_i, all_v = all_i[order], all_v[order]
    keep = np.concatenate([[True], np.diff(all_i) > 0])
    return all_i[keep].astype(np.float64), all_v[keep]


def envelope_mean(x: np.ndarray) -> Optional[np.ndarray]:
    """Mean of the upper and lower cubic-spline envelopes.

    Returns ``None`` when there are not enough extrema to build envelopes
    (the residual is then monotonic-ish and sifting stops).
    """
    maxima, minima = local_extrema(x)
    if maxima.size < 2 or minima.size < 2:
        return None
    t = np.arange(x.size, dtype=np.float64)
    mi, mv = _mirror_extend(maxima, x[maxima], x.size)
    upper = cubic_spline_interp(t, mi, mv)
    ni, nv = _mirror_extend(minima, x[minima], x.size)
    lower = cubic_spline_interp(t, ni, nv)
    return (upper + lower) / 2.0


def sift_imf(x: np.ndarray, sd_threshold: float = 0.25,
             max_sift_iterations: int = 50) -> Optional[np.ndarray]:
    """Extract one IMF by iterative envelope-mean subtraction.

    Stops when the normalised squared difference (Huang's SD criterion)
    drops below ``sd_threshold``.  Returns ``None`` if no envelopes exist.
    """
    h = np.asarray(x, dtype=np.float64).copy()
    mean = envelope_mean(h)
    if mean is None:
        return None
    for _ in range(max_sift_iterations):
        h_new = h - mean
        denom = float(np.sum(h ** 2))
        sd = float(np.sum((h - h_new) ** 2)) / max(denom, 1e-30)
        h = h_new
        if sd < sd_threshold:
            break
        mean = envelope_mean(h)
        if mean is None:
            break
    return h


def emd(x, max_imfs: int = 10, sd_threshold: float = 0.25,
        max_sift_iterations: int = 50,
        residual_energy_fraction: float = 1e-4) -> np.ndarray:
    """Full EMD: returns IMFs stacked as rows, residual as the last row.

    Decomposition stops when ``max_imfs`` is reached, the residual has no
    envelopes, or its energy falls below ``residual_energy_fraction`` of
    the input energy.  The rows always sum to the input exactly
    (completeness property of EMD).
    """
    x = as_1d_float_array(x, "x")
    total_energy = float(np.sum(x ** 2))
    if total_energy <= 0:
        raise DataError("cannot decompose an all-zero signal")
    imfs: List[np.ndarray] = []
    residual = x.copy()
    for _ in range(max_imfs):
        if float(np.sum(residual ** 2)) < residual_energy_fraction * total_energy:
            break
        imf = sift_imf(residual, sd_threshold, max_sift_iterations)
        if imf is None:
            break
        imfs.append(imf)
        residual = residual - imf
    imfs.append(residual)
    return np.stack(imfs)


@dataclass
class EMDSeparator(Separator):
    """EMD baseline wrapped in the common :class:`Separator` interface.

    Configured by ``spec`` (:class:`repro.service.EMDSpec`; ``None``
    means its defaults).
    """

    spec: Optional[EMDSpec] = None

    name = "EMD"

    def __post_init__(self):
        self.spec = EMDSpec.or_default(self.spec)

    def separate(self, mixed, sampling_hz, f0_tracks) -> Dict[str, np.ndarray]:
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        components = emd(
            mixed, max_imfs=self.spec.max_imfs,
            sd_threshold=self.spec.sd_threshold,
        )
        # Drop the final residual (trend) row from assignment: it is not an
        # oscillatory mode and would pollute the lowest-frequency source.
        oscillatory = components[:-1] if components.shape[0] > 1 else components
        return assign_components_to_sources(
            oscillatory, sampling_hz, f0_tracks,
            n_harmonics=self.spec.n_harmonics,
        )
