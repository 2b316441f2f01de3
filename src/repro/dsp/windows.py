"""The two windows the program uses.

The STFT/iSTFT pair in :mod:`repro.dsp.stft` analyses and synthesises
with the periodic :func:`hann` window (its weighted overlap-add divides
by the summed squared window, so any hop with non-vanishing overlap
reconstructs exactly); the windowed-sinc FIR designs in
:mod:`repro.dsp.filters` taper with :func:`hamming`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int


def hann(length: int) -> np.ndarray:
    """Periodic Hann window (COLA at hop = length/2, length/4, ...)."""
    check_positive_int(length, "length")
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2 * np.pi * n / length)


def hamming(length: int) -> np.ndarray:
    """Periodic Hamming window."""
    check_positive_int(length, "length")
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2 * np.pi * n / length)
