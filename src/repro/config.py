"""Experiment presets and global defaults.

The paper runs its deep-prior fits with spectrogram windows of 60 s and
hundreds of optimiser iterations.  A pure-NumPy substrate reproduces the same
computation but at a higher wall-clock cost, so every experiment supports two
presets:

``full``
    Paper-scale signal durations and optimisation budgets.  Use for the
    numbers recorded in ``EXPERIMENTS.md``.
``fast``
    Reduced durations/budgets with identical code paths.  Used by the test
    suite and ``pytest-benchmark`` runs so CI completes in minutes.

Select the preset globally via the ``REPRO_PRESET`` environment variable or
explicitly per call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict

from repro.errors import ConfigurationError
from repro.utils.naming import unknown_name_error

#: Sampling frequency (Hz) of the synthesized dataset, per Sec. 4.1.
SYNTH_SAMPLING_HZ = 100.0

#: Band-pass range applied before scoring, per Sec. 4.2 ("[0 Hz, 12 Hz]").
SCORING_BAND_HZ = (0.0, 12.0)

#: STFT window / stride used by the paper (seconds), per Sec. 4.2.
PAPER_STFT_WINDOW_S = 60.0
PAPER_STFT_STRIDE_S = 15.0


@dataclass(frozen=True)
class DeepPriorBudget:
    """Optimisation budget for one deep-prior in-painting fit."""

    iterations: int = 600
    learning_rate: float = 3e-3
    base_channels: int = 16
    depth: int = 3


@dataclass(frozen=True)
class AlignmentConfig:
    """Pattern-aligner resolution settings."""

    samples_per_period: int = 32
    periods_per_window: int = 8
    hop_periods: int = 2


@dataclass(frozen=True)
class Preset:
    """A named bundle of durations and budgets for the experiment harness."""

    name: str
    signal_duration_s: float
    deep_prior: DeepPriorBudget
    alignment: AlignmentConfig
    n_harmonics: int = 6
    time_dilation: int = 13

    def scaled(self, **overrides) -> "Preset":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


_PRESETS: Dict[str, Preset] = {
    "full": Preset(
        name="full",
        signal_duration_s=300.0,
        deep_prior=DeepPriorBudget(iterations=600, learning_rate=3e-3,
                                   base_channels=16, depth=3),
        alignment=AlignmentConfig(samples_per_period=32, periods_per_window=8,
                                  hop_periods=2),
    ),
    "fast": Preset(
        name="fast",
        signal_duration_s=60.0,
        deep_prior=DeepPriorBudget(iterations=120, learning_rate=5e-3,
                                   base_channels=8, depth=2),
        alignment=AlignmentConfig(samples_per_period=24, periods_per_window=6,
                                  hop_periods=1),
    ),
    "smoke": Preset(
        name="smoke",
        signal_duration_s=30.0,
        deep_prior=DeepPriorBudget(iterations=30, learning_rate=8e-3,
                                   base_channels=6, depth=2),
        alignment=AlignmentConfig(samples_per_period=16, periods_per_window=4,
                                  hop_periods=1),
        n_harmonics=4,
        time_dilation=5,
    ),
}


def get_preset(name: str | None = None) -> Preset:
    """Return a preset by name, defaulting to ``$REPRO_PRESET`` or ``fast``."""
    if name is None:
        name = os.environ.get("REPRO_PRESET", "fast")
    try:
        return _PRESETS[name]
    except KeyError:
        raise unknown_name_error("preset", name, _PRESETS) from None


def available_presets() -> list:
    """Names of the registered presets."""
    return sorted(_PRESETS)
