"""The abstract single-detector separation interface.

Lives at the package top level so both :mod:`repro.core` (DHF) and
:mod:`repro.baselines` can implement it without importing each other.
Every method consumes the same information the paper grants all
competitors: the single mixed measurement, its sampling rate, and the
per-source fundamental-frequency tracks (assumption 3 of Sec. 1).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_separation_input


class Separator(abc.ABC):
    """Abstract single-detector source separator."""

    #: Human-readable method name used in experiment tables.
    name: str = "separator"

    @abc.abstractmethod
    def separate(
        self,
        mixed,
        sampling_hz: float,
        f0_tracks: Mapping[str, np.ndarray],
    ) -> Dict[str, np.ndarray]:
        """Separate ``mixed`` into one estimate per entry of ``f0_tracks``.

        Parameters
        ----------
        mixed:
            The single-detector measurement (1-D array).
        sampling_hz:
            Sampling rate in Hz.
        f0_tracks:
            Per-sample fundamental-frequency track for every source,
            keyed by source name.

        Returns
        -------
        Estimates keyed by the same source names, each the length of
        ``mixed``.
        """

    def separate_batch(
        self,
        mixed_batch: Sequence,
        sampling_hz: float,
        f0_tracks_batch: Sequence[Mapping[str, np.ndarray]],
    ) -> List[Dict[str, np.ndarray]]:
        """Separate several records sharing one sampling rate.

        The default runs :meth:`separate` record by record; subclasses
        whose per-record work is dominated by STFT round-trips override
        this with a vectorized implementation (see
        :class:`repro.baselines.SpectralMaskingSeparator`).
        :class:`repro.pipeline.SeparationPipeline` calls this hook on its
        serial path, so vectorized overrides are picked up automatically.

        Parameters
        ----------
        mixed_batch:
            One mixed 1-D measurement per record (lengths may differ).
        sampling_hz:
            Sampling rate shared by every record.
        f0_tracks_batch:
            One per-source f0-track mapping per record, aligned with
            ``mixed_batch``.
        """
        if len(mixed_batch) != len(f0_tracks_batch):
            raise ConfigurationError(
                f"{len(mixed_batch)} mixed records but "
                f"{len(f0_tracks_batch)} f0-track mappings"
            )
        return [
            self.separate(mixed, sampling_hz, tracks)
            for mixed, tracks in zip(mixed_batch, f0_tracks_batch)
        ]

    def _validate(self, mixed, sampling_hz, f0_tracks) -> np.ndarray:
        return check_separation_input(mixed, sampling_hz, f0_tracks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
