"""Experiment E-F6: regenerate Fig. 6b (in-vivo SpO2 correlation study).

Both simulated ewes are processed with spectral masking (the state of the
art of [18]) and DHF; the Pearson correlation of SpO2 estimates with the
blood-draw SaO2 readings is compared against the paper's 0.24→0.81
(sheep 1) and 0.44→0.92 (sheep 2), along with the average
correlation-error improvement (paper: 80.5 %).

The whole comparison runs as batched cohort separations through
:func:`repro.tfo.run_in_vivo_batch`: every (sheep, wavelength) channel of
a method becomes one record of a single
:meth:`repro.service.SeparationService.separate_batch` call, so the
wavelength pairs of each subject share stacked DHF deep-prior fits and
the baselines run their vectorized batch hooks.  Methods are registry
specs — pass ``line_up=`` (display label →
:class:`repro.service.SeparatorSpec`) to change them, as for
``run_table2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.experiments.common import (
    ARTEFACT_METHODS,
    ExperimentContext,
    table2_specs,
)
from repro.experiments.paper_reference import PAPER_FIG6_CORRELATION
from repro.metrics import correlation_error_improvement
from repro.service import SeparatorSpec
from repro.tfo import (
    InVivoResult,
    make_sheep_recording,
    oracle_in_vivo,
    run_in_vivo_batch,
    sheep_names,
)
from repro.utils.logging import get_logger
from repro.utils.tables import TextTable

_LOG = get_logger("experiments.figure6")

@dataclass
class Figure6Result:
    """Correlations per sheep per method, with the oracle upper bound."""

    correlations: Dict[str, Dict[str, float]]
    oracle_correlations: Dict[str, float]
    results: Dict[str, Dict[str, InVivoResult]]
    preset_name: str

    def error_improvement(self) -> float:
        """Average correlation-error improvement of DHF over masking."""
        improvements = []
        for sheep, methods in self.correlations.items():
            if "DHF" in methods and "Spect. Masking" in methods:
                improvements.append(correlation_error_improvement(
                    methods["Spect. Masking"], methods["DHF"]
                ))
        if not improvements:
            return float("nan")
        return float(100.0 * np.mean(improvements))

    def render(self) -> str:
        table = TextTable(
            ["sheep", "method", "correlation", "paper", "oracle bound"],
            title=(
                "Fig. 6b — SpO2/SaO2 correlation, DHF vs spectral masking "
                f"(preset={self.preset_name})"
            ),
        )
        for sheep in sorted(self.correlations):
            for method, corr in self.correlations[sheep].items():
                ref = PAPER_FIG6_CORRELATION.get(sheep, {}).get(method)
                table.add_row([
                    sheep, method, corr,
                    "-" if ref is None else ref,
                    self.oracle_correlations.get(sheep, float("nan")),
                ])
        lines = [
            table.render(), "",
            f"reproduced correlation-error improvement: "
            f"{self.error_improvement():.1f} % (paper: 80.5 %)",
        ]
        return "\n".join(lines)


def run_figure6(
    context: Optional[ExperimentContext] = None,
    duration_s: Optional[float] = None,
    sheep: Optional[list] = None,
    line_up: Optional[Mapping[str, SeparatorSpec]] = None,
    workers: int = 0,
) -> Figure6Result:
    """Run the full in-vivo comparison on both simulated ewes.

    ``duration_s`` defaults to four times the preset's synthetic-signal
    duration (the paper's recordings are 40 minutes; the fast preset uses
    a proportionally shorter protocol).  ``line_up`` maps display labels
    to :class:`repro.service.SeparatorSpec` (default: spectral masking
    and DHF scaled by the preset).  The cohort —
    every requested sheep at both wavelengths — runs through one batched
    service call per method; ``workers > 1`` shards the batch across
    that many worker processes.
    """
    context = context or ExperimentContext.from_name()
    if duration_s is None:
        duration_s = 4.0 * context.duration_s
    sheep = sheep or sheep_names()
    if line_up is None:
        line_up = table2_specs(
            context.preset, include=ARTEFACT_METHODS["figure6"],
        )
    recordings = [
        make_sheep_recording(name, duration_s=duration_s, seed=context.seed)
        for name in sheep
    ]
    _LOG.info(
        "figure6: batched cohort of %d sheep x 2 wavelengths x %d methods",
        len(recordings), len(line_up),
    )
    results = run_in_vivo_batch(recordings, line_up, workers=workers)
    correlations: Dict[str, Dict[str, float]] = {}
    oracle: Dict[str, float] = {}
    for recording in recordings:
        oracle[recording.name] = oracle_in_vivo(recording).correlation
        correlations[recording.name] = {
            method: result.correlation
            for method, result in results[recording.name].items()
        }
    return Figure6Result(
        correlations=correlations,
        oracle_correlations=oracle,
        results=results,
        preset_name=context.preset.name,
    )
