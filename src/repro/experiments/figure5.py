"""Experiment E-F5: regenerate Fig. 5 (masked-energy-ratio analysis).

Fig. 5a relates DHF's SDR improvement over the best previous method to the
*masked energy ratio* (MER) of each separation round: low MER — trying to
pull a weak target from under strong overlapping interference — is where
previous methods collapse and DHF shines.  Fig. 5b is an example separated
waveform; we report its per-source SDRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import SCORING_BAND_HZ
from repro.dsp.filters import bandpass_filter
from repro.core import DHFSeparator
from repro.experiments.common import ExperimentContext, table2_specs
from repro.metrics import pearson, sdr_db
from repro.service import DHFSpec, build_separator
from repro.synth import make_mixture, mixture_names
from repro.utils.logging import get_logger
from repro.utils.tables import TextTable

_LOG = get_logger("experiments.figure5")


@dataclass
class Figure5Point:
    """One separation round in the Fig. 5a scatter."""

    mixture: str
    source: str
    masked_energy_ratio: float
    dhf_sdr_db: float
    best_previous_sdr_db: float
    best_previous_method: str

    @property
    def improvement_db(self) -> float:
        return self.dhf_sdr_db - self.best_previous_sdr_db


@dataclass
class Figure5Result:
    """The MER-vs-improvement series plus the Fig. 5b example."""

    points: List[Figure5Point]
    example_sdrs: Dict[str, float]
    example_mixture: str
    preset_name: str

    def correlation_mer_improvement(self) -> float:
        """Correlation between MER and DHF's improvement (expected < 0)."""
        if len(self.points) < 2:
            return float("nan")
        mers = [p.masked_energy_ratio for p in self.points]
        imps = [p.improvement_db for p in self.points]
        return pearson(np.asarray(mers), np.asarray(imps))

    def render(self) -> str:
        table = TextTable(
            ["mixture", "source", "MER", "DHF SDR", "best prev (method)",
             "improvement dB"],
            title=(
                "Fig. 5a — DHF improvement vs masked energy ratio "
                f"(preset={self.preset_name})"
            ),
        )
        for p in sorted(self.points, key=lambda p: p.masked_energy_ratio):
            table.add_row([
                p.mixture, p.source, p.masked_energy_ratio, p.dhf_sdr_db,
                f"{p.best_previous_sdr_db:.2f} ({p.best_previous_method})",
                p.improvement_db,
            ])
        lines = [
            table.render(), "",
            f"corr(MER, improvement) = "
            f"{self.correlation_mer_improvement():.3f} "
            "(paper: improvements concentrate at low MER, i.e. negative)",
            "",
            f"Fig. 5b — example separation of {self.example_mixture}: " +
            ", ".join(f"{k}: {v:.2f} dB" for k, v in self.example_sdrs.items()),
        ]
        return "\n".join(lines)


def run_figure5(
    context: Optional[ExperimentContext] = None,
    mixtures: Optional[List[str]] = None,
    baseline_methods: Tuple[str, ...] = ("Spect. Masking", "REPET-Ext.", "VMD"),
    example_mixture: str = "msig5",
) -> Figure5Result:
    """Compute MER and SDR improvement for every separation round."""
    context = context or ExperimentContext.from_name()
    mixtures = mixtures or mixture_names()
    baselines = {
        name: build_separator(spec) for name, spec
        in table2_specs(context.preset, include=baseline_methods).items()
    }
    dhf = DHFSeparator(DHFSpec.from_preset(context.preset))
    points: List[Figure5Point] = []
    example_sdrs: Dict[str, float] = {}
    low, high = SCORING_BAND_HZ

    for mix_name in mixtures:
        mixture = make_mixture(
            mix_name, duration_s=context.duration_s, seed=context.seed,
        )
        _LOG.info("figure5: DHF on %s", mix_name)
        result = dhf.separate_detailed(
            mixture.mixed, mixture.sampling_hz, mixture.f0_tracks,
            reference_sources=mixture.sources,
        )
        baseline_estimates = {
            name: sep.separate(
                mixture.mixed, mixture.sampling_hz, mixture.f0_tracks
            )
            for name, sep in baselines.items()
        }
        for src_name in mixture.source_names():
            reference = bandpass_filter(
                mixture.sources[src_name], mixture.sampling_hz, low, high,
            )
            dhf_sdr = sdr_db(
                bandpass_filter(
                    result.estimates[src_name], mixture.sampling_hz, low, high
                ),
                reference,
            )
            best_name, best_sdr = None, -np.inf
            for name, est in baseline_estimates.items():
                s = sdr_db(
                    bandpass_filter(est[src_name], mixture.sampling_hz,
                                    low, high),
                    reference,
                )
                if s > best_sdr:
                    best_name, best_sdr = name, s
            mer = result.round_for(src_name).masked_energy_ratio
            points.append(Figure5Point(
                mixture=mix_name,
                source=src_name,
                masked_energy_ratio=float(mer) if mer is not None else float("nan"),
                dhf_sdr_db=dhf_sdr,
                best_previous_sdr_db=best_sdr,
                best_previous_method=best_name,
            ))
            if mix_name == example_mixture:
                example_sdrs[src_name] = dhf_sdr
    return Figure5Result(
        points=points,
        example_sdrs=example_sdrs,
        example_mixture=example_mixture,
        preset_name=context.preset.name,
    )
