"""Ablation experiments for the design choices DESIGN.md calls out.

* **E-AB1 — time dilation** (Sec. 4.2: "an increased time dilation
  parameter can improve the performance for extracting sources with longer
  masked sections"): sweep the dilation on a long-mask case.
* **E-AB2 — anchor / frequency pooling** (Fig. 3's claims in isolation):
  factorial sweep of anchor ∈ {1, 2} × pooling ∈ {off, on}.
* **E-AB3 — phase recovery**: cyclic Re/Im interpolation vs naive angle
  interpolation vs observed-residual phase, measured end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core import DHFSeparator
from repro.core.inpainting import inpaint_spectrogram
from repro.experiments.common import ExperimentContext, dhf_round
from repro.metrics import sdr_db
from repro.service import DHFSpec
from repro.synth import make_mixture
from repro.utils.logging import get_logger
from repro.utils.tables import TextTable

_LOG = get_logger("experiments.ablations")


@dataclass
class SweepResult:
    """Generic (setting -> score) ablation outcome."""

    title: str
    scores: Dict[str, float]
    metric: str
    preset_name: str
    lower_is_better: bool = True

    def best(self) -> str:
        key = min if self.lower_is_better else max
        return key(self.scores, key=self.scores.get)

    def render(self) -> str:
        table = TextTable(
            ["setting", self.metric],
            title=f"{self.title} (preset={self.preset_name})",
        )
        for name, value in self.scores.items():
            table.add_row([name, value])
        return table.render() + f"\nbest setting: {self.best()}"


def run_dilation_ablation(
    context: Optional[ExperimentContext] = None,
    dilations: Tuple[int, ...] = (1, 5, 9, 13, 15),
    mixture_name: str = "msig1",
    target: str = "fetal",
) -> SweepResult:
    """E-AB1: concealed-region error versus time dilation.

    The fetal round of MSig1 has long masked sections (the maternal comb is
    dense), the regime where the paper prescribes dilation 13–15.
    """
    context = context or ExperimentContext.from_name()
    config, prep, reference = dhf_round(context, mixture_name, target)
    scores: Dict[str, float] = {}
    for dilation in dilations:
        cfg = config.inpainting_config(dilation)
        _LOG.info("dilation ablation: D=%d", dilation)
        fit = inpaint_spectrogram(
            prep.spec.magnitude, prep.masks.visibility, cfg,
            rng=context.seed, reference=reference,
        )
        scores[f"dilation={dilation}"] = float(fit.concealed_errors.min())
    return SweepResult(
        title="E-AB1 — time-dilation sweep (concealed MSE)",
        scores=scores,
        metric="best concealed MSE",
        preset_name=context.preset.name,
    )


def run_anchor_pooling_ablation(
    context: Optional[ExperimentContext] = None,
    mixture_name: str = "msig1",
    target: str = "maternal",
) -> SweepResult:
    """E-AB2: anchor and frequency-pooling factorial (Fig. 3 decomposed)."""
    context = context or ExperimentContext.from_name()
    config, prep, reference = dhf_round(context, mixture_name, target)
    base = config.inpainting_config(context.preset.time_dilation)
    scores: Dict[str, float] = {}
    for anchor in (1, 2):
        for pooling in (False, True):
            cfg = replace(base, anchor=anchor, freq_pooling=pooling)
            label = f"anchor={anchor}, freq_pooling={'on' if pooling else 'off'}"
            _LOG.info("anchor/pooling ablation: %s", label)
            fit = inpaint_spectrogram(
                prep.spec.magnitude, prep.masks.visibility, cfg,
                rng=context.seed, reference=reference,
            )
            scores[label] = float(fit.concealed_errors.min())
    return SweepResult(
        title="E-AB2 — anchor / frequency-pooling factorial (concealed MSE)",
        scores=scores,
        metric="best concealed MSE",
        preset_name=context.preset.name,
    )


def run_phase_policy_ablation(
    context: Optional[ExperimentContext] = None,
    mixture_name: str = "msig1",
) -> SweepResult:
    """E-AB3: end-to-end SDR of the weakest source per phase policy."""
    context = context or ExperimentContext.from_name()
    mixture = make_mixture(
        mixture_name, duration_s=context.duration_s, seed=context.seed,
    )
    weakest = min(
        mixture.spec.sources, key=lambda s: s.amp_mean
    ).name
    scores: Dict[str, float] = {}
    for policy in ("auto", "cyclic", "observed"):
        dhf = DHFSeparator(
            DHFSpec.from_preset(context.preset, phase_policy=policy)
        )
        _LOG.info("phase ablation: %s", policy)
        estimates = dhf.separate(
            mixture.mixed, mixture.sampling_hz, mixture.f0_tracks
        )
        scores[f"phase={policy}"] = sdr_db(
            estimates[weakest], mixture.sources[weakest]
        )
    return SweepResult(
        title=f"E-AB3 — phase-policy sweep ({weakest} SDR dB)",
        scores=scores,
        metric="SDR (dB)",
        preset_name=context.preset.name,
        lower_is_better=False,
    )
