"""Experiment E-F3: regenerate Fig. 3 (in-painting prior comparison).

The masked, pattern-aligned spectrogram of one DHF round — the one DHF
itself in-paints (:func:`repro.experiments.common.dhf_round`) — is
in-painted by the four network variants — conventional CNN, baseline
harmonic (anchor > 1 with frequency pooling), SpAc (anchor 1, no
pooling), and SpAc with time dilation — and the concealed-region
reconstruction error is tracked per iteration.  The paper's claim: harmonic beats conventional, and the
spectrally-accurate design (especially with dilation) shows the least
noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.inpainting import (
    PRIOR_KINDS,
    config_for_prior_kind,
    inpaint_spectrogram,
)
from repro.experiments.common import ExperimentContext, dhf_round
from repro.utils.logging import get_logger
from repro.utils.tables import TextTable

_LOG = get_logger("experiments.figure3")


@dataclass
class Figure3Result:
    """Concealed-region error trajectories per prior variant."""

    error_curves: Dict[str, np.ndarray]
    final_errors: Dict[str, float]
    best_errors: Dict[str, float]
    preset_name: str

    def render(self) -> str:
        table = TextTable(
            ["prior variant", "final concealed MSE", "best concealed MSE",
             "iterations"],
            title=(
                "Fig. 3 — in-painting comparison of convolution variants "
                f"(preset={self.preset_name}; lower is better)"
            ),
        )
        for kind in self.error_curves:
            table.add_row([
                kind,
                self.final_errors[kind],
                self.best_errors[kind],
                int(self.error_curves[kind].size),
            ])
        ranked = sorted(self.best_errors, key=self.best_errors.get)
        lines = [table.render(), "",
                 "ranking (best first): " + " > ".join(ranked),
                 "paper expectation: spac_dilated/spac best, conventional worst"]
        return "\n".join(lines)


def run_figure3(
    context: Optional[ExperimentContext] = None,
    mixture_name: str = "msig1",
    target: str = "maternal",
    kinds=PRIOR_KINDS,
) -> Figure3Result:
    """Fit each prior variant on the identical masked spectrogram."""
    context = context or ExperimentContext.from_name()
    config, prep, reference = dhf_round(context, mixture_name, target)
    base = config.inpainting_config(context.preset.time_dilation)
    curves: Dict[str, np.ndarray] = {}
    for kind in kinds:
        _LOG.info("figure3: fitting %s", kind)
        cfg = config_for_prior_kind(kind, base)
        fit = inpaint_spectrogram(
            prep.spec.magnitude, prep.masks.visibility, cfg,
            rng=context.seed, reference=reference,
        )
        curves[kind] = fit.concealed_errors
    return Figure3Result(
        error_curves=curves,
        final_errors={k: float(v[-1]) for k, v in curves.items()},
        best_errors={k: float(v.min()) for k, v in curves.items()},
        preset_name=context.preset.name,
    )
