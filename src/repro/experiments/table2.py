"""Experiment E-T2: regenerate Table 2 (method comparison on MSig1–5).

Every method separates every mixture; separated sources are band-pass
filtered to [0, 12] Hz (as the paper does before scoring) and scored with
SDR and MSE.  The Average row uses the paper's rules: arithmetic mean of
linear SDR, geometric mean of MSE.  Rendered output shows the reproduced
numbers next to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.config import SCORING_BAND_HZ
from repro.dsp.filters import bandpass_filter
from repro.experiments.common import (
    ARTEFACT_METHODS,
    ExperimentContext,
    records_from_mixtures,
    table2_specs,
)
from repro.service import SeparationService, SeparatorSpec
from repro.experiments.paper_reference import (
    PAPER_LOW_POWER_CASES,
    PAPER_TABLE2,
    PAPER_TABLE2_AVERAGE,
)
from repro.metrics import average_mse, average_sdr_db
from repro.synth import mixture_names
from repro.utils.logging import get_logger
from repro.utils.tables import TextTable, format_float

_LOG = get_logger("experiments.table2")

CaseKey = Tuple[str, int]  # (mixture, source index in generation order)


@dataclass
class Table2Result:
    """Scores per method per (mixture, source)."""

    scores: Dict[str, Dict[CaseKey, Tuple[float, float]]]
    source_labels: Dict[CaseKey, str]
    preset_name: str

    def averages(self) -> Dict[str, Tuple[float, float]]:
        """Paper-style Average row per method."""
        out = {}
        for method, cases in self.scores.items():
            sdrs = [v[0] for v in cases.values()]
            mses = [v[1] for v in cases.values()]
            out[method] = (average_sdr_db(np.asarray(sdrs)),
                           average_mse(np.asarray(mses)))
        return out

    def best_previous(self, case: CaseKey) -> Tuple[str, float]:
        """(method, SDR) of the best non-DHF method on a case."""
        best_name, best_sdr = None, -np.inf
        for method, cases in self.scores.items():
            if method == "DHF" or case not in cases:
                continue
            if cases[case][0] > best_sdr:
                best_name, best_sdr = method, cases[case][0]
        return best_name, best_sdr

    def headline_claims(self) -> Dict[str, float]:
        """Reproduced analogues of the paper's headline numbers."""
        claims: Dict[str, float] = {}
        if "DHF" not in self.scores:
            return claims
        avg = self.averages()
        if len(avg) < 2:  # DHF alone: nothing to compare against
            return claims
        best_prev_sdr = max(v[0] for k, v in avg.items() if k != "DHF")
        best_prev_mse = min(v[1] for k, v in avg.items() if k != "DHF")
        claims["sdr_improvement_db"] = avg["DHF"][0] - best_prev_sdr
        claims["mse_reduction_pct"] = 100.0 * (
            1.0 - avg["DHF"][1] / best_prev_mse
        )
        low_power = [
            case for case in PAPER_LOW_POWER_CASES
            if case in self.scores["DHF"]
        ]
        if low_power:
            deltas = []
            for case in low_power:
                _, best = self.best_previous(case)
                deltas.append(self.scores["DHF"][case][0] - best)
            claims["low_power_sdr_improvement_db"] = float(np.mean(deltas))
        return claims

    def render(self) -> str:
        table = TextTable(
            ["case", "source"] + [
                f"{m} (paper)" for m in self.scores
            ],
            title=(
                "Table 2 — SDR dB / MSE per separated source "
                f"(preset={self.preset_name}; paper values in parentheses)"
            ),
        )
        cases = sorted(self.source_labels)
        for case in cases:
            row = [case[0], self.source_labels[case]]
            for method in self.scores:
                got = self.scores[method].get(case)
                ref = PAPER_TABLE2.get(case, {}).get(method)
                if got is None:
                    row.append("-")
                    continue
                cell = f"{got[0]:.2f}/{format_float(got[1])}"
                if ref is not None:
                    cell += f" ({ref[0]:.2f}/{format_float(ref[1])})"
                row.append(cell)
            table.add_row(row)
        table.add_rule()
        avg_row = ["Average", ""]
        for method, (sdr_avg, mse_avg) in self.averages().items():
            ref = PAPER_TABLE2_AVERAGE.get(method)
            cell = f"{sdr_avg:.2f}/{format_float(mse_avg)}"
            if ref is not None:
                cell += f" ({ref[0]:.2f}/{format_float(ref[1])})"
            avg_row.append(cell)
        table.add_row(avg_row)

        lines = [table.render(), ""]
        for key, value in self.headline_claims().items():
            lines.append(f"reproduced {key}: {format_float(value)}")
        return "\n".join(lines)


def run_table2(
    context: Optional[ExperimentContext] = None,
    mixtures: Optional[List[str]] = None,
    line_up: Optional[Mapping[str, SeparatorSpec]] = None,
    workers: int = 0,
) -> Table2Result:
    """Run the Table 2 comparison, one service batch pass per method.

    Every method is a :class:`repro.service.SeparatorSpec` executed by a
    :class:`repro.service.SeparationService` — no separator is
    constructed directly, so any registry method, at any spec, slots
    into the table.

    Parameters
    ----------
    context:
        Preset + seed bundle (defaults to the ``fast`` preset).
    mixtures:
        Subset of mixture names (default: all five).
    line_up:
        ``{column label: SeparatorSpec}`` to run, in column order
        (default: the seven methods of Table 2, from
        :func:`repro.experiments.table2_specs`; the CLI builds it from
        ``--method``/``--spec``).
    workers:
        Worker processes per method batch (``0`` = serial, which also
        enables vectorized ``separate_batch`` fast paths; ``> 1`` shards
        the mixtures across process workers).
    """
    context = context or ExperimentContext.from_name()
    mixtures = mixtures or mixture_names()
    if line_up is None:
        line_up = table2_specs(
            context.preset, include=ARTEFACT_METHODS["table2"],
        )

    # The paper scores band-pass-filtered signals; both references (at
    # record-building time) and estimates (the service postprocess) pass
    # through the same scoring-band filter.
    low, high = SCORING_BAND_HZ

    def to_band(signal, sampling_hz):
        return bandpass_filter(signal, sampling_hz, low, high)

    records, labels = records_from_mixtures(
        mixtures, context, reference_filter=to_band,
    )
    scores: Dict[str, Dict[CaseKey, Tuple[float, float]]] = {}
    for method_name, spec in line_up.items():
        _LOG.info("table2: %s on %d mixture(s)", method_name, len(records))
        with SeparationService(
            spec, workers=workers,
            postprocess=lambda est, record: to_band(est, record.sampling_hz),
        ) as service:
            batch = service.separate_batch(records).batch
        scores[method_name] = batch.case_scores()
    return Table2Result(
        scores=scores, source_labels=labels, preset_name=context.preset.name,
    )
