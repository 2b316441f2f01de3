"""The separator × scenario × mixture grid and its scoreboard artefact.

:class:`ScenarioGrid` fans every configured separator over every
scenario and mixture through **one** :class:`repro.service.
SeparationService` per method — all cells of a method share the
service's shard engine and STFT-plan cache, exactly like a production
deployment would.  Batch cells go through ``separate_batch``; stream
cells go through ``stream_batch`` (one streaming engine per record).

The result is a :class:`Scoreboard`: per-cell SDR/MSE for every source
plus deltas against the method's *clean* cell on the same mixture, a
robustness ranking across methods, and a JSON round-trip for golden
fixtures and CLI output.  The clean baseline is part of the grid itself
(a zero-op :class:`repro.scenarios.Scenario`), so "zero severity equals
the clean path" is an observable property of the artefact, not an
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import SYNTH_SAMPLING_HZ
from repro.errors import ConfigurationError, DataError
from repro.pipeline import SeparationRecord
from repro.scenarios.scenario import Scenario, ScenarioLike, as_scenario
from repro.service import SeparationService, resolve_spec
from repro.synth import make_mixture
from repro.utils.tables import TextTable, format_float
from repro.utils.validation import check_positive

#: Default mixture line-up: two Table 1 mixtures plus one N>2-source
#: extension, satisfying the suite's ">= 3 mixtures incl. one with more
#: than two sources" coverage floor.
DEFAULT_MIXTURES = ("msig1", "msig3", "xmsig4")


@dataclass(frozen=True)
class GridCell:
    """One (method, scenario, mixture) evaluation."""

    method: str
    scenario: str
    mixture: str
    total_severity: float
    #: Per-source ``label -> (sdr_db, mse)``.
    scores: Dict[str, Tuple[float, float]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "scenario": self.scenario,
            "mixture": self.mixture,
            "total_severity": self.total_severity,
            "scores": {
                label: [float(sdr), float(mse)]
                for label, (sdr, mse) in sorted(self.scores.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GridCell":
        return cls(
            method=data["method"],
            scenario=data["scenario"],
            mixture=data["mixture"],
            total_severity=float(data["total_severity"]),
            scores={
                label: (float(pair[0]), float(pair[1]))
                for label, pair in data["scores"].items()
            },
        )


@dataclass
class Scoreboard:
    """The grid's artefact: every cell plus clean-relative robustness."""

    cells: List[GridCell]
    methods: List[str]
    scenarios: List[Scenario]
    mixtures: List[str]
    mode: str
    config: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self._index = {
            (c.method, c.scenario, c.mixture): c for c in self.cells
        }
        if len(self._index) != len(self.cells):
            raise DataError("scoreboard contains duplicate grid cells")

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def cell(self, method: str, scenario: str, mixture: str) -> GridCell:
        try:
            return self._index[(method, scenario, mixture)]
        except KeyError:
            raise DataError(
                f"no cell for method={method!r}, scenario={scenario!r}, "
                f"mixture={mixture!r}"
            ) from None

    def clean_cell(self, method: str, mixture: str) -> GridCell:
        """The method's zero-severity baseline cell on a mixture."""
        for scenario in self.scenarios:
            if scenario.total_severity == 0:
                return self.cell(method, scenario.name, mixture)
        raise DataError(
            "scoreboard has no clean (zero-severity) scenario to "
            "baseline against"
        )

    def deltas(self, cell: GridCell) -> Dict[str, Tuple[float, float]]:
        """Per-source ``(sdr_drop_db, mse_ratio)`` vs the clean cell.

        ``sdr_drop_db`` is clean minus degraded (positive = damage);
        ``mse_ratio`` is degraded over clean (> 1 = damage).
        """
        clean = self.clean_cell(cell.method, cell.mixture)
        out = {}
        for label, (sdr, mse) in cell.scores.items():
            clean_sdr, clean_mse = clean.scores[label]
            ratio = mse / clean_mse if clean_mse > 0 else float("inf")
            out[label] = (clean_sdr - sdr, ratio)
        return out

    # ------------------------------------------------------------------ #
    # Ranking
    # ------------------------------------------------------------------ #
    def robustness(self) -> Dict[str, Dict[str, float]]:
        """Per-method aggregates over every *degraded* cell.

        ``mean_sdr_db`` averages absolute scores; ``mean_sdr_drop_db``
        averages the clean-relative drop (lower = more robust).
        """
        out: Dict[str, Dict[str, float]] = {}
        for method in self.methods:
            sdrs: List[float] = []
            drops: List[float] = []
            for cell in self.cells:
                if cell.method != method or cell.total_severity == 0:
                    continue
                deltas = self.deltas(cell)
                # Sorted labels keep the reduction order (and thus the
                # float result) identical across a JSON round-trip.
                for label in sorted(cell.scores):
                    sdrs.append(cell.scores[label][0])
                    drops.append(deltas[label][0])
            if not sdrs:
                raise DataError(
                    f"method {method!r} has no degraded cells to rank"
                )
            out[method] = {
                "mean_sdr_db": float(np.mean(sdrs)),
                "mean_sdr_drop_db": float(np.mean(drops)),
            }
        return out

    def rankings(self) -> List[Tuple[str, float]]:
        """Methods ordered most-robust first (smallest mean SDR drop)."""
        robustness = self.robustness()
        return sorted(
            ((m, stats["mean_sdr_drop_db"]) for m, stats in robustness.items()),
            key=lambda pair: pair[1],
        )

    # ------------------------------------------------------------------ #
    # Serialization / rendering
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "methods": list(self.methods),
            "scenarios": [s.to_dict() for s in self.scenarios],
            "mixtures": list(self.mixtures),
            "config": dict(self.config),
            "cells": [c.to_dict() for c in self.cells],
            "robustness": self.robustness(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scoreboard":
        return cls(
            cells=[GridCell.from_dict(c) for c in data["cells"]],
            methods=list(data["methods"]),
            scenarios=[Scenario.from_dict(s) for s in data["scenarios"]],
            mixtures=list(data["mixtures"]),
            mode=data["mode"],
            config=dict(data.get("config", {})),
        )

    def render(self) -> str:
        """Robustness scoreboard: method × scenario mean SDR drops."""
        scenario_names = [
            s.name for s in self.scenarios if s.total_severity > 0
        ]
        table = TextTable(
            ["method", "clean SDR"] + [f"{n} ΔSDR" for n in scenario_names],
            title=(
                f"Robustness scoreboard — mean SDR (dB) drop vs clean, "
                f"{len(self.mixtures)} mixtures, mode={self.mode}"
            ),
        )
        robustness = self.robustness()
        for method, _ in self.rankings():
            clean_sdrs = []
            for mixture in self.mixtures:
                clean = self.clean_cell(method, mixture).scores
                clean_sdrs += [clean[label][0] for label in sorted(clean)]
            row: List[object] = [method, float(np.mean(clean_sdrs))]
            for name in scenario_names:
                drops = []
                for mixture in self.mixtures:
                    deltas = self.deltas(self.cell(method, name, mixture))
                    drops += [deltas[label][0] for label in sorted(deltas)]
                row.append(float(np.mean(drops)))
            table.add_row(row)
        lines = [table.render(), ""]
        for rank, (method, drop) in enumerate(self.rankings(), start=1):
            mean_sdr = robustness[method]["mean_sdr_db"]
            lines.append(
                f"#{rank} {method}: mean degraded SDR "
                f"{format_float(mean_sdr)} dB "
                f"(drop {format_float(drop)} dB vs clean)"
            )
        return "\n".join(lines)


#: Methods argument: a mapping of display label -> spec-like, or a
#: sequence of registry names / specs (labelled by their method key).
MethodsLike = Union[
    Mapping[str, Any], Sequence[Any], None,
]


class ScenarioGrid:
    """Fan separators × scenarios × mixtures through one service each.

    Parameters
    ----------
    methods:
        ``{label: spec-like}`` or a sequence of registry names/specs.
    scenarios:
        Scenario-likes (see :func:`repro.scenarios.as_scenario`).  A
        zero-severity ``"clean"`` scenario is prepended when the list
        has no zero-severity entry — the scoreboard needs it to baseline
        the deltas.
    mixtures:
        Mixture names (Table 1 or extension) rendered at
        ``duration_s`` / ``seed``.
    mode:
        ``"batch"`` (``separate_batch``) or ``"stream"``
        (``stream_batch``; geometry from the ``stream_*`` knobs, default
        single-segment per record with 1 s chunks).
    workers:
        Worker processes handed to each method's
        :class:`repro.service.SeparationService` (shared across every
        cell of that method); they shard batch cells only, since stream
        cells always run in this process.
    postprocess / reference_filter:
        Estimate postprocessing and reference conditioning, exactly as
        the Table 2 runner wires them (pass both to make zero-severity
        cells bitwise equal to the clean Table 2 path).
    """

    def __init__(
        self,
        methods: MethodsLike = None,
        scenarios: Optional[Sequence[ScenarioLike]] = None,
        mixtures: Sequence[str] = DEFAULT_MIXTURES,
        mode: str = "batch",
        duration_s: float = 30.0,
        sampling_hz: float = SYNTH_SAMPLING_HZ,
        seed: int = 2024,
        workers: int = 0,
        postprocess: Optional[Callable] = None,
        reference_filter: Optional[Callable] = None,
        stream_segment_seconds: Optional[float] = None,
        stream_overlap_seconds: Optional[float] = None,
        stream_chunk_seconds: float = 1.0,
    ):
        if mode not in ("batch", "stream"):
            raise ConfigurationError(
                f"ScenarioGrid.mode must be 'batch' or 'stream', got {mode!r}"
            )
        self.methods = self._resolve_methods(methods)
        self.scenarios = self._resolve_scenarios(scenarios)
        if not mixtures:
            raise ConfigurationError("ScenarioGrid needs at least one mixture")
        self.mixtures = [str(m) for m in mixtures]
        self.mode = mode
        self.duration_s = check_positive(duration_s, "duration_s")
        self.sampling_hz = check_positive(sampling_hz, "sampling_hz")
        self.seed = seed
        self.workers = workers
        self.postprocess = postprocess
        self.reference_filter = reference_filter
        self.stream_segment_seconds = stream_segment_seconds
        self.stream_overlap_seconds = stream_overlap_seconds
        self.stream_chunk_seconds = check_positive(
            stream_chunk_seconds, "stream_chunk_seconds"
        )

    @staticmethod
    def _resolve_methods(methods: MethodsLike) -> Dict[str, Any]:
        from repro.service import available_separators

        if methods is None:
            methods = available_separators()
        if isinstance(methods, Mapping):
            items = [(label, resolve_spec(spec))
                     for label, spec in methods.items()]
        else:
            items = [(resolve_spec(spec).method, resolve_spec(spec))
                     for spec in methods]
        if not items:
            raise ConfigurationError("ScenarioGrid needs at least one method")
        labels = [label for label, _ in items]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                f"duplicate method labels in grid: {labels}"
            )
        return dict(items)

    @staticmethod
    def _resolve_scenarios(
        scenarios: Optional[Sequence[ScenarioLike]],
    ) -> List[Scenario]:
        if scenarios is None:
            scenarios = []
        resolved = [as_scenario(s) for s in scenarios]
        names = [s.name for s in resolved]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate scenario names in grid: {names}"
            )
        if not any(s.total_severity == 0 for s in resolved):
            resolved.insert(0, Scenario(name="clean"))
        return resolved

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _records(self) -> List[SeparationRecord]:
        records = []
        for mixture_name in self.mixtures:
            mixture = make_mixture(
                mixture_name, duration_s=self.duration_s,
                sampling_hz=self.sampling_hz, seed=self.seed,
            )
            references = {}
            for label in mixture.spec.source_labels():
                reference = mixture.sources[label]
                if self.reference_filter is not None:
                    reference = self.reference_filter(
                        reference, mixture.sampling_hz
                    )
                references[label] = reference
            records.append(SeparationRecord(
                mixed=mixture.mixed,
                sampling_hz=mixture.sampling_hz,
                f0_tracks=mixture.f0_tracks,
                name=mixture.spec.name,
                references=references,
            ))
        return records

    def _run_cells(
        self,
        service: SeparationService,
        scenario: Scenario,
        records: Sequence[SeparationRecord],
    ) -> List[Dict[str, Tuple[float, float]]]:
        degraded = [scenario.degrade_record(r) for r in records]
        if self.mode == "batch":
            outcome = service.separate_batch(degraded)
        else:
            n = degraded[0].n_samples
            segment = (
                n if self.stream_segment_seconds is None
                else int(round(self.stream_segment_seconds * self.sampling_hz))
            )
            overlap = (
                segment // 4 if self.stream_overlap_seconds is None
                else int(round(self.stream_overlap_seconds * self.sampling_hz))
            )
            chunk = int(round(self.stream_chunk_seconds * self.sampling_hz))
            outcome = service.stream_batch(
                degraded, segment_samples=segment,
                overlap_samples=overlap, chunk_samples=chunk,
            )
        by_name = {r.name: r for r in outcome.batch.results}
        return [dict(by_name[r.name].scores) for r in records]

    def run(self) -> Scoreboard:
        """Execute every cell and assemble the :class:`Scoreboard`."""
        records = self._records()
        cells: List[GridCell] = []
        for label, spec in self.methods.items():
            with SeparationService(
                spec, workers=self.workers, postprocess=self.postprocess,
            ) as service:
                for scenario in self.scenarios:
                    for record, scores in zip(
                        records, self._run_cells(service, scenario, records)
                    ):
                        cells.append(GridCell(
                            method=label,
                            scenario=scenario.name,
                            mixture=record.name,
                            total_severity=scenario.total_severity,
                            scores=scores,
                        ))
        return Scoreboard(
            cells=cells,
            methods=list(self.methods),
            scenarios=list(self.scenarios),
            mixtures=list(self.mixtures),
            mode=self.mode,
            config={
                "duration_s": self.duration_s,
                "sampling_hz": self.sampling_hz,
                "seed": self.seed,
                "workers": self.workers,
            },
        )


def run_scenario_grid(**kwargs) -> Scoreboard:
    """Build a :class:`ScenarioGrid` from the kwargs and run it."""
    return ScenarioGrid(**kwargs).run()
