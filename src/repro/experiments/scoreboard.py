"""Experiment: the service-wide robustness scoreboard.

Not a paper artefact — the paper evaluates on clean synthesized mixtures
only — but the deployment question next to Table 2: the Table 2
methods run over every degradation scenario (sensor dropouts, motion
wander, SNR sweep, codec compression at several severities) on clean
*and* N>2-source mixtures, through the same service/batch machinery and
the same scoring-band conventions as Table 2.  Zero-severity cells are
bitwise equal to the clean Table 2 path, so every reported delta is
attributable to the degradation alone.

CLI::

    python -m repro.experiments.cli scoreboard --preset smoke
    python -m repro.experiments.cli scoreboard --method dhf --method repet
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.config import SCORING_BAND_HZ
from repro.dsp.filters import bandpass_filter
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ARTEFACT_METHODS,
    ExperimentContext,
    table2_specs,
)
from repro.scenarios import (
    DEFAULT_MIXTURES,
    ScenarioGrid,
    Scoreboard,
    default_degradation,
    severity_sweep,
)
from repro.service import SeparatorSpec
from repro.utils.logging import get_logger

_LOG = get_logger("experiments.scoreboard")

#: Default degradation families — all four built-in kinds.
DEFAULT_FAMILIES: Tuple[str, ...] = (
    "dropout", "motion", "noise", "compression",
)

#: Default per-family severity sweep.  Zero is deliberately included:
#: its cells must reproduce the clean baseline bitwise, which makes the
#: "deltas measure the degradation, nothing else" property observable
#: in the artefact itself.
DEFAULT_SEVERITIES: Tuple[float, ...] = (0.0, 0.35, 0.7)


@dataclass
class ScoreboardResult:
    """The grid's :class:`repro.scenarios.Scoreboard` plus run context."""

    board: Scoreboard
    preset_name: str

    def render(self) -> str:
        header = (
            f"Robustness scoreboard (preset={self.preset_name}; "
            f"scenarios={len(self.board.scenarios)}, "
            f"mixtures={', '.join(self.board.mixtures)})"
        )
        return f"{header}\n\n{self.board.render()}"

    def to_dict(self) -> Dict[str, Any]:
        out = self.board.to_dict()
        out["config"]["preset"] = self.preset_name
        return out


def run_scoreboard(
    context: Optional[ExperimentContext] = None,
    line_up: Optional[Mapping[str, SeparatorSpec]] = None,
    families: Sequence[str] = DEFAULT_FAMILIES,
    severities: Sequence[float] = DEFAULT_SEVERITIES,
    mixtures: Optional[Sequence[str]] = None,
    mode: str = "batch",
    workers: int = 0,
) -> ScoreboardResult:
    """Run the robustness grid with the Table 2 conventions.

    Parameters
    ----------
    context:
        Preset + seed bundle (defaults to the ``fast`` preset); sets the
        mixture duration and generation seed.
    line_up:
        ``{label: SeparatorSpec}`` to grade, as
        :func:`repro.experiments.run_table2` takes it (the CLI's
        ``--method`` / ``--spec`` flags).  Default: the seven methods of
        Table 2.
    families:
        Degradation kinds to sweep (default: all four built-ins).
    severities:
        Per-family severities; include ``0.0`` to embed the
        bitwise-equal-to-clean check in the artefact (default does).
    mixtures:
        Mixture names; default ``("msig1", "msig3", "xmsig4")`` — two
        Table 1 mixtures plus one 4-source extension.
    mode:
        ``"batch"`` or ``"stream"`` service execution.
    workers:
        Worker processes per method's service (batch cells only).
    """
    context = context or ExperimentContext.from_name()
    if line_up is None:
        line_up = table2_specs(
            context.preset, include=ARTEFACT_METHODS["scoreboard"],
        )
    if not line_up:
        raise ConfigurationError("scoreboard needs at least one method")
    if not families:
        raise ConfigurationError("scoreboard needs at least one family")
    scenarios = [
        scenario
        for family in families
        for scenario in severity_sweep(
            default_degradation(family), severities
        )
    ]

    low, high = SCORING_BAND_HZ

    def to_band(signal, sampling_hz):
        return bandpass_filter(signal, sampling_hz, low, high)

    grid = ScenarioGrid(
        methods=line_up,
        scenarios=scenarios,
        mixtures=tuple(mixtures) if mixtures else DEFAULT_MIXTURES,
        mode=mode,
        duration_s=context.duration_s,
        seed=context.seed,
        workers=workers,
        postprocess=lambda est, record: to_band(est, record.sampling_hz),
        reference_filter=to_band,
    )
    _LOG.info(
        "scoreboard: %d methods x %d scenarios x %d mixtures (%s mode)",
        len(grid.methods), len(grid.scenarios), len(grid.mixtures), mode,
    )
    return ScoreboardResult(
        board=grid.run(), preset_name=context.preset.name,
    )
