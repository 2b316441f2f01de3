"""repro.scenarios — degradation scenarios and the robustness scoreboard.

The scenario suite answers the deployed-channel question the clean
Table 2 benchmark cannot: how does each registered separator hold up
when the single-detector measurement suffers sensor dropouts, motion
artifacts, additive noise, or codec-style compression — including on
mixtures with more than two simultaneous sources?

Three layers, mirroring the service idiom one level up:

* **Degradations** (:mod:`repro.scenarios.degradations`): frozen,
  seeded, JSON-round-trippable :class:`DegradationSpec` ops in a fixed
  table keyed by ``kind`` — ``dropout`` / ``motion`` / ``noise`` /
  ``compression``.  Zero severity is a bitwise no-op; damage grows
  monotonically with severity.
* **Scenarios** (:mod:`repro.scenarios.scenario`): named chains of
  degradations applied to the *mixed* channel of a
  :class:`repro.pipeline.SeparationRecord` (references stay clean).
* **Grid** (:mod:`repro.scenarios.grid`): :class:`ScenarioGrid` fans
  methods × scenarios × mixtures through one
  :class:`repro.service.SeparationService` per method and emits a
  :class:`Scoreboard` — per-cell SDR/MSE, clean-relative deltas, and a
  robustness ranking (CLI: ``python -m repro.experiments.cli
  scoreboard``).
"""

from repro.scenarios.degradations import (
    CompressionSpec,
    DegradationEntry,
    DegradationSpec,
    MotionArtifactSpec,
    NoiseSpec,
    SensorDropoutSpec,
    available_degradations,
    default_degradation,
    degradation_entry,
    resolve_degradation,
)
from repro.scenarios.scenario import (
    Scenario,
    as_scenario,
    severity_sweep,
)
from repro.scenarios.grid import (
    DEFAULT_MIXTURES,
    GridCell,
    ScenarioGrid,
    Scoreboard,
    run_scenario_grid,
)

__all__ = [
    "DegradationSpec",
    "DegradationEntry",
    "SensorDropoutSpec",
    "MotionArtifactSpec",
    "NoiseSpec",
    "CompressionSpec",
    "available_degradations",
    "default_degradation",
    "degradation_entry",
    "resolve_degradation",
    "Scenario",
    "as_scenario",
    "severity_sweep",
    "DEFAULT_MIXTURES",
    "GridCell",
    "ScenarioGrid",
    "Scoreboard",
    "run_scenario_grid",
]
