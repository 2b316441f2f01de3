"""Named degradation chains and their application to separation records.

A :class:`Scenario` is an ordered chain of
:class:`repro.scenarios.DegradationSpec` ops under one display name —
the unit the scoreboard grid iterates over.  Applying a scenario to a
:class:`repro.pipeline.SeparationRecord` degrades *only the mixed
measurement*: ground-truth references and f0 tracks stay clean, because
the question the suite answers is "how well does each separator recover
the true sources from a corrupted channel", not "how corrupted are the
references".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.pipeline import SeparationRecord
from repro.scenarios.degradations import (
    DegradationLike,
    DegradationSpec,
    resolve_degradation,
)
from repro.service.specs import FrozenSpec


@dataclass(frozen=True)
class Scenario(FrozenSpec):
    """A named, ordered chain of degradations.

    ``degradations`` entries may be given as kind names, spec dicts, or
    spec instances; they are normalised to specs at construction.  An
    empty chain (the default) is the clean baseline — applying it
    returns bitwise-equal signals.
    """

    name: str = "clean"
    degradations: Tuple[DegradationSpec, ...] = ()

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"Scenario.name must be a non-empty string, got {self.name!r}"
            )
        if isinstance(self.degradations, (str, Mapping, DegradationSpec)):
            raise ConfigurationError(
                "Scenario.degradations must be a sequence of degradations, "
                f"got a single {type(self.degradations).__name__}"
            )
        resolved = tuple(
            resolve_degradation(spec) for spec in self.degradations
        )
        object.__setattr__(self, "degradations", resolved)

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #
    @property
    def total_severity(self) -> float:
        """Sum of the chain's severities (0 means a clean scenario)."""
        return float(sum(spec.severity for spec in self.degradations))

    def apply(self, signal, sampling_hz: float) -> np.ndarray:
        """The signal pushed through every degradation, in chain order."""
        out = np.asarray(signal, dtype=np.float64)
        if not self.degradations:
            return out.copy() if out is signal else out
        for spec in self.degradations:
            out = spec.apply(out, sampling_hz)
        return out

    def degrade_record(self, record: SeparationRecord) -> SeparationRecord:
        """A copy of ``record`` with only ``mixed`` degraded.

        Name, f0 tracks, and scoring references carry over untouched, so
        scores of the degraded record measure recovery of the *true*
        sources from the corrupted channel.  With an all-zero-severity
        chain the returned record's ``mixed`` is bitwise equal to the
        clean one.
        """
        return SeparationRecord(
            mixed=self.apply(record.mixed, record.sampling_hz),
            sampling_hz=record.sampling_hz,
            f0_tracks=record.f0_tracks,
            name=record.name,
            references=record.references,
        )


#: Anything the grid accepts as a scenario.
ScenarioLike = Union[str, Mapping, Scenario, DegradationSpec]


def as_scenario(scenario: ScenarioLike) -> Scenario:
    """Coerce a name, dict, spec, or scenario to a :class:`Scenario`.

    A bare degradation kind or spec becomes a single-op scenario named
    ``"<kind>@<severity>"``; the string ``"clean"`` is the empty chain.
    """
    if isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, str):
        if scenario.lower() == "clean":
            return Scenario(name="clean")
        spec = resolve_degradation(scenario)
        return Scenario(name=_sweep_name(spec), degradations=(spec,))
    if isinstance(scenario, DegradationSpec):
        return Scenario(name=_sweep_name(scenario), degradations=(scenario,))
    if isinstance(scenario, Mapping):
        if "degradations" in scenario or set(scenario) <= {"name"}:
            return Scenario.from_dict(scenario)
        spec = resolve_degradation(scenario)
        return Scenario(name=_sweep_name(spec), degradations=(spec,))
    raise ConfigurationError(
        f"expected a scenario, degradation, kind name, or dict, "
        f"got {type(scenario).__name__}"
    )


def _sweep_name(spec: DegradationSpec) -> str:
    return f"{spec.kind}@{spec.severity:g}"


def severity_sweep(
    degradation: DegradationLike,
    severities: Sequence[float],
) -> List[Scenario]:
    """One single-op scenario per severity, named ``"<kind>@<severity>"``.

    The base spec's other knobs (seed, gap length, mode, ...) are shared
    across the sweep, so each step degrades the same realisation harder.
    """
    base = resolve_degradation(degradation)
    if len(severities) == 0:
        raise ConfigurationError("severity_sweep needs at least one severity")
    scenarios = []
    for severity in severities:
        spec = base.replace(severity=float(severity))
        scenarios.append(
            Scenario(name=_sweep_name(spec), degradations=(spec,))
        )
    return scenarios
