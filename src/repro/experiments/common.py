"""Shared infrastructure for the experiment runners.

Each ``repro.experiments.<artefact>`` module regenerates one table or
figure of the paper.  Runners accept a :class:`repro.config.Preset` so the
same code path serves both paper-scale runs (``full``) and CI-scale runs
(``fast``/``smoke``), and each embeds the paper's reported values for
side-by-side comparison in its rendered output.

Methods are named, never hand-constructed: every separator the runners
touch comes out of the :mod:`repro.service` registry as a
:class:`repro.service.SeparatorSpec` (see :func:`table2_specs`), and
every record set runs through a :class:`repro.service.SeparationService`
— so every runner benefits from vectorized ``separate_batch``
implementations, shared STFT plans, and optional process shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import Preset, get_preset
from repro.core import DHFSeparator
from repro.pipeline import SeparationRecord
from repro.service import DHFSpec, SeparatorSpec, default_spec, separator_entry
from repro.synth import make_mixture

#: Method display order of Table 2 (paper spellings).
TABLE2_METHOD_ORDER = (
    "EMD", "VMD", "NMF", "REPET", "REPET-Ext.", "Spect. Masking", "DHF",
)

#: The Fig. 6b line-up: the prior state of the art, then the paper's method.
FIGURE6_METHODS = ("Spect. Masking", "DHF")

#: Default method names of every artefact whose line-up is selectable
#: (the CLI's ``--method``/``--spec`` artefacts); the monitor streams one.
ARTEFACT_METHODS: Dict[str, Tuple[str, ...]] = {
    "table2": TABLE2_METHOD_ORDER,
    "figure6": FIGURE6_METHODS,
    "monitor": ("Spect. Masking",),
    "scoreboard": TABLE2_METHOD_ORDER,
}


def display_method_name(name: str) -> str:
    """A registry name or alias in its display spelling: the entry's
    first alias, the paper's spelling of the method."""
    return separator_entry(name).aliases[0]


def table2_specs(
    preset: Preset,
    include: Optional[Sequence[str]] = None,
) -> Dict[str, SeparatorSpec]:
    """A method line-up as specs, keyed by display name.

    Parameters
    ----------
    preset:
        Scales the DHF spec (signal durations and deep-prior budgets);
        baseline specs are preset-independent, as in the paper.
    include:
        Method names — display spellings or registry names/aliases
        (default: the Table 2 seven), returned in the table's order.
        Unknown names raise :class:`repro.errors.ConfigurationError`
        with a did-you-mean suggestion.
    """
    wanted = {
        display_method_name(name)
        for name in (TABLE2_METHOD_ORDER if include is None else include)
    }
    return {
        display: (
            DHFSpec.from_preset(preset) if display == "DHF"
            else default_spec(display)
        )
        for display in TABLE2_METHOD_ORDER if display in wanted
    }


def records_from_mixtures(
    mixture_names: Sequence[str],
    context: "ExperimentContext",
    reference_filter: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
) -> Tuple[List[SeparationRecord], Dict[Tuple[str, int], str]]:
    """Render Table 1 mixtures as scored separation records.

    Parameters
    ----------
    mixture_names:
        Mixture names (``"msig1"`` .. ``"msig5"``) to render at the
        context's duration and seed.
    context:
        The preset/seed bundle of the calling runner.
    reference_filter:
        Optional ``f(signal, sampling_hz) -> signal`` applied to each
        ground-truth source before it becomes a scoring reference (the
        paper band-passes references to the scoring band).

    Returns
    -------
    ``(records, labels)`` where ``labels`` maps the batch result's
    ``(record name, source index)`` score keys to source labels
    (role names, suffixed when a role repeats — see
    :meth:`repro.synth.MixtureSpec.source_labels`).
    """
    records: List[SeparationRecord] = []
    labels: Dict[Tuple[str, int], str] = {}
    for mix_name in mixture_names:
        mixture = make_mixture(
            mix_name, duration_s=context.duration_s, seed=context.seed,
        )
        references = {}
        for idx, label in enumerate(mixture.spec.source_labels()):
            labels[(mix_name, idx)] = label
            reference = mixture.sources[label]
            if reference_filter is not None:
                reference = reference_filter(reference, mixture.sampling_hz)
            references[label] = reference
        records.append(SeparationRecord(
            mixed=mixture.mixed,
            sampling_hz=mixture.sampling_hz,
            f0_tracks=mixture.f0_tracks,
            name=mix_name,
            references=references,
        ))
    return records, labels


def dhf_round(context: "ExperimentContext", mixture_name: str, target: str):
    """One DHF round of a context-scaled mixture, as DHF prepares it.

    Returns the preset's :class:`repro.service.DHFSpec`, the round that
    :meth:`repro.core.DHFSeparator.prepare_round` prepares (aligned
    spectrogram and masks) and the target's ground-truth magnitude on
    its grid.  Fig. 3 and the fit ablations in-paint this round.
    """
    mixture = make_mixture(
        mixture_name, duration_s=context.duration_s, seed=context.seed,
    )
    config = DHFSpec.from_preset(context.preset)
    dhf = DHFSeparator(config)
    prep = dhf.prepare_round(
        mixture.mixed, mixture.sampling_hz, mixture.f0_tracks, target,
        context.seed,
    )
    reference = dhf.reference_magnitude(
        prep, mixture.sources[target], mixture.sampling_hz,
        mixture.f0_tracks,
    )
    return config, prep, reference


@dataclass
class ExperimentContext:
    """Bundles the preset and bookkeeping every runner needs."""

    preset: Preset
    seed: int = 2024

    @classmethod
    def from_name(cls, preset_name: Optional[str] = None, seed: int = 2024):
        return cls(preset=get_preset(preset_name), seed=seed)

    @property
    def duration_s(self) -> float:
        return self.preset.signal_duration_s
