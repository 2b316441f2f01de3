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
implementations, shared STFT plans, and optional process shards, and
any separator registered by a plugin is runnable by name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import Preset, get_preset
from repro.core import DHFSeparator
from repro.pipeline import SeparationRecord
from repro.separation import Separator
from repro.service import (
    DHFSpec,
    SeparatorSpec,
    build_separator,
    default_spec,
    separator_entry,
)
from repro.synth import make_mixture

#: Method display order of Table 2 (paper spellings).
TABLE2_METHOD_ORDER = (
    "EMD", "VMD", "NMF", "REPET", "REPET-Ext.", "Spect. Masking", "DHF",
)

#: Table 2 display name -> registry name.
TABLE2_REGISTRY_NAMES = {
    "EMD": "emd",
    "VMD": "vmd",
    "NMF": "nmf",
    "REPET": "repet",
    "REPET-Ext.": "repet-ext",
    "Spect. Masking": "spectral-masking",
    "DHF": "dhf",
}


def display_method_name(name: str) -> str:
    """Resolve any registered name/alias to its Table 2 display spelling.

    Methods outside the Table 2 line-up (plugins) display under their
    canonical registry name.
    """
    canonical = separator_entry(name).name
    for display, registry_name in TABLE2_REGISTRY_NAMES.items():
        if registry_name == canonical:
            return display
    return canonical


def table2_specs(
    preset: Preset,
    include: Optional[Sequence[str]] = None,
) -> Dict[str, SeparatorSpec]:
    """The Table 2 line-up as specs, keyed by display name.

    Parameters
    ----------
    preset:
        Scales the DHF spec (signal durations and deep-prior budgets);
        baseline specs are preset-independent, as in the paper.
    include:
        Optional subset of method names — display spellings or registry
        names/aliases of *any* registered method, so plugin separators
        join the table by name (listed after the standard line-up).
        Unregistered names raise
        :class:`repro.errors.ConfigurationError` with a did-you-mean
        suggestion.
    """
    wanted: Optional[set] = None
    extras: List[str] = []  # registered methods outside the line-up
    if include is not None:
        wanted = set()
        for name in include:
            if name in TABLE2_REGISTRY_NAMES:
                wanted.add(name)
                continue
            canonical = separator_entry(name).name  # raises w/ suggestion
            display = display_method_name(canonical)
            if display in TABLE2_REGISTRY_NAMES:
                wanted.add(display)
            elif display not in extras:
                extras.append(display)
    specs: Dict[str, SeparatorSpec] = {}
    for display in TABLE2_METHOD_ORDER:
        if wanted is not None and display not in wanted:
            continue
        registry_name = TABLE2_REGISTRY_NAMES[display]
        if registry_name == "dhf":
            specs[display] = DHFSpec.from_preset(preset)
        else:
            specs[display] = default_spec(registry_name)
    for display in extras:
        specs[display] = default_spec(display)
    return specs


def with_zoo(
    specs: Dict[str, SeparatorSpec],
    zoo_path: Optional[str],
) -> Dict[str, SeparatorSpec]:
    """Warm-start every DHF spec in a line-up from a prior zoo.

    Returns a copy of ``specs`` where each :class:`DHFSpec` has
    ``warm_start=True`` and, when ``zoo_path`` is a directory path, the
    on-disk :class:`repro.nn.zoo.PriorZoo` at that path backing the
    shared fit cache.  Non-DHF specs (no deep-prior fit to amortise)
    pass through untouched; ``zoo_path=None`` returns ``specs``
    unchanged.
    """
    if zoo_path is None:
        return specs
    return {
        name: replace(spec, warm_start=True, zoo_path=zoo_path)
        if isinstance(spec, DHFSpec) else spec
        for name, spec in specs.items()
    }


def build_separators(
    preset: Preset,
    include: Optional[tuple] = None,
) -> Dict[str, Separator]:
    """The Table 2 line-up scaled to a preset (built from the registry)."""
    return {
        name: build_separator(spec)
        for name, spec in table2_specs(preset, include=include).items()
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
