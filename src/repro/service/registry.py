"""The separator registry: a fixed table of the seven built-in methods.

Every separation method has one entry under a canonical slug
(``"dhf"``, ``"emd"``, ...) holding the frozen
:class:`repro.service.specs.SeparatorSpec` subclass that configures it
and the separator class built from that spec.  Callers name methods
instead of importing constructors::

    from repro.service import build_separator, default_spec

    sep = build_separator("spectral-masking")            # defaults
    sep = build_separator(DHFSpec.from_preset("smoke"))  # explicit spec
    sep = build_separator({"method": "vmd", "alpha": 900.0})  # from JSON

Paper spellings (``"DHF"``, ``"Spect. Masking"``, ...) are aliases, so
experiment code and the CLI accept either form.  Unknown names raise
:class:`repro.errors.ConfigurationError` with a did-you-mean
suggestion.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple, Type, Union

from repro.errors import ConfigurationError
from repro.separation import Separator
from repro.service.specs import (
    DHFSpec,
    EMDSpec,
    NMFSpec,
    RepetSpec,
    SeparatorSpec,
    SpectralMaskingSpec,
    VMDSpec,
)
from repro.utils.naming import unknown_name_error

#: Anything :func:`build_separator` accepts as a method description.
SpecLike = Union[SeparatorSpec, str, Mapping[str, Any]]


@dataclass(frozen=True)
class RegistryEntry:
    """One separation method of the table.

    ``separator`` is ``"module:Class"``, imported on the first build so
    that ``import repro.service`` loads no separator module.
    ``defaults`` are spec-field overrides applied when a spec is built
    from this entry's *name* (the ``repet-ext`` entry is
    :class:`RepetSpec` with ``extended=True``); building from an
    explicit spec object bypasses them.
    """

    name: str
    spec_cls: Type[SeparatorSpec]
    separator: str
    aliases: Tuple[str, ...] = ()
    description: str = ""
    defaults: Tuple[Tuple[str, Any], ...] = ()

    def default_spec(self, **overrides) -> SeparatorSpec:
        """This entry's spec with its defaults (and overrides) applied.

        The spec's ``method`` field is always stamped with this entry's
        name, so specs built from an entry dispatch back to *it* even
        when two entries share one spec class.
        """
        merged = dict(self.defaults)
        merged.update(overrides)
        merged["method"] = self.name
        return self.spec_cls(**merged)

    def separator_cls(self) -> Type[Separator]:
        """The separator class this entry builds."""
        module, _, name = self.separator.partition(":")
        return getattr(importlib.import_module(module), name)


_ENTRIES = (
    RegistryEntry(
        "dhf", DHFSpec, "repro.core:DHFSeparator", aliases=("DHF",),
        description="Deep Harmonic Finesse: pattern alignment, harmonic "
                    "masking, deep-prior spectrogram in-painting (the "
                    "paper's method)",
    ),
    RegistryEntry(
        "emd", EMDSpec, "repro.baselines:EMDSeparator", aliases=("EMD",),
        description="Empirical Mode Decomposition with harmonic-comb "
                    "component assignment",
    ),
    RegistryEntry(
        "vmd", VMDSpec, "repro.baselines:VMDSeparator", aliases=("VMD",),
        description="Variational Mode Decomposition with harmonic-comb "
                    "component assignment",
    ),
    RegistryEntry(
        "nmf", NMFSpec, "repro.baselines:NMFSeparator", aliases=("NMF",),
        description="KL-divergence NMF with Wiener reconstruction and "
                    "harmonic-comb assignment",
    ),
    RegistryEntry(
        "repet", RepetSpec, "repro.baselines:REPETSeparator",
        aliases=("REPET",),
        description="Iterative multi-source REPET seeded from the known "
                    "fundamentals",
    ),
    RegistryEntry(
        "repet-ext", RepetSpec, "repro.baselines:REPETSeparator",
        aliases=("REPET-Ext.",), defaults=(("extended", True),),
        description="REPET-Extended: segment-wise repeating-period "
                    "re-estimation",
    ),
    RegistryEntry(
        "spectral-masking", SpectralMaskingSpec,
        "repro.baselines:SpectralMaskingSeparator",
        aliases=("Spect. Masking",),
        description="Binary harmonic-comb masking of the mixture "
                    "spectrogram",
    ),
)
#: Lower-cased name or alias -> entry (lookup ignores case).
_LOOKUP: Dict[str, RegistryEntry] = {
    key.lower(): e for e in _ENTRIES for key in (e.name, *e.aliases)
}


def available_separators() -> List[str]:
    """Canonical names of every method, in table order."""
    return [e.name for e in _ENTRIES]


def separator_entry(name: str) -> RegistryEntry:
    """The :class:`RegistryEntry` for a name or alias (case-insensitive)."""
    entry = _LOOKUP.get(str(name).lower())
    if entry is None:
        raise unknown_name_error(
            "separator", name,
            available_separators() + [a for e in _ENTRIES for a in e.aliases],
        )
    return entry


def default_spec(name: str, **overrides) -> SeparatorSpec:
    """The default spec of the method ``name``, with overrides applied."""
    return separator_entry(name).default_spec(**overrides)


def resolve_spec(spec: SpecLike, **overrides) -> SeparatorSpec:
    """Coerce a name / dict / spec into a validated :class:`SeparatorSpec`."""
    if isinstance(spec, SeparatorSpec):
        return spec.replace(**overrides) if overrides else spec
    if isinstance(spec, str):
        return default_spec(spec, **overrides)
    if isinstance(spec, Mapping):
        resolved = SeparatorSpec.from_dict(spec)
        return resolved.replace(**overrides) if overrides else resolved
    raise ConfigurationError(
        f"expected a separator name, spec or spec dict, got "
        f"{type(spec).__name__}"
    )


def build_separator(spec: SpecLike, **overrides) -> Separator:
    """Build the configured separator for a spec, name, or spec dict.

    The spec's method names the entry; its separator class refuses a
    spec of another class with :class:`ConfigurationError`.
    """
    resolved = resolve_spec(spec, **overrides)
    return separator_entry(resolved.method).separator_cls()(resolved)
