"""The plugin-style separator registry.

Every separation method is registered once under a canonical slug
(``"dhf"``, ``"emd"``, ...) together with the frozen
:class:`repro.service.specs.SeparatorSpec` subclass that configures it
and a factory turning a spec into a live
:class:`repro.separation.Separator`.  Callers then name methods instead
of importing constructors::

    from repro.service import build_separator, default_spec

    sep = build_separator("spectral-masking")            # defaults
    sep = build_separator(DHFSpec.from_preset("smoke"))  # explicit spec
    sep = build_separator({"method": "vmd", "alpha": 900.0})  # from JSON

Paper spellings (``"DHF"``, ``"Spect. Masking"``, ...) are registered as
aliases, so experiment code and the CLI accept either form.  Unknown
names raise :class:`repro.errors.ConfigurationError` with a did-you-mean
suggestion.  Third-party methods join the same table through
:func:`register_separator`, which is what makes future scaling layers
(sharding, remote workers) pluggable: anything that can name a method
and ship a spec dict can build it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Mapping, Tuple, Type, Union

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
    """One registered separation method.

    ``defaults`` are spec-field overrides applied when a spec is built
    from this entry's *name* (e.g. the ``repet-ext`` entry is
    :class:`RepetSpec` with ``extended=True``); building from an
    explicit spec object bypasses them.
    """

    name: str
    factory: Callable[[SeparatorSpec], Separator]
    spec_cls: Type[SeparatorSpec]
    aliases: Tuple[str, ...] = ()
    description: str = ""
    defaults: Tuple[Tuple[str, Any], ...] = ()

    def default_spec(self, **overrides) -> SeparatorSpec:
        """This entry's spec with its defaults (and overrides) applied.

        The spec's ``method`` field is always stamped with this entry's
        name, so specs built from an entry dispatch back to *its*
        factory even when several entries share one spec class.
        """
        merged = dict(self.defaults)
        merged.update(overrides)
        merged["method"] = self.name
        return self.spec_cls(**merged)


_REGISTRY: Dict[str, RegistryEntry] = {}
_LOOKUP: Dict[str, str] = {}  # lower-cased name/alias -> canonical name


def _known_names() -> List[str]:
    """Canonical names plus aliases (for error messages)."""
    names = list(_REGISTRY)
    for entry in _REGISTRY.values():
        names.extend(entry.aliases)
    return names


def register_separator(
    name: str,
    factory: Callable[[SeparatorSpec], Separator],
    spec_cls: Type[SeparatorSpec],
    aliases: Tuple[str, ...] = (),
    description: str = "",
    defaults: Mapping[str, Any] = (),
    replace: bool = False,
) -> RegistryEntry:
    """Register a separation method under ``name``.

    Parameters
    ----------
    name:
        Canonical registry key (matched case-insensitively on lookup).
    factory:
        ``factory(spec) -> Separator`` building a configured instance.
    spec_cls:
        The :class:`SeparatorSpec` subclass this method is configured by.
    aliases:
        Alternative lookup names (e.g. the paper's table spelling).
    description:
        One-line summary shown by the CLI's ``methods`` listing.
    defaults:
        Spec-field overrides applied when building from this name.
    replace:
        Allow re-registration of an existing name (tests, plugins).
        Without it a duplicate name or alias raises
        :class:`ConfigurationError`.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"separator name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise ConfigurationError(f"factory for {name!r} must be callable")
    if not (isinstance(spec_cls, type) and issubclass(spec_cls, SeparatorSpec)):
        raise ConfigurationError(
            f"spec_cls for {name!r} must be a SeparatorSpec subclass, "
            f"got {spec_cls!r}"
        )
    entry = RegistryEntry(
        name=name, factory=factory, spec_cls=spec_cls,
        aliases=tuple(aliases), description=description,
        defaults=tuple(dict(defaults).items()),
    )
    spec_fields = {f.name for f in fields(spec_cls)}
    for key, _ in entry.defaults:
        if key not in spec_fields:
            raise unknown_name_error(
                f"{spec_cls.__name__} field", key, spec_fields
            )
    # Lookup is case-insensitive, so an alias that only differs by case
    # (e.g. "DHF" for "dhf") folds into the canonical key.
    keys = list(dict.fromkeys(
        [name.lower()] + [a.lower() for a in entry.aliases]
    ))
    for key in keys:  # a key owned by a *different* entry always conflicts
        owner = _LOOKUP.get(key)
        if owner is not None and owner != name:
            raise ConfigurationError(
                f"separator name {key!r} is already registered "
                f"(by {owner!r})"
            )
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"separator {name!r} is already registered; pass "
            f"replace=True to override"
        )
    unregister_separator(name, missing_ok=True)
    _REGISTRY[name] = entry
    for key in keys:
        _LOOKUP[key] = name
    return entry


def unregister_separator(name: str, missing_ok: bool = False) -> None:
    """Remove a registered method (mainly for tests and plugins)."""
    canonical = _LOOKUP.get(str(name).lower())
    if canonical is None:
        if missing_ok:
            return
        raise unknown_name_error("separator", name, _known_names())
    entry = _REGISTRY.pop(canonical)
    for key in [entry.name.lower()] + [a.lower() for a in entry.aliases]:
        _LOOKUP.pop(key, None)


def available_separators() -> List[str]:
    """Canonical names of every registered method, in registration order."""
    return list(_REGISTRY)


def separator_entry(name: str) -> RegistryEntry:
    """The :class:`RegistryEntry` for a name or alias (case-insensitive)."""
    canonical = _LOOKUP.get(str(name).lower())
    if canonical is None:
        raise unknown_name_error("separator", name, _known_names())
    return _REGISTRY[canonical]


def default_spec(name: str, **overrides) -> SeparatorSpec:
    """The default spec registered under ``name``, with overrides applied."""
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
    """Build the configured separator for a spec, name, or spec dict."""
    resolved = resolve_spec(spec, **overrides)
    entry = separator_entry(resolved.method)
    if not isinstance(resolved, entry.spec_cls):
        raise ConfigurationError(
            f"spec {type(resolved).__name__} does not match method "
            f"{entry.name!r} (expects {entry.spec_cls.__name__})"
        )
    separator = entry.factory(resolved)
    if not isinstance(separator, Separator):
        raise ConfigurationError(
            f"factory for {entry.name!r} returned "
            f"{type(separator).__name__}, not a Separator"
        )
    return separator


# --------------------------------------------------------------------- #
# Built-in registrations: DHF and the five Table 2 baselines.
# --------------------------------------------------------------------- #
def _make_dhf(spec: DHFSpec) -> Separator:
    from repro.core import DHFSeparator

    return DHFSeparator(spec)


def _make_emd(spec: EMDSpec) -> Separator:
    from repro.baselines import EMDSeparator

    return EMDSeparator(
        max_imfs=spec.max_imfs, sd_threshold=spec.sd_threshold,
        n_harmonics=spec.n_harmonics,
    )


def _make_vmd(spec: VMDSpec) -> Separator:
    from repro.baselines import VMDSeparator

    return VMDSeparator(
        modes_per_source=spec.modes_per_source, alpha=spec.alpha,
        tol=spec.tol, max_iterations=spec.max_iterations,
        n_harmonics=spec.n_harmonics,
    )


def _make_nmf(spec: NMFSpec) -> Separator:
    from repro.baselines import NMFSeparator

    return NMFSeparator(
        components_per_source=spec.components_per_source,
        n_iterations=spec.n_iterations, n_harmonics=spec.n_harmonics,
        seed=spec.seed,
    )


def _make_repet(spec: RepetSpec) -> Separator:
    from repro.baselines import REPETSeparator

    return REPETSeparator(
        extended=spec.extended, n_fft_seconds=spec.n_fft_seconds,
        segment_seconds=spec.segment_seconds,
    )


def _make_spectral_masking(spec: SpectralMaskingSpec) -> Separator:
    from repro.baselines import SpectralMaskingSeparator

    return SpectralMaskingSeparator(
        n_harmonics=spec.n_harmonics, n_fft_seconds=spec.n_fft_seconds,
        hop_fraction=spec.hop_fraction, exclusive=spec.exclusive,
    )


register_separator(
    "dhf", _make_dhf, DHFSpec, aliases=("DHF",),
    description="Deep Harmonic Finesse: pattern alignment, harmonic "
                "masking, deep-prior spectrogram in-painting (the paper's "
                "method)",
)
register_separator(
    "emd", _make_emd, EMDSpec, aliases=("EMD",),
    description="Empirical Mode Decomposition with harmonic-comb "
                "component assignment",
)
register_separator(
    "vmd", _make_vmd, VMDSpec, aliases=("VMD",),
    description="Variational Mode Decomposition with harmonic-comb "
                "component assignment",
)
register_separator(
    "nmf", _make_nmf, NMFSpec, aliases=("NMF",),
    description="KL-divergence NMF with Wiener reconstruction and "
                "harmonic-comb assignment",
)
register_separator(
    "repet", _make_repet, RepetSpec, aliases=("REPET",),
    description="Iterative multi-source REPET seeded from the known "
                "fundamentals",
)
register_separator(
    "repet-ext", _make_repet, RepetSpec, aliases=("REPET-Ext.",),
    defaults={"extended": True},
    description="REPET-Extended: segment-wise repeating-period "
                "re-estimation",
)
register_separator(
    "spectral-masking", _make_spectral_masking, SpectralMaskingSpec,
    aliases=("Spect. Masking",),
    description="Binary harmonic-comb masking of the mixture spectrogram",
)
