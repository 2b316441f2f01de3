"""Frozen, validated separator specifications.

A :class:`SeparatorSpec` is the one configuration of a separation
method: a frozen dataclass naming the method (its registry key) and
declaring every knob of the method with its default, round-tripping
through plain JSON-able dictionaries with ``to_dict`` / ``from_dict``.
Each separator is built from its spec and reads its knobs from
``self.spec``; :func:`repro.service.build_separator` looks the spec's
method up in the registry table and constructs that separator class.

Keeping configuration in specs (rather than constructor calls scattered
through runners and benchmarks) is what makes a method nameable from a
CLI flag, storable in an experiment manifest, and submittable to the
gateway as JSON.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Union

from repro.config import Preset, get_preset
from repro.errors import ConfigurationError
from repro.utils.naming import unknown_name_error
from repro.utils.validation import (
    check_nonnegative_int,
    check_positive,
    check_positive_int,
)


@dataclass(frozen=True)
class FrozenSpec:
    """Shared machinery of every frozen, JSON-round-trippable spec.

    :class:`SeparatorSpec` (dispatching on ``method``),
    :class:`repro.scenarios.DegradationSpec` (dispatching on ``kind``),
    :class:`repro.scenarios.Scenario` and
    :class:`repro.gateway.GatewayConfig` are frozen dataclasses whose
    instances serialize to plain dictionaries.  This base carries
    ``to_dict`` / ``replace``, the one unknown-field rule, and the
    validation helpers that keep int/bool/positivity semantics aligned
    with :mod:`repro.utils.validation`.
    """

    def __new__(cls, *args, **kwargs):
        # The one unknown-field rule: a keyword naming no field raises
        # ConfigurationError (with a did-you-mean suggestion), not the
        # generated __init__'s TypeError, however the spec is built.
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise unknown_name_error(
                f"{cls.__name__} field", unknown[0], known
            )
        return super().__new__(cls)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FrozenSpec":
        """Rebuild a spec from a :meth:`to_dict`-style mapping.

        A non-mapping, or a key naming no field of this class, raises
        :class:`ConfigurationError` (the key with a did-you-mean
        suggestion), as does a constructor keyword naming no field.
        The dispatching families pick their class from their table
        first, then apply this rule on it.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"{cls.__name__} data must be a mapping, got "
                f"{type(data).__name__}"
            )
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able dictionary of every field."""
        return dataclasses.asdict(self)

    def replace(self, **overrides) -> "FrozenSpec":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------ #
    # Validation helpers for subclasses (delegating to the shared
    # repro.utils.validation rules so int/bool/positivity semantics
    # cannot drift from the rest of the package)
    # ------------------------------------------------------------------ #
    def _check_positive_int(self, *names: str) -> None:
        for name in names:
            check_positive_int(
                getattr(self, name), f"{type(self).__name__}.{name}"
            )

    def _check_positive(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{type(self).__name__}.{name} must be a number, "
                    f"got {value!r}"
                )
            check_positive(value, f"{type(self).__name__}.{name}")

    def _check_nonnegative_int(self, *names: str) -> None:
        for name in names:
            check_nonnegative_int(
                getattr(self, name), f"{type(self).__name__}.{name}"
            )

    def _check_bool(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"{type(self).__name__}.{name} must be a bool, "
                    f"got {value!r}"
                )

    def _check_number(self, name: str) -> float:
        """The named field as a float, rejecting non-numeric values."""
        value = getattr(self, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigurationError(
                f"{type(self).__name__}.{name} must be a number, "
                f"got {value!r}"
            )
        return float(value)


@dataclass(frozen=True)
class SeparatorSpec(FrozenSpec):
    """Base class of every separator specification.

    Subclasses re-declare :attr:`method` with their canonical registry
    key as default and declare the method's knobs, with their defaults,
    as dataclass fields with JSON-able values; the separator reads them
    from its ``spec`` and declares none of its own.  ``method`` is an
    instance field (not a class attribute) so a spec built from a
    registry entry remembers *which* entry: ``repet`` and ``repet-ext``
    share :class:`RepetSpec`.  Validation belongs in ``__post_init__``
    and must raise :class:`repro.errors.ConfigurationError`.
    """

    #: Registry key of the method this spec configures.
    method: str = ""

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SeparatorSpec":
        """Rebuild a spec from a :meth:`to_dict`-style mapping.

        Called on the base class, the ``"method"`` key picks the spec
        class from the registry table; called on a subclass, the key
        (when present) must name an entry using that subclass.  The
        named entry's defaults apply underneath the explicit fields, so
        ``{"method": "repet-ext"}`` builds the *extended* variant.
        Unknown methods raise :class:`ConfigurationError`, and so do
        unknown fields (:meth:`FrozenSpec.from_dict`).
        """
        from repro.service.registry import separator_entry

        method = data.get("method") if isinstance(data, Mapping) else None
        if method is not None:
            entry = separator_entry(method)
            if cls is SeparatorSpec:
                return entry.spec_cls.from_dict(data)
            if entry.spec_cls is not cls:
                raise ConfigurationError(
                    f"method {method!r} does not match {cls.__name__}"
                )
            data = {**dict(entry.defaults), **data, "method": entry.name}
        elif cls is SeparatorSpec and isinstance(data, Mapping):
            raise ConfigurationError(
                "spec dictionary needs a 'method' key naming the "
                "separator (see repro.service.available_separators())"
            )
        return super().from_dict(data)

    @classmethod
    def or_default(cls, spec: Optional["SeparatorSpec"]) -> "SeparatorSpec":
        """``spec`` checked to be one of this class, or ``cls()`` for ``None``.

        How a separator takes its configuration: a spec of another
        class raises :class:`ConfigurationError`.
        """
        if spec is None:
            return cls()
        if not isinstance(spec, cls):
            raise ConfigurationError(
                f"expected a {cls.__name__}, got {type(spec).__name__}"
            )
        return spec


@dataclass(frozen=True)
class EMDSpec(SeparatorSpec):
    """Spec of the EMD baseline (:class:`repro.baselines.EMDSeparator`)."""

    method: str = "emd"

    max_imfs: int = 10
    sd_threshold: float = 0.25
    n_harmonics: int = 4

    def __post_init__(self):
        self._check_positive_int("max_imfs", "n_harmonics")
        self._check_positive("sd_threshold")


@dataclass(frozen=True)
class VMDSpec(SeparatorSpec):
    """Spec of the VMD baseline (:class:`repro.baselines.VMDSeparator`)."""

    method: str = "vmd"

    modes_per_source: int = 3
    alpha: float = 1500.0
    tol: float = 1e-6
    max_iterations: int = 300
    n_harmonics: int = 4

    def __post_init__(self):
        self._check_positive_int(
            "modes_per_source", "max_iterations", "n_harmonics"
        )
        self._check_positive("alpha", "tol")


@dataclass(frozen=True)
class NMFSpec(SeparatorSpec):
    """Spec of the NMF baseline (:class:`repro.baselines.NMFSeparator`)."""

    method: str = "nmf"

    components_per_source: int = 4
    n_iterations: int = 200
    n_harmonics: int = 4
    seed: int = 12345

    def __post_init__(self):
        self._check_positive_int(
            "components_per_source", "n_iterations", "n_harmonics"
        )
        self._check_nonnegative_int("seed")


@dataclass(frozen=True)
class RepetSpec(SeparatorSpec):
    """Spec of REPET / REPET-Extended (:class:`repro.baselines.REPETSeparator`).

    ``extended=True`` selects segment-wise period re-estimation — the
    ``repet-ext`` registry entry is this spec with that default flipped.
    ``method`` follows ``extended``: it is ``"repet-ext"`` exactly when
    ``extended`` is true, so a spec is labelled with the variant it runs.
    """

    method: str = "repet"

    extended: bool = False
    n_fft_seconds: float = 8.0
    segment_seconds: float = 24.0

    def __post_init__(self):
        self._check_bool("extended")
        self._check_positive("n_fft_seconds", "segment_seconds")
        object.__setattr__(
            self, "method", "repet-ext" if self.extended else "repet"
        )


@dataclass(frozen=True)
class SpectralMaskingSpec(SeparatorSpec):
    """Spec of harmonic spectral masking
    (:class:`repro.baselines.SpectralMaskingSeparator`)."""

    method: str = "spectral-masking"

    n_harmonics: int = 6
    n_fft_seconds: float = 12.0
    hop_fraction: float = 0.25
    exclusive: bool = True

    def __post_init__(self):
        self._check_positive_int("n_harmonics")
        self._check_positive("n_fft_seconds")
        if not 0.0 < self._check_number("hop_fraction") <= 1.0:
            raise ConfigurationError(
                f"SpectralMaskingSpec.hop_fraction must be in (0, 1], "
                f"got {self.hop_fraction!r}"
            )
        self._check_bool("exclusive")


@dataclass(frozen=True)
class DHFSpec(SeparatorSpec):
    """The one configuration of the paper's method
    (:class:`repro.core.DHFSeparator`), and its wire shape.

    Frequency-domain quantities live in the *aligned* space, where the
    target fundamental is 1 Hz and the STFT bin spacing is
    ``1 / periods_per_window`` Hz.  :meth:`inpainting_config` builds the
    deep-prior fit's config at a given time dilation; ``time_dilation``
    is DHF's per-round choice of it, where ``"auto"`` picks the dilation
    from each round's mask geometry.
    Defaults match the ``full`` preset; :meth:`from_preset` scales every
    field from a :class:`repro.config.Preset`.
    """

    method: str = "dhf"

    samples_per_period: int = 32
    periods_per_window: int = 8
    hop_periods: int = 2
    n_harmonics: int = 6
    bandwidth_bins: float = 1.25
    bandwidth_slope_bins: float = 0.35
    time_dilation: Union[int, str] = "auto"
    phase_policy: str = "auto"
    iterations: int = 600
    learning_rate: float = 3e-3
    base_channels: int = 16
    depth: int = 3
    seed: int = 20240623  # DAC'24 opening day
    #: Deep-prior fit dtype, as a JSON-able name (the
    #: :class:`repro.core.inpainting.InpaintingConfig` ``dtype``, which
    #: validates it).  ``"float32"`` (default) is the speed-oriented
    #: production setting; ``"float64"`` tightens the
    #: stacked-vs-one-record fit equivalence to the documented <= 1e-8
    #: (see docs/architecture.md, "Deep-prior fitting engine") at
    #: roughly twice the fit cost.
    dtype: str = "float32"

    def __post_init__(self):
        self._check_positive_int(
            "samples_per_period", "periods_per_window", "hop_periods",
            "n_harmonics", "iterations", "base_channels", "depth",
        )
        self._check_positive("learning_rate", "bandwidth_bins")
        self._check_nonnegative_int("seed")
        slope = self._check_number("bandwidth_slope_bins")
        if not (math.isfinite(slope) and slope >= 0):
            raise ConfigurationError(
                f"DHFSpec.bandwidth_slope_bins must be a finite number "
                f">= 0, got {self.bandwidth_slope_bins!r}"
            )
        for name, least in (("samples_per_period", 4),
                            ("periods_per_window", 2)):
            if getattr(self, name) < least:
                raise ConfigurationError(
                    f"DHFSpec.{name} must be >= {least}, got "
                    f"{getattr(self, name)}"
                )
        # The STFT hop is at most a quarter window, in whole periods.
        if self.hop_periods > max(1, self.periods_per_window // 4):
            raise ConfigurationError(
                f"DHFSpec.hop_periods must be in [1, max(1, "
                f"periods_per_window // 4)], got {self.hop_periods} with "
                f"periods_per_window={self.periods_per_window}"
            )
        if self.time_dilation != "auto":
            try:
                self._check_positive_int("time_dilation")
            except ConfigurationError:
                raise ConfigurationError(
                    f"DHFSpec.time_dilation must be 'auto' or an int >= 1, "
                    f"got {self.time_dilation!r}"
                ) from None
        if self.phase_policy not in ("auto", "cyclic", "observed"):
            raise ConfigurationError(
                f"DHFSpec.phase_policy must be 'auto', 'cyclic' or "
                f"'observed', got {self.phase_policy!r}"
            )
        if not isinstance(self.dtype, str):
            raise ConfigurationError(
                f"DHFSpec.dtype must be a str, got {self.dtype!r}"
            )
        self.inpainting_config(1)  # InpaintingConfig validates dtype

    def inpainting_config(self, time_dilation: int):
        """The deep-prior fit's :class:`repro.core.inpainting.InpaintingConfig`
        at ``time_dilation`` (a DHF round passes its own)."""
        from repro.core.inpainting import InpaintingConfig

        return InpaintingConfig(
            iterations=self.iterations,
            learning_rate=self.learning_rate,
            base_channels=self.base_channels,
            depth=self.depth,
            time_dilation=time_dilation,
            dtype=self.dtype,
        )

    @classmethod
    def from_preset(
        cls, preset: Union[Preset, str, None] = None, **overrides
    ) -> "DHFSpec":
        """A spec scaled from a preset, with optional field overrides."""
        if not isinstance(preset, Preset):
            preset = get_preset(preset)
        base = dict(
            samples_per_period=preset.alignment.samples_per_period,
            periods_per_window=preset.alignment.periods_per_window,
            hop_periods=preset.alignment.hop_periods,
            n_harmonics=preset.n_harmonics,
            iterations=preset.deep_prior.iterations,
            learning_rate=preset.deep_prior.learning_rate,
            base_channels=preset.deep_prior.base_channels,
            depth=preset.deep_prior.depth,
        )
        base.update(overrides)
        return cls(**base)
