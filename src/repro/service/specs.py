"""Frozen, validated separator specifications.

A :class:`SeparatorSpec` is the declarative half of a separation method:
a frozen dataclass naming the method (its registry key) and every knob
the method's constructor accepts, with ``to_dict`` / ``from_dict``
round-tripping through plain JSON-able dictionaries.  Specs carry *no*
behaviour — :func:`repro.service.build_separator` hands a spec to the
registered factory to obtain the actual
:class:`repro.separation.Separator`.

Keeping configuration in specs (rather than constructor calls scattered
through runners and benchmarks) is what makes a method nameable from a
CLI flag, storable in an experiment manifest, and reconstructable on a
remote worker.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Union

from repro.config import Preset, get_preset
from repro.errors import ConfigurationError
from repro.utils.naming import unknown_name_error
from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class FrozenSpec:
    """Shared machinery of every frozen, JSON-round-trippable spec.

    Both :class:`SeparatorSpec` (dispatching on ``method``) and
    :class:`repro.scenarios.DegradationSpec` (dispatching on ``kind``)
    are registries of frozen dataclasses whose instances serialize to
    plain dictionaries.  This base carries the registry-agnostic half:
    ``to_dict`` / ``replace`` plus the validation helpers that keep
    int/bool/positivity semantics aligned with
    :mod:`repro.utils.validation`.  Dispatching ``from_dict`` stays with
    the concrete spec families because each owns its registry.
    """

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
    key as default and declare their knobs as dataclass fields with
    JSON-able values.  ``method`` is an instance field (not a class
    attribute) so a spec built from a registry entry remembers *which*
    entry — two entries may share one spec class (``repet`` /
    ``repet-ext``, or a plugin reusing a built-in spec) and dispatch
    back to their own factories.  Validation belongs in
    ``__post_init__`` and must raise
    :class:`repro.errors.ConfigurationError`.
    """

    #: Registry key of the method this spec configures.
    method: str = ""

    # ------------------------------------------------------------------ #
    # Dict round-trip
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SeparatorSpec":
        """Rebuild a spec from a :meth:`to_dict`-style mapping.

        Called on the base class, the ``"method"`` key dispatches to the
        registered spec class; called on a subclass, the key (when
        present) must name an entry using that subclass.  The named
        entry's registered defaults apply underneath the explicit
        fields, so ``{"method": "repet-ext"}`` builds the *extended*
        variant.  Unknown methods and unknown fields raise
        :class:`ConfigurationError`.
        """
        from repro.service.registry import separator_entry

        data = dict(data)
        method = data.get("method")
        entry = None
        if cls is SeparatorSpec:
            if method is None:
                raise ConfigurationError(
                    "spec dictionary needs a 'method' key naming the "
                    "separator (see repro.service.available_separators())"
                )
            entry = separator_entry(method)
            spec_cls = entry.spec_cls
        else:
            spec_cls = cls
            if method is not None:
                entry = separator_entry(method)
                if entry.spec_cls is not cls:
                    raise ConfigurationError(
                        f"method {method!r} does not match {cls.__name__}"
                    )
        known = {f.name for f in fields(spec_cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise unknown_name_error(
                f"{spec_cls.__name__} field", unknown[0], known
            )
        if entry is not None:
            merged = dict(entry.defaults)
            merged.update(data)
            merged["method"] = entry.name
            data = merged
        return spec_cls(**data)

    def build(self):
        """The configured :class:`repro.separation.Separator`."""
        from repro.service.registry import build_separator

        return build_separator(self)


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


@dataclass(frozen=True)
class RepetSpec(SeparatorSpec):
    """Spec of REPET / REPET-Extended (:class:`repro.baselines.REPETSeparator`).

    ``extended=True`` selects segment-wise period re-estimation — the
    ``repet-ext`` registry entry is this spec with that default flipped.
    """

    method: str = "repet"

    extended: bool = False
    n_fft_seconds: float = 8.0
    segment_seconds: float = 24.0

    def __post_init__(self):
        if not isinstance(self.extended, bool):
            raise ConfigurationError(
                f"RepetSpec.extended must be a bool, got {self.extended!r}"
            )
        self._check_positive("n_fft_seconds", "segment_seconds")


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
        if not 0.0 < self.hop_fraction <= 1.0:
            raise ConfigurationError(
                f"SpectralMaskingSpec.hop_fraction must be in (0, 1], "
                f"got {self.hop_fraction!r}"
            )


@dataclass(frozen=True)
class DHFSpec(SeparatorSpec):
    """Spec of the paper's method (:class:`repro.core.DHFSeparator`).

    The fields mirror :class:`repro.core.DHFConfig` plus the scalar
    deep-prior budget of its nested
    :class:`repro.core.inpainting.InpaintingConfig`
    (``prior_time_dilation`` is that nested config's ``time_dilation``;
    the top-level ``time_dilation`` is DHF's per-round policy, where
    ``"auto"`` picks the dilation from each round's mask geometry).
    Defaults match the ``full`` preset; :meth:`from_preset` scales every
    field from a :class:`repro.config.Preset` exactly as
    :meth:`repro.core.DHFConfig.from_preset` does.
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
    prior_time_dilation: int = 13
    seed: int = 20240623
    #: Early stopping of every deep-prior fit (see
    #: :class:`repro.core.DHFConfig`): ``early_stop_patience`` > 0 lets a
    #: converged fit roll back to its best iteration and stop, on every
    #: path; 0 runs the full iteration budget.
    early_stop_patience: int = 0
    early_stop_rel_tol: float = 1e-3
    #: Deep-prior fit dtype, as a JSON-able name.  ``"float32"``
    #: (default) is the speed-oriented production setting;
    #: ``"float64"`` tightens the stacked-vs-one-record fit equivalence
    #: to the documented <= 1e-8 (see docs/architecture.md, "Deep-prior
    #: fitting engine") at roughly twice the fit cost.
    dtype: str = "float32"
    #: Warm-start deep-prior fits from the process-wide
    #: :func:`repro.nn.zoo.shared_fit_cache`.  The cache is shared
    #: service-wide (same idiom as the STFT-plan cache), so repeated
    #: same-geometry requests amortise each other's fits.  Off by
    #: default: warm runs are not bitwise identical to cold ones once
    #: the cache is populated.
    warm_start: bool = False
    #: Directory of an on-disk :class:`repro.nn.zoo.PriorZoo` backing
    #: the shared cache (checkpoints persist across service restarts).
    #: Empty string keeps the cache purely in-memory.  Only meaningful
    #: with ``warm_start=True``.
    zoo_path: str = ""
    #: Array backend the deep-prior fits run on, as a
    #: :func:`repro.backend.available_backends` name.  Empty string
    #: (default) defers to the ambient backend — thread-local override,
    #: process default, ``REPRO_BACKEND`` env var, else the
    #: bitwise-reference ``"numpy"``.  Unknown or unavailable names
    #: (``"torch"`` without torch installed) fail spec validation.
    backend: str = ""

    def __post_init__(self):
        self._check_positive_int(
            "samples_per_period", "periods_per_window", "hop_periods",
            "n_harmonics", "iterations", "base_channels", "depth",
            "prior_time_dilation",
        )
        self._check_positive("learning_rate", "bandwidth_bins")
        if self.dtype not in ("float32", "float64"):
            raise ConfigurationError(
                f"DHFSpec.dtype must be 'float32' or 'float64', got "
                f"{self.dtype!r}"
            )
        if not isinstance(self.warm_start, bool):
            raise ConfigurationError(
                f"DHFSpec.warm_start must be a bool, got {self.warm_start!r}"
            )
        if not isinstance(self.zoo_path, str):
            raise ConfigurationError(
                f"DHFSpec.zoo_path must be a str, got {self.zoo_path!r}"
            )
        if self.backend:
            from repro.backend import validate_backend_name

            validate_backend_name(self.backend, "DHFSpec.backend")
        elif not isinstance(self.backend, str):
            raise ConfigurationError(
                f"DHFSpec.backend must be a str, got {self.backend!r}"
            )
        # Cross-field constraints (hop vs window, phase policy, the
        # 'auto' dilation sentinel) are enforced by DHFConfig itself;
        # trigger that validation now so a bad spec fails at build-spec
        # time, not at first use.
        self.build_config()

    def build_config(self):
        """The equivalent :class:`repro.core.DHFConfig`."""
        import numpy as np

        from repro.core import DHFConfig
        from repro.core.inpainting import InpaintingConfig

        return DHFConfig(
            samples_per_period=self.samples_per_period,
            periods_per_window=self.periods_per_window,
            hop_periods=self.hop_periods,
            n_harmonics=self.n_harmonics,
            bandwidth_bins=self.bandwidth_bins,
            bandwidth_slope_bins=self.bandwidth_slope_bins,
            time_dilation=self.time_dilation,
            phase_policy=self.phase_policy,
            inpainting=InpaintingConfig(
                iterations=self.iterations,
                learning_rate=self.learning_rate,
                base_channels=self.base_channels,
                depth=self.depth,
                time_dilation=self.prior_time_dilation,
                dtype=np.dtype(self.dtype).type,
            ),
            seed=self.seed,
            early_stop_patience=self.early_stop_patience,
            early_stop_rel_tol=self.early_stop_rel_tol,
            warm_start=self.warm_start,
            zoo_path=self.zoo_path or None,
            backend=self.backend or None,
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
            prior_time_dilation=preset.time_dilation,
        )
        base.update(overrides)
        return cls(**base)
