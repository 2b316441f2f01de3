"""Seeded, composable signal degradations and their registry.

Each degradation is a frozen :class:`DegradationSpec` — the scenario
counterpart of :class:`repro.service.SeparatorSpec` — keyed by ``kind``
in its own registry and JSON-round-trippable through ``to_dict`` /
``from_dict``.  A spec *applies* to a 1-D signal deterministically: the
random content (gap placement, noise realisation, drift shape) is drawn
from a generator derived only from the spec's ``kind`` and ``seed``, so
the same spec always produces the same degraded signal.

Two invariants hold for every registered kind and are enforced by the
property suite in ``tests/scenarios/test_degradations.py``:

* **identity at zero severity** — ``severity=0`` returns a bitwise copy
  of the clean input (the scenario grid relies on this to anchor its
  clean baseline);
* **monotone damage** — for a fixed seed, increasing ``severity`` never
  decreases the mean-squared distance to the clean signal (dropout
  achieves this by drawing gap slots from one severity-independent
  permutation, so lower-severity masks are subsets of higher ones).

Built-in kinds: ``dropout`` (sensor gaps: zeroed, held, or saturated),
``motion`` (baseline wander via :func:`repro.synth.baseline_drift`),
``noise`` (additive white noise, severity = noise RMS over signal RMS,
i.e. an SNR sweep), ``compression`` (clipping + uniform quantization, a
cheap stand-in for transmission codecs).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type, Union

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.service.specs import FrozenSpec
from repro.synth.noise import baseline_drift, white_noise
from repro.utils.naming import unknown_name_error
from repro.utils.seeding import as_generator, stable_hash_seed
from repro.utils.validation import (
    as_1d_float_array,
    check_in_range,
    check_positive,
    check_probability,
)


@dataclass(frozen=True)
class DegradationSpec(FrozenSpec):
    """Base class of every degradation specification.

    Subclasses re-declare :attr:`kind` with their registry key as the
    default, declare their knobs as JSON-able dataclass fields, validate
    in ``__post_init__`` (raising
    :class:`repro.errors.ConfigurationError`), and implement
    :meth:`_apply`.  ``severity`` is the one knob every kind shares:
    ``0`` disables the op entirely (bitwise identity) and larger values
    damage the signal monotonically more.
    """

    #: Registry key of the degradation this spec configures.
    kind: str = ""
    #: Damage dial; 0 = identity, larger = strictly-no-less damage.
    severity: float = 0.5
    #: Seed of the spec-private random stream (gap placement, noise).
    seed: int = 0

    def __post_init__(self):
        severity = self._check_number("severity")
        if not np.isfinite(severity) or severity < 0:
            raise ConfigurationError(
                f"{type(self).__name__}.severity must be a finite value "
                f">= 0, got {self.severity!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(
                f"{type(self).__name__}.seed must be an int, "
                f"got {self.seed!r}"
            )

    # ------------------------------------------------------------------ #
    # Dict round-trip (mirrors SeparatorSpec.from_dict, keyed on "kind")
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DegradationSpec":
        """Rebuild a spec from a :meth:`to_dict`-style mapping.

        Called on the base class, the ``"kind"`` key dispatches to the
        registered spec class; called on a subclass, the key (when
        present) must name an entry using that subclass.  Unknown kinds
        and unknown fields raise :class:`ConfigurationError` with a
        did-you-mean listing.
        """
        data = dict(data)
        kind = data.get("kind")
        if cls is DegradationSpec:
            if kind is None:
                raise ConfigurationError(
                    "degradation dictionary needs a 'kind' key naming the "
                    "op (see repro.scenarios.available_degradations())"
                )
            spec_cls = degradation_entry(kind).spec_cls
        else:
            spec_cls = cls
            if kind is not None and degradation_entry(kind).spec_cls is not cls:
                raise ConfigurationError(
                    f"kind {kind!r} does not match {cls.__name__}"
                )
        known = {f.name for f in fields(spec_cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise unknown_name_error(
                f"{spec_cls.__name__} field", unknown[0], known
            )
        return spec_cls(**data)

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #
    def apply(self, signal, sampling_hz: float) -> np.ndarray:
        """The degraded copy of ``signal`` (always a fresh float64 array).

        ``severity == 0`` short-circuits to a bitwise copy of the clean
        input; otherwise :meth:`_apply` runs with validated inputs.
        """
        x = as_1d_float_array(signal, "signal")
        check_positive(sampling_hz, "sampling_hz")
        if self.severity == 0:
            return x.copy()
        return self._apply(x, float(sampling_hz))

    def _apply(self, x: np.ndarray, sampling_hz: float) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract

    def _rng(self) -> np.random.Generator:
        """The spec-private generator: a function of (kind, seed) only.

        Severity is deliberately excluded so a severity sweep degrades
        the *same* realisation (same gap slots, same noise shape) ever
        harder instead of re-rolling the randomness per severity.
        """
        return as_generator(stable_hash_seed("degradation", self.kind, self.seed))


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and bool(np.isfinite(value)))


@dataclass(frozen=True)
class SensorDropoutSpec(DegradationSpec):
    """Sensor dropout / saturation gaps.

    ``severity`` is the target fraction of samples inside gaps (must lie
    in ``[0, 1]``).  Gaps are ``gap_seconds`` long and placed by drawing
    slots from a severity-independent permutation, so masks at lower
    severity are subsets of masks at higher severity.  ``gaps`` pins
    explicit ``(start_s, duration_s)`` windows instead — the streaming
    stress tests use this to land gaps exactly on chunk boundaries and
    inside cross-fade spans.

    ``mode`` selects what the dead samples read: ``"zero"`` (signal
    loss), ``"hold"`` (stuck ADC repeating the last good sample), or
    ``"saturate"`` (railed at the clean signal's peak magnitude).
    """

    kind: str = "dropout"
    #: Gap length in seconds (randomly placed gaps only).
    gap_seconds: float = 0.5
    #: What dropped samples read: ``zero`` / ``hold`` / ``saturate``.
    mode: str = "zero"
    #: Explicit ``(start_s, duration_s)`` gaps; overrides random placement.
    gaps: Tuple[Tuple[float, float], ...] = ()

    _MODES = ("zero", "hold", "saturate")

    def __post_init__(self):
        super().__post_init__()
        check_probability(self.severity, "SensorDropoutSpec.severity")
        self._check_positive("gap_seconds")
        if self.mode not in self._MODES:
            raise unknown_name_error(
                "dropout mode", str(self.mode), self._MODES
            )
        if not isinstance(self.gaps, (list, tuple)):
            raise ConfigurationError(
                f"SensorDropoutSpec.gaps must be a sequence of "
                f"(start_s, duration_s) pairs, got {self.gaps!r}"
            )
        gaps = []
        for gap in self.gaps:
            if not (isinstance(gap, (list, tuple)) and len(gap) == 2
                    and all(_is_finite_number(v) for v in gap)):
                raise ConfigurationError(
                    f"SensorDropoutSpec.gaps entries must be "
                    f"(start_s, duration_s) pairs of finite numbers, "
                    f"got {gap!r}"
                )
            start_s, duration_s = float(gap[0]), float(gap[1])
            if start_s < 0:
                raise ConfigurationError(
                    f"SensorDropoutSpec gap start must be >= 0 s, "
                    f"got {start_s}"
                )
            if duration_s <= 0:
                raise ConfigurationError(
                    f"SensorDropoutSpec gaps must have positive duration, "
                    f"got a {duration_s} s gap at {start_s} s"
                )
            gaps.append((start_s, duration_s))
        object.__setattr__(self, "gaps", tuple(gaps))

    def gap_mask(self, n_samples: int, sampling_hz: float) -> np.ndarray:
        """Boolean mask of the dropped samples (True inside gaps)."""
        mask = np.zeros(int(n_samples), dtype=bool)
        fs = float(sampling_hz)
        if self.gaps:
            for start_s, duration_s in self.gaps:
                a = int(round(start_s * fs))
                if a >= mask.size:
                    raise DataError(
                        f"dropout gap at {start_s} s starts beyond the "
                        f"{mask.size / fs:.3f} s record"
                    )
                b = a + max(1, int(round(duration_s * fs)))
                mask[a:min(b, mask.size)] = True
            return mask
        if self.severity == 0:
            return mask
        gap_len = max(1, int(round(self.gap_seconds * fs)))
        if gap_len > mask.size:
            raise DataError(
                f"gap_seconds={self.gap_seconds} is longer than the "
                f"{mask.size / fs:.3f} s record"
            )
        n_slots = mask.size // gap_len
        wanted = int(np.ceil(self.severity * mask.size / gap_len))
        n_gaps = min(n_slots, max(1, wanted))
        # One permutation independent of severity: the first k slots of
        # it are always a subset of the first k' >= k, which is what
        # makes dropout damage monotone in severity for a fixed seed.
        order = self._rng().permutation(n_slots)
        for slot in order[:n_gaps]:
            mask[slot * gap_len:(slot + 1) * gap_len] = True
        return mask

    def _apply(self, x: np.ndarray, sampling_hz: float) -> np.ndarray:
        mask = self.gap_mask(x.size, sampling_hz)
        y = x.copy()
        if self.mode == "zero":
            y[mask] = 0.0
        elif self.mode == "saturate":
            y[mask] = np.max(np.abs(x)) if x.size else 0.0
        else:  # hold: repeat the last sample seen before each gap
            last_good = np.where(~mask, np.arange(x.size), -1)
            last_good = np.maximum.accumulate(last_good)
            held = np.where(last_good >= 0, x[np.maximum(last_good, 0)], 0.0)
            y[mask] = held[mask]
        return y


@dataclass(frozen=True)
class MotionArtifactSpec(DegradationSpec):
    """Motion artifact: additive baseline wander.

    Adds :func:`repro.synth.baseline_drift` (white noise low-passed
    below ``cutoff_hz``) with RMS ``severity`` times the clean signal's
    RMS.  The drift realisation depends only on ``seed``, so a severity
    sweep scales one fixed wander shape — damage is exactly linear in
    severity.
    """

    kind: str = "motion"
    #: Wander bandwidth: drift energy lives below this frequency (Hz).
    cutoff_hz: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        self._check_positive("cutoff_hz")

    def _apply(self, x: np.ndarray, sampling_hz: float) -> np.ndarray:
        rms = float(np.sqrt(np.mean(x ** 2)))
        if rms == 0.0:
            return x.copy()
        drift = baseline_drift(
            x.size, sampling_hz, amplitude=self.severity * rms,
            cutoff_hz=self.cutoff_hz, rng=self._rng(),
        )
        return x + drift


@dataclass(frozen=True)
class NoiseSpec(DegradationSpec):
    """Additive white Gaussian noise — the SNR sweep axis.

    ``severity`` is the noise RMS as a fraction of the clean signal RMS,
    i.e. ``severity = 10 ** (-snr_db / 20)``; :meth:`from_snr_db` builds
    a spec straight from a target SNR.  The noise realisation depends
    only on ``seed``, so damage is exactly linear in severity.
    """

    kind: str = "noise"

    @classmethod
    def from_snr_db(cls, snr_db: float, **overrides) -> "NoiseSpec":
        """A spec whose severity realises the given signal-to-noise ratio."""
        if not isinstance(snr_db, (int, float)) or isinstance(snr_db, bool) \
                or not np.isfinite(snr_db):
            raise ConfigurationError(
                f"snr_db must be a finite number, got {snr_db!r}"
            )
        return cls(severity=float(10.0 ** (-snr_db / 20.0)), **overrides)

    @property
    def snr_db(self) -> float:
        """The SNR (dB) this severity realises (``inf`` at severity 0)."""
        if self.severity == 0:
            return float("inf")
        return float(-20.0 * np.log10(self.severity))

    def _apply(self, x: np.ndarray, sampling_hz: float) -> np.ndarray:
        rms = float(np.sqrt(np.mean(x ** 2)))
        if rms == 0.0:
            return x.copy()
        return x + white_noise(x.size, self.severity * rms, rng=self._rng())


@dataclass(frozen=True)
class CompressionSpec(DegradationSpec):
    """Lossy "codec" compression: peak clipping plus uniform quantization.

    At severity ``s`` (in ``[0, 1]``) the signal is clipped to
    ``peak * (1 - clip_fraction * s)`` and then quantized with step
    ``s * peak / 2**bits`` — at ``s = 1`` that is a ``bits``-bit uniform
    quantizer over the clipped range.  Both error terms grow with
    severity, giving the monotone-damage property.
    """

    kind: str = "compression"
    #: Quantizer resolution at full severity.
    bits: int = 8
    #: Fraction of the clean peak clipped away at full severity.
    clip_fraction: float = 0.3

    def __post_init__(self):
        super().__post_init__()
        check_in_range(
            self.severity, 0.0, 1.0, "CompressionSpec.severity",
        )
        self._check_positive_int("bits")
        number = self._check_number("clip_fraction")
        if not 0.0 <= number < 1.0:
            raise ConfigurationError(
                f"CompressionSpec.clip_fraction must be in [0, 1), "
                f"got {self.clip_fraction!r}"
            )

    def _apply(self, x: np.ndarray, sampling_hz: float) -> np.ndarray:
        peak = float(np.max(np.abs(x))) if x.size else 0.0
        if peak == 0.0:
            return x.copy()
        limit = peak * (1.0 - self.clip_fraction * self.severity)
        y = np.clip(x, -limit, limit)
        step = self.severity * peak / float(2 ** self.bits)
        if step > 0:
            y = np.round(y / step) * step
        return y


# ---------------------------------------------------------------------- #
# Registry (mirrors repro.service.registry at degradation granularity)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DegradationEntry:
    """One registered degradation kind."""

    kind: str
    spec_cls: Type[DegradationSpec]
    description: str = ""

    def default_spec(self, **overrides) -> DegradationSpec:
        overrides.setdefault("kind", self.kind)
        return self.spec_cls(**overrides)


_DEGRADATIONS: Dict[str, DegradationEntry] = {}

#: Anything resolve_degradation accepts.
DegradationLike = Union[str, Mapping, DegradationSpec]


def register_degradation(
    kind: str,
    spec_cls: Type[DegradationSpec],
    description: str = "",
    replace: bool = False,
) -> DegradationEntry:
    """Register a degradation kind (third-party ops plug in here)."""
    if not kind or not isinstance(kind, str):
        raise ConfigurationError(
            f"degradation kind must be a non-empty string, got {kind!r}"
        )
    key = kind.lower()
    if key in _DEGRADATIONS and not replace:
        raise ConfigurationError(
            f"degradation {kind!r} is already registered; pass "
            f"replace=True to override"
        )
    if not (isinstance(spec_cls, type)
            and issubclass(spec_cls, DegradationSpec)):
        raise ConfigurationError(
            f"spec_cls must subclass DegradationSpec, got {spec_cls!r}"
        )
    entry = DegradationEntry(key, spec_cls, description)
    _DEGRADATIONS[key] = entry
    return entry


def unregister_degradation(kind: str) -> None:
    """Remove a registered kind (primarily for tests)."""
    _DEGRADATIONS.pop(kind.lower(), None)


def available_degradations() -> List[str]:
    """Registered degradation kinds, sorted."""
    return sorted(_DEGRADATIONS)


def degradation_entry(kind: str) -> DegradationEntry:
    """Look up a registry entry by (case-insensitive) kind."""
    if not isinstance(kind, str):
        raise ConfigurationError(
            f"degradation kind must be a string, got {kind!r}"
        )
    try:
        return _DEGRADATIONS[kind.lower()]
    except KeyError:
        raise unknown_name_error(
            "degradation", kind, _DEGRADATIONS
        ) from None


def default_degradation(kind: str, **overrides) -> DegradationSpec:
    """The named kind's spec with optional field overrides."""
    return degradation_entry(kind).default_spec(**overrides)


def resolve_degradation(spec: DegradationLike) -> DegradationSpec:
    """Coerce a kind name, spec dict, or spec instance to a spec."""
    if isinstance(spec, DegradationSpec):
        return spec
    if isinstance(spec, str):
        return default_degradation(spec)
    if isinstance(spec, Mapping):
        return DegradationSpec.from_dict(spec)
    raise ConfigurationError(
        f"expected a degradation kind, spec dict, or DegradationSpec, "
        f"got {type(spec).__name__}"
    )


register_degradation(
    "dropout", SensorDropoutSpec,
    "sensor dropout/saturation gaps (zeroed, held, or railed samples)",
)
register_degradation(
    "motion", MotionArtifactSpec,
    "motion artifact: additive low-frequency baseline wander",
)
register_degradation(
    "noise", NoiseSpec,
    "additive white noise (severity = noise RMS / signal RMS)",
)
register_degradation(
    "compression", CompressionSpec,
    "codec-style clipping + uniform quantization",
)
