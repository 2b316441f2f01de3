"""Checkpoint bundles for fitted deep-prior networks.

A :class:`PriorCheckpoint` packages everything needed to *reuse* one
fitted SpAc LU-Net: the fitted parameters (a ``state_dict``), the frozen
:class:`repro.core.inpainting.InpaintingConfig` that produced them, the
STFT/alignment geometry the fit was tied to (:class:`PriorGeometry`),
the Fig. 3 prior kind, and fit metadata (:class:`FitMetadata`).  The
config travels as a JSON-able dictionary on disk (the HF ``DacConfig``
idiom: the config object *is* the checkpoint's self-description), via
:func:`config_to_dict` / :func:`config_from_dict`.

Cache-key semantics live here too:

``(geometry, config_signature(config))``
    The *exact* identity of a fit — an exact hit means "this very fit
    configuration on this very spectrogram geometry was fitted before".

``structure_signature(config)``
    The subset of fields that determine parameter names/shapes and
    dtype (``in_channels``/``base_channels``/``depth``/``n_harmonics``/
    ``kernel_time``/``conv_kind`` + dtype).  Two configs with equal
    structure signatures produce load-compatible networks even when
    their optimiser knobs differ — the *near-miss* eligibility test.

``config_distance(a, b)``
    Scale-free dissimilarity used to rank eligible near-misses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SerializationError
from repro.utils.seeding import stable_hash_seed

#: On-disk format version of zoo checkpoints, recorded in the sidecar
#: each checkpoint archive embeds; readers reject any other version.
ZOO_FORMAT_VERSION = 2

#: Config fields that determine the network's parameter names, shapes
#: and dtype — i.e. whether one fit's state dict loads into another
#: fit's network.  ``anchor``/``time_dilation``/``freq_pooling`` change
#: the *forward pass* but not the parameter table, so they stay out.
_STRUCTURE_FIELDS = (
    "in_channels", "base_channels", "depth", "n_harmonics",
    "kernel_time", "conv_kind",
)


@dataclass(frozen=True)
class PriorGeometry:
    """STFT/alignment geometry one fitted prior is tied to.

    ``n_freq``/``n_frames`` are the spectrogram cells the network was
    fitted on (they fix the input-code shape, so they are part of the
    exact cache key); ``n_fft``/``hop``/``samples_per_period`` record
    where that spectrogram came from (0 = unknown, for fits made outside
    the DHF pipeline).
    """

    n_freq: int
    n_frames: int
    n_fft: int = 0
    hop: int = 0
    samples_per_period: int = 0

    def __post_init__(self):
        for name in ("n_freq", "n_frames"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ConfigurationError(
                    f"PriorGeometry.{name} must be a positive int, got "
                    f"{value!r}"
                )
        for name in ("n_fft", "hop", "samples_per_period"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise ConfigurationError(
                    f"PriorGeometry.{name} must be an int >= 0, got "
                    f"{value!r}"
                )

    def to_dict(self) -> Dict[str, int]:
        """A JSON-able dictionary of every field."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PriorGeometry":
        """Rebuild a geometry from a :meth:`to_dict`-style mapping."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SerializationError(
                f"unknown PriorGeometry field {unknown[0]!r} in checkpoint"
            )
        try:
            return cls(**{name: int(data[name]) for name in data})
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed PriorGeometry in checkpoint ({exc})"
            ) from exc


@dataclass(frozen=True)
class FitMetadata:
    """How a checkpointed fit was produced (for provenance, not keys)."""

    iterations: int
    final_loss: float
    stop_iteration: Optional[int] = None
    dtype: str = "float32"

    def __post_init__(self):
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise ConfigurationError(
                f"FitMetadata.iterations must be a positive int, got "
                f"{self.iterations!r}"
            )
        if self.stop_iteration is not None \
                and (not isinstance(self.stop_iteration, int)
                     or self.stop_iteration < 0):
            raise ConfigurationError(
                f"FitMetadata.stop_iteration must be None or an int >= 0, "
                f"got {self.stop_iteration!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able dictionary of every field."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FitMetadata":
        """Rebuild metadata from a :meth:`to_dict`-style mapping."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SerializationError(
                f"unknown FitMetadata field {unknown[0]!r} in checkpoint"
            )
        try:
            return cls(**dict(data))
        except (TypeError, ConfigurationError) as exc:
            raise SerializationError(
                f"malformed FitMetadata in checkpoint ({exc})"
            ) from exc


def config_to_dict(config) -> Dict[str, Any]:
    """An ``InpaintingConfig`` as a JSON-able dictionary (dtype by name)."""
    data: Dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "dtype":
            value = np.dtype(value).name
        data[f.name] = value
    return data


def config_from_dict(data: Mapping[str, Any]):
    """Rebuild an :class:`repro.core.inpainting.InpaintingConfig`."""
    # Imported lazily: repro.core imports repro.nn, so the reverse edge
    # must stay out of module scope.
    from repro.core.inpainting import InpaintingConfig

    known = {f.name for f in dataclasses.fields(InpaintingConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SerializationError(
            f"unknown InpaintingConfig field {unknown[0]!r} in checkpoint"
        )
    try:
        return InpaintingConfig(**data)
    except (TypeError, ConfigurationError) as exc:
        raise SerializationError(
            f"malformed InpaintingConfig in checkpoint ({exc})"
        ) from exc


def config_signature(config) -> Tuple:
    """Hashable identity of a fit configuration (dtype name-normalised).

    Equal signatures == "the same fit configuration"; this is the second
    half of the exact cache key.
    """
    items = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "dtype":
            value = np.dtype(value).name
        items.append((f.name, value))
    return tuple(items)


def structure_signature(config) -> Tuple:
    """The load-compatibility class of a config (shapes + dtype)."""
    sig = tuple(
        (name, getattr(config, name)) for name in _STRUCTURE_FIELDS
    )
    return sig + (("dtype", np.dtype(config.dtype).name),)


def config_distance(a, b) -> float:
    """Dissimilarity of two (same-structure) configs; 0 = identical.

    Positive numeric fields contribute ``|log(a/b)|`` — scale-free, so
    halving the learning rate costs as much as doubling it — and
    categorical (bool/str) fields contribute 1 when they differ.
    """
    distance = 0.0
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if f.name == "dtype":
            va, vb = np.dtype(va).name, np.dtype(vb).name
        if va == vb:
            continue
        numeric = (
            isinstance(va, (int, float)) and not isinstance(va, bool)
            and isinstance(vb, (int, float)) and not isinstance(vb, bool)
        )
        if numeric and va > 0 and vb > 0:
            distance += abs(float(np.log(float(va) / float(vb))))
        elif numeric:
            distance += 1.0 + abs(float(va) - float(vb))
        else:
            distance += 1.0
    return float(distance)


def prior_kind_of(config) -> str:
    """The Fig. 3 prior kind a config realises (inverse of
    :func:`repro.core.inpainting.config_for_prior_kind`)."""
    if config.conv_kind != "harmonic":
        return "conventional"
    if config.anchor != 1:
        return "harmonic_baseline"
    if config.time_dilation > 1:
        return "spac_dilated"
    return "spac"


@dataclass(frozen=True)
class PriorCheckpoint:
    """One fitted SpAc LU-Net, ready to warm-start (or serve) from.

    ``state`` maps dotted parameter names to arrays, exactly as
    ``SpAcLUNet.state_dict()`` produced them; treat it as immutable —
    :meth:`state_copy` hands out safe copies.  ``spec`` optionally
    carries the JSON dictionary of the :class:`repro.service.DHFSpec`
    the fit ran under (provenance only; never part of the cache key).
    """

    geometry: PriorGeometry
    config: Any
    state: Mapping[str, np.ndarray]
    metadata: FitMetadata
    prior_kind: str = ""
    spec: Optional[Mapping[str, Any]] = None

    def __post_init__(self):
        if not self.prior_kind:
            object.__setattr__(self, "prior_kind", prior_kind_of(self.config))
        if not self.state:
            raise ConfigurationError(
                "PriorCheckpoint needs a non-empty state dict"
            )

    def key(self) -> Tuple:
        """The exact fit-cache key: ``(geometry, config signature)``."""
        return (self.geometry, config_signature(self.config))

    def checkpoint_id(self) -> str:
        """Deterministic zoo id: kind, cell grid, and a stable key hash."""
        token = stable_hash_seed(
            "prior-zoo",
            repr(self.geometry.to_dict()),
            repr(config_signature(self.config)),
        )
        g = self.geometry
        return f"{self.prior_kind}-{g.n_freq}x{g.n_frames}-{token:08x}"

    def state_copy(self) -> Dict[str, np.ndarray]:
        """A deep copy of the fitted parameters."""
        return {name: np.asarray(value).copy()
                for name, value in self.state.items()}


def checkpoint_from_fit(
    geometry: PriorGeometry,
    config,
    state: Mapping[str, np.ndarray],
    losses,
    stop_iteration: Optional[int] = None,
    spec: Optional[Mapping[str, Any]] = None,
) -> PriorCheckpoint:
    """Bundle a finished fit (state + per-iteration losses) up.

    ``losses`` is the recorded loss curve; the checkpoint's
    ``final_loss`` is the value at ``stop_iteration`` when early
    stopping rolled the fit back, else the last recorded loss.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.size == 0:
        raise ConfigurationError(
            "a checkpoint needs at least one recorded loss"
        )
    if stop_iteration is not None:
        final_loss = float(losses[int(stop_iteration)])
        stop_iteration = int(stop_iteration)
    else:
        final_loss = float(losses[-1])
    metadata = FitMetadata(
        iterations=int(losses.size),
        final_loss=final_loss,
        stop_iteration=stop_iteration,
        dtype=np.dtype(config.dtype).name,
    )
    return PriorCheckpoint(
        geometry=geometry,
        config=config,
        state={name: np.asarray(value).copy()
               for name, value in state.items()},
        metadata=metadata,
        spec=dict(spec) if spec is not None else None,
    )
