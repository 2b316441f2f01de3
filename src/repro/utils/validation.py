"""Argument validation helpers used across the package.

Every public entry point of the library validates its inputs through these
helpers so error messages are consistent and informative.  All helpers raise
subclasses of :class:`repro.errors.ReproError`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, DataError, ShapeError


def as_1d_float_array(x, name: str = "array") -> np.ndarray:
    """Coerce ``x`` to a 1-D ``float64`` array, raising on bad shapes.

    Parameters
    ----------
    x:
        Array-like input.
    name:
        Name used in error messages.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        raise ShapeError(f"{name} must be 1-D, got a scalar")
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{name} must be non-empty")
    return arr


def as_2d_float_array(x, name: str = "array") -> np.ndarray:
    """Coerce ``x`` to a 2-D ``float64`` array, raising on bad shapes."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{name} must be non-empty")
    return arr


def check_finite(x, name: str = "array") -> np.ndarray:
    """Raise :class:`DataError` if ``x`` contains NaN or infinity."""
    arr = np.asarray(x)
    if not np.all(np.isfinite(arr)):
        n_bad = int(np.sum(~np.isfinite(arr)))
        raise DataError(f"{name} contains {n_bad} non-finite value(s)")
    return arr


def check_f0_tracks(
    f0_tracks: Mapping[str, np.ndarray], n_samples: int, of: str = "mixed",
) -> Dict[str, np.ndarray]:
    """Each per-source f0 track as a float array, after checking that it
    is ``n_samples`` long (the length of ``of``), finite and above 0."""
    if not f0_tracks:
        raise ConfigurationError("f0_tracks must contain at least one source")
    tracks = {}
    for name, track in f0_tracks.items():
        track = np.asarray(track, dtype=np.float64)
        if track.shape != (n_samples,):
            raise DataError(
                f"f0 track for {name!r} has shape {track.shape}, {of} has "
                f"{n_samples} samples"
            )
        # NaN fails both comparisons.
        if not np.all((track > 0) & (track < np.inf)):
            raise DataError(
                f"f0 track for {name!r} must be finite and positive"
            )
        tracks[name] = track
    return tracks


def check_separation_input(
    mixed, sampling_hz: float, f0_tracks: Mapping[str, np.ndarray],
) -> np.ndarray:
    """``mixed`` as a float array, after checking one separation input.

    The rule every separator and every :class:`SeparationRecord` applies:
    ``mixed`` is non-empty, finite and 1-D; ``sampling_hz`` is finite and
    above 0; and each f0 track passes :func:`check_f0_tracks`.
    """
    mixed = check_finite(as_1d_float_array(mixed, "mixed"), "mixed")
    check_positive(sampling_hz, "sampling_hz")
    check_f0_tracks(f0_tracks, mixed.size)
    return mixed


def check_references(
    references: Mapping[str, np.ndarray], n_samples: int,
) -> None:
    """Check each reference source with the rule ``mixed`` follows
    (non-empty, finite, 1-D) and that it is ``n_samples`` long."""
    for name, reference in references.items():
        label = f"reference {name!r}"
        reference = check_finite(as_1d_float_array(reference, label), label)
        if reference.size != n_samples:
            raise ShapeError(
                f"{label} has {reference.size} samples, mixed has "
                f"{n_samples}"
            )


def check_positive(value: float, name: str = "value") -> float:
    """Raise :class:`ConfigurationError` unless ``value`` > 0."""
    if not np.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return float(value)


def check_positive_int(value: int, name: str = "value") -> int:
    """Raise :class:`ConfigurationError` unless ``value`` is an int > 0."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return int(value)


def check_nonnegative_int(value: int, name: str = "value") -> int:
    """Raise :class:`ConfigurationError` unless ``value`` is an int >= 0."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return int(value)


def check_probability(value: float, name: str = "value") -> float:
    """Raise :class:`ConfigurationError` unless ``0 <= value <= 1``."""
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def check_in_range(
    value: float,
    low: float,
    high: float,
    name: str = "value",
    inclusive: bool = True,
) -> float:
    """Raise :class:`ConfigurationError` unless ``low <(=) value <(=) high``."""
    ok = low <= value <= high if inclusive else low < value < high
    if not np.isfinite(value) or not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ConfigurationError(f"{name} must be in {bounds}, got {value!r}")
    return float(value)


def check_same_length(name_a: str, a: Sequence, name_b: str, b: Sequence) -> None:
    """Raise :class:`ShapeError` unless ``len(a) == len(b)``."""
    if len(a) != len(b):
        raise ShapeError(
            f"{name_a} and {name_b} must have the same length, "
            f"got {len(a)} and {len(b)}"
        )
