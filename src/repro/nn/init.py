"""Weight initialisers.

All initialisers take an explicit :class:`numpy.random.Generator` so model
construction is fully deterministic given a seed — essential for the
deep-prior experiments where the random initialisation *is* the prior.
Every initialiser returns ``float32`` unless given an explicit ``dtype``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 2:
        raise ConfigurationError(
            f"fan in/out undefined for shape {shape}; need >= 2 dims"
        )
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def kaiming_uniform(shape, rng: np.random.Generator, gain: float = math.sqrt(2.0),
                    dtype=np.float32) -> np.ndarray:
    """He/Kaiming uniform initialisation (fan-in mode)."""
    fan_in, _ = _fan_in_out(tuple(shape))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def xavier_uniform(shape, rng: np.random.Generator, gain: float = 1.0,
                   dtype=np.float32) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = _fan_in_out(tuple(shape))
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def normal(shape, rng: np.random.Generator, std: float = 0.02,
           dtype=np.float32) -> np.ndarray:
    """Zero-mean Gaussian initialisation."""
    return (rng.standard_normal(size=shape) * std).astype(dtype)


def uniform(shape, rng: np.random.Generator, low: float = -0.05,
            high: float = 0.05, dtype=np.float32) -> np.ndarray:
    """Uniform initialisation on ``[low, high)``."""
    if low >= high:
        raise ConfigurationError(f"low must be < high, got [{low}, {high})")
    return rng.uniform(low, high, size=shape).astype(dtype)


def zeros(shape, dtype=np.float32) -> np.ndarray:
    """All-zeros array (bias default)."""
    return np.zeros(shape, dtype=dtype)


def ones(shape, dtype=np.float32) -> np.ndarray:
    """All-ones array (norm scale default)."""
    return np.ones(shape, dtype=dtype)
