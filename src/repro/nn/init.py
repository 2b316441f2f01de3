"""Weight initialisers.

All initialisers take an explicit :class:`numpy.random.Generator` so model
construction is fully deterministic given a seed — essential for the
deep-prior experiments where the random initialisation *is* the prior.
Every initialiser returns ``float32`` unless given an explicit ``dtype``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError


def kaiming_uniform(shape, rng: np.random.Generator, gain: float = math.sqrt(2.0),
                    dtype=np.float32) -> np.ndarray:
    """He/Kaiming uniform initialisation (fan-in mode).

    ``shape`` is ``(fan_out, fan_in, *receptive_field)``.
    """
    shape = tuple(shape)
    if len(shape) < 2:
        raise ConfigurationError(
            f"fan in undefined for shape {shape}; need >= 2 dims"
        )
    fan_in = shape[1] * int(np.prod(shape[2:]))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def zeros(shape, dtype=np.float32) -> np.ndarray:
    """All-zeros array (bias default)."""
    return np.zeros(shape, dtype=dtype)


def ones(shape, dtype=np.float32) -> np.ndarray:
    """All-ones array (norm scale default)."""
    return np.ones(shape, dtype=dtype)
