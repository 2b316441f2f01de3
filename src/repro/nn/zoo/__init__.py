"""repro.nn.zoo — warm-start prior zoo for deep-prior fits.

Deep-prior fitting dominates DHF runtime; under sustained repeated
traffic the same ``(STFT geometry, fit configuration)`` classes recur,
so finished fits are worth keeping.  This package provides the three
layers that amortise them:

:class:`PriorCheckpoint`
    A versioned bundle of one fitted SpAc LU-Net: ``save_state``-style
    parameters + the frozen fit config (JSON'd, the HF ``DacConfig``
    idiom), prior kind, :class:`PriorGeometry`, and
    :class:`FitMetadata`.
:class:`PriorZoo`
    An on-disk store of checkpoints, one self-describing archive
    each (the directory is the index), with SHA-256 integrity checking
    on every read.
:class:`FitCache` / :func:`shared_fit_cache`
    The in-process LRU that answers warm-start lookups (exact key hit,
    else same-geometry nearest config) and is threaded through
    :func:`repro.core.inpainting.inpaint_spectrogram`,
    :func:`repro.core.inpainting.inpaint_spectrograms`,
    :class:`repro.core.DHFSeparator` and, via the ``warm_start`` /
    ``zoo_path`` fields of :class:`repro.service.DHFSpec`, every
    :class:`repro.service.SeparationService`.
"""

from repro.nn.zoo.checkpoint import (
    ZOO_FORMAT_VERSION,
    FitMetadata,
    PriorCheckpoint,
    PriorGeometry,
    checkpoint_from_fit,
    config_distance,
    config_from_dict,
    config_signature,
    config_to_dict,
    prior_kind_of,
    structure_signature,
)
from repro.nn.zoo.store import PriorZoo
from repro.nn.zoo.cache import FitCache, clear_shared_fit_caches, shared_fit_cache

__all__ = [
    "ZOO_FORMAT_VERSION",
    "FitMetadata",
    "PriorCheckpoint",
    "PriorGeometry",
    "PriorZoo",
    "FitCache",
    "checkpoint_from_fit",
    "clear_shared_fit_caches",
    "config_distance",
    "config_from_dict",
    "config_signature",
    "config_to_dict",
    "prior_kind_of",
    "shared_fit_cache",
    "structure_signature",
]
