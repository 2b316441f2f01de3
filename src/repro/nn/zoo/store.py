"""On-disk store of prior checkpoints: one archive per checkpoint.

A :class:`PriorZoo` is one directory, and the directory is its index::

    <root>/<id>.npz    fitted parameters (``save_arrays`` format) plus
                       one reserved entry holding the sidecar JSON

The sidecar carries the format version, geometry, config, metadata and
spec, and a SHA-256 over the parameters and the rest of the sidecar.
Every put writes the whole archive through
:func:`repro.nn.serialization.save_arrays`, so one ``os.replace``
publishes a whole checkpoint: writers in different processes cannot lose
each other's entries, and no reader can pair one writer's parameters
with another writer's hash.  :meth:`PriorZoo.get` re-hashes on read, so
a bit-rotted, tampered or unreadable archive, a malformed sidecar, or an
archive of another format surfaces as a clear
:class:`repro.errors.SerializationError` instead of a wrong warm-start.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterator, List, Mapping

import numpy as np

from repro.errors import SerializationError
from repro.nn.serialization import load_arrays, save_arrays
from repro.nn.zoo.checkpoint import (
    ZOO_FORMAT_VERSION,
    FitMetadata,
    PriorCheckpoint,
    PriorGeometry,
    config_from_dict,
    config_to_dict,
)

_SUFFIX = ".npz"
_SIDECAR_ENTRY = "__zoo_sidecar__"
_SIDECAR_KEYS = {"format", "id", "prior_kind", "geometry", "config",
                 "metadata", "spec", "sha256"}


def _digest(sidecar: Mapping[str, Any],
            state: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over a sidecar (without its hash) and the parameters."""
    digest = hashlib.sha256(json.dumps(sidecar, sort_keys=True).encode())
    for name in sorted(state):
        value = np.asarray(state[name])
        digest.update(
            json.dumps([name, value.dtype.str, value.shape]).encode()
        )
        digest.update(value.tobytes())
    return digest.hexdigest()


class PriorZoo:
    """On-disk checkpoint store with integrity-checked reads.

    Safe to share between threads and processes: nothing is cached in
    memory, and each put is one atomic rename.  Ids are deterministic
    (:meth:`PriorCheckpoint.checkpoint_id`), so re-putting the same
    ``(geometry, config)`` overwrites in place: the zoo holds the most
    recent fit per key.
    """

    def __init__(self, root):
        self._root = os.fspath(root)
        os.makedirs(self._root, exist_ok=True)

    @property
    def root(self) -> str:
        return self._root

    def _path(self, checkpoint_id: str) -> str:
        return os.path.join(self._root, checkpoint_id + _SUFFIX)

    def __len__(self) -> int:
        return len(self.ids())

    def __contains__(self, checkpoint_id: str) -> bool:
        return os.path.isfile(self._path(checkpoint_id))

    def ids(self) -> List[str]:
        """All stored checkpoint ids, sorted."""
        return sorted(
            name[:-len(_SUFFIX)] for name in os.listdir(self._root)
            if name.endswith(_SUFFIX)
        )

    def put(self, checkpoint: PriorCheckpoint) -> str:
        """Persist a checkpoint; returns its deterministic id."""
        checkpoint_id = checkpoint.checkpoint_id()
        sidecar: Dict[str, Any] = {
            "format": ZOO_FORMAT_VERSION,
            "id": checkpoint_id,
            "prior_kind": checkpoint.prior_kind,
            "geometry": checkpoint.geometry.to_dict(),
            "config": config_to_dict(checkpoint.config),
            "metadata": checkpoint.metadata.to_dict(),
            "spec": dict(checkpoint.spec)
                    if checkpoint.spec is not None else None,
        }
        sidecar["sha256"] = _digest(sidecar, checkpoint.state)
        text = json.dumps(sidecar, sort_keys=True).encode()
        save_arrays(
            {**checkpoint.state,
             _SIDECAR_ENTRY: np.frombuffer(text, dtype=np.uint8)},
            self._path(checkpoint_id),
        )
        return checkpoint_id

    def get(self, checkpoint_id: str) -> PriorCheckpoint:
        """Load a checkpoint, verifying its hash."""
        path = self._path(checkpoint_id)
        if not os.path.isfile(path):
            raise SerializationError(
                f"zoo at {self._root} has no checkpoint "
                f"{checkpoint_id!r} (available: {self.ids() or 'none'})"
            )
        try:
            state = load_arrays(path)
            raw = state.pop(_SIDECAR_ENTRY, None)
            sidecar = None if raw is None else json.loads(raw.tobytes())
        except (SerializationError, ValueError) as exc:
            raise SerializationError(
                f"checkpoint {checkpoint_id!r} failed its integrity "
                f"check: {exc}"
            ) from exc
        if sidecar is None:
            raise SerializationError(
                f"checkpoint archive {path} has no embedded sidecar, so "
                f"it was written in zoo format 1; this build reads format "
                f"{ZOO_FORMAT_VERSION}.  Delete the zoo directory and let "
                f"fits repopulate it"
            )
        if not isinstance(sidecar, dict) \
                or not _SIDECAR_KEYS <= set(sidecar):
            raise SerializationError(
                f"checkpoint sidecar in {path} is malformed "
                f"(needs {sorted(_SIDECAR_KEYS)})"
            )
        if sidecar["format"] != ZOO_FORMAT_VERSION:
            raise SerializationError(
                f"checkpoint sidecar in {path} has unsupported format "
                f"{sidecar['format']!r} (this build reads "
                f"{ZOO_FORMAT_VERSION})"
            )
        expected = sidecar.pop("sha256")
        actual = _digest(sidecar, state)
        if actual != expected:
            raise SerializationError(
                f"checkpoint {checkpoint_id!r} failed its integrity "
                f"check: hash {actual[:12]}... != recorded "
                f"{str(expected)[:12]}..."
            )
        return PriorCheckpoint(
            geometry=PriorGeometry.from_dict(sidecar["geometry"]),
            config=config_from_dict(sidecar["config"]),
            state=state,
            metadata=FitMetadata.from_dict(sidecar["metadata"]),
            prior_kind=str(sidecar["prior_kind"]),
            spec=sidecar["spec"],
        )

    def checkpoints(self) -> Iterator[PriorCheckpoint]:
        """Every stored checkpoint, in id order (each hash-verified)."""
        for checkpoint_id in self.ids():
            yield self.get(checkpoint_id)

    def verify(self) -> List[str]:
        """Integrity problems across the whole store (empty = healthy)."""
        problems: List[str] = []
        for checkpoint_id in self.ids():
            try:
                self.get(checkpoint_id)
            except SerializationError as exc:
                problems.append(str(exc))
        return problems
