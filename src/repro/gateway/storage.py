"""Per-job artefact storage: JSON job records and ``.npz`` archives.

Every job owns one directory under the store root:

* ``job.json`` — the job record (state, spec, timestamps, error text,
  per-record scores);
* ``estimates_<i>.npz`` — the per-record estimate arrays, as a
  named-array archive (:func:`save_arrays`) carrying this module's
  format marker.

Both land through one atomic write: a temporary file in the job's
directory, moved over the final name with ``os.replace``, so a crash
or a kill mid-write never leaves a truncated file behind the final
name.  Reads are checked: a missing file, a file that is not an
``.npz`` archive, or an archive without the format marker raises
:class:`repro.errors.SerializationError`.

The store never caches: reads always come from disk.  A gateway
restarted over an existing root leaves its predecessor's jobs on disk
untouched (its registry numbers new jobs past them) but neither serves
nor expires them.  Expiry (:meth:`ArtifactStore.delete`) removes a
job's directory wholesale.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zipfile
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import SerializationError

_JOB_FILE = "job.json"
#: Array names are stored verbatim as npz keys (estimate archives are
#: keyed ``<source>``); this one is reserved for the format marker.
_FORMAT_KEY = "__repro_format__"
_FORMAT_VERSION = "1"


def _atomic_write(path: str, write: Callable, mode: str) -> str:
    """Write ``path`` through ``write(handle)``, atomically.

    The payload lands in a temporary file in ``path``'s directory and is
    moved over ``path`` with one ``os.replace``, so readers never see a
    partial file; a failed write removes its temporary file.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, mode) as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    return path


def save_arrays(arrays: Mapping[str, np.ndarray], path: str) -> str:
    """Atomically write a named-array ``.npz`` archive to ``path``."""
    payload: Dict[str, np.ndarray] = {_FORMAT_KEY: np.asarray(_FORMAT_VERSION)}
    for name, value in arrays.items():
        if name == _FORMAT_KEY:
            raise SerializationError(
                f"array name {name!r} is reserved for the format marker"
            )
        payload[name] = np.asarray(value)
    return _atomic_write(
        os.path.abspath(path), lambda handle: np.savez(handle, **payload),
        "wb",
    )


def load_arrays(path: str) -> Dict[str, np.ndarray]:
    """Read an archive written by :func:`save_arrays`.

    Raises :class:`repro.errors.SerializationError` when the archive is
    missing, unreadable, lacks the format marker, or is of an unknown
    format version.
    """
    if not os.path.exists(path):
        raise SerializationError(f"archive not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            keys = set(archive.files)
            if _FORMAT_KEY not in keys:
                raise SerializationError(
                    f"{path} is not a repro archive (missing format marker)"
                )
            version = str(archive[_FORMAT_KEY])
            if version != _FORMAT_VERSION:
                raise SerializationError(
                    f"unsupported archive format version {version!r}"
                )
            return {k: archive[k] for k in keys if k != _FORMAT_KEY}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise SerializationError(
            f"{path} is not a readable npz archive ({exc})"
        ) from exc


class ArtifactStore:
    """Directory-backed artefact storage for gateway jobs."""

    def __init__(self, root: str):
        self.root = os.path.abspath(os.fspath(root))
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.root, job_id)

    def _job_file(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), _JOB_FILE)

    def _estimates_file(self, job_id: str, index: int) -> str:
        return os.path.join(self.job_dir(job_id), f"estimates_{index}.npz")

    def job_ids(self) -> List[str]:
        """Every job with a persisted record, sorted (= submit order)."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name for name in os.listdir(self.root)
            if os.path.isfile(os.path.join(self.root, name, _JOB_FILE))
        )

    # ------------------------------------------------------------------ #
    # Job records
    # ------------------------------------------------------------------ #
    def write_job(self, job_id: str, payload: Dict[str, Any]) -> str:
        """Atomically persist one job record as JSON."""
        return _atomic_write(
            self._job_file(job_id),
            lambda handle: json.dump(payload, handle, indent=2,
                                     sort_keys=True),
            "w",
        )

    def read_job(self, job_id: str) -> Dict[str, Any]:
        """The persisted job record; corruption raises, loudly."""
        path = self._job_file(job_id)
        if not os.path.isfile(path):
            raise SerializationError(f"no job record at {path}")
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"{path} is not a readable job record ({exc})"
            ) from exc
        if not isinstance(data, dict):
            raise SerializationError(
                f"{path} does not hold a JSON object"
            )
        return data

    # ------------------------------------------------------------------ #
    # Estimates
    # ------------------------------------------------------------------ #
    def write_estimates(
        self, job_id: str, index: int, estimates: Dict[str, np.ndarray],
    ) -> str:
        """Persist one record's estimate arrays (npz, atomic)."""
        return save_arrays(estimates, self._estimates_file(job_id, index))

    def read_estimates(
        self, job_id: str, index: int,
    ) -> Dict[str, np.ndarray]:
        return load_arrays(self._estimates_file(job_id, index))

    # ------------------------------------------------------------------ #
    # Expiry
    # ------------------------------------------------------------------ #
    def delete(self, job_id: str) -> bool:
        """Remove a job's directory; True when something was deleted."""
        directory = self.job_dir(job_id)
        if not os.path.isdir(directory):
            return False
        shutil.rmtree(directory, ignore_errors=True)
        return True

    def __repr__(self) -> str:
        return f"ArtifactStore(root={self.root!r}, jobs={len(self.job_ids())})"


def make_store(root: Optional[str]) -> ArtifactStore:
    """A store at ``root``, or a private temporary directory when empty."""
    if root:
        return ArtifactStore(root)
    return ArtifactStore(tempfile.mkdtemp(prefix="repro-gateway-"))
