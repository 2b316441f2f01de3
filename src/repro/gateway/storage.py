"""Per-job artefact storage on the hardened serialization substrate.

Every job owns one directory under the store root:

* ``job.json`` — the job record (state, spec, timestamps, error text,
  per-record scores), written atomically (temp file + ``os.replace``,
  the same crash-safety discipline as :mod:`repro.nn.serialization`);
* ``estimates_<i>.npz`` — the per-record estimate arrays, written
  through :func:`repro.nn.serialization.save_arrays` so they carry the
  format marker and land atomically.

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
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import SerializationError
from repro.nn.serialization import load_arrays, save_arrays

#: Estimate archives are keyed ``<source>`` inside ``estimates_<i>.npz``.
_JOB_FILE = "job.json"


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
        directory = self.job_dir(job_id)
        os.makedirs(directory, exist_ok=True)
        path = self._job_file(job_id)
        fd, tmp_path = tempfile.mkstemp(
            prefix=_JOB_FILE + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
            raise
        return path

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
        return save_arrays(
            estimates,
            os.path.join(self.job_dir(job_id), f"estimates_{index}.npz"),
        )

    def read_estimates(
        self, job_id: str, index: int,
    ) -> Dict[str, np.ndarray]:
        return load_arrays(
            os.path.join(self.job_dir(job_id), f"estimates_{index}.npz")
        )

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
