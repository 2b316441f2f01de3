"""Atomic named-array ``.npz`` archives.

Gateway storage (:class:`repro.gateway.storage.ArtifactStore`) keeps
every job's per-record estimates in these archives, so the format is
deliberately strict:

* **One canonical on-disk name.**  ``np.savez`` silently appends
  ``.npz`` when the given path lacks the suffix, so a writer given ``p``
  would leave ``p + ".npz"`` behind while a reader looked for ``p``.
  :func:`normalize_state_path` resolves the suffix in one place and both
  :func:`save_arrays` and :func:`load_arrays` go through it.
* **Atomic writes.**  Archives are written to a temporary file in the
  target directory and moved into place with ``os.replace``, so a crash
  mid-write can never leave a truncated archive behind the final name.
* **Checked loads.**  A missing file, a file that is not an ``.npz``
  archive, or an archive without this module's format marker raises
  :class:`repro.errors.SerializationError`.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from typing import Dict, Mapping

import numpy as np

from repro.errors import SerializationError

#: Array names are stored verbatim as npz keys (numpy allows arbitrary str
#: keys); this one is reserved for the format marker.
_FORMAT_KEY = "__repro_format__"
_FORMAT_VERSION = "1"


def normalize_state_path(path) -> str:
    """``path`` with the ``.npz`` suffix numpy's writer would append.

    Both :func:`save_arrays` and :func:`load_arrays` resolve the on-disk
    name through this helper, so a suffix-less path round-trips: the
    archive is written to, and read from, ``path + ".npz"``.
    """
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


def save_arrays(arrays: Mapping[str, np.ndarray], path) -> str:
    """Atomically write a named-array ``.npz`` archive.

    Returns the path actually written (``.npz`` appended when missing).
    The payload lands in a temporary file in the target directory first
    and is moved over the final name with ``os.replace``, so readers
    never observe a partially written archive.
    """
    path = normalize_state_path(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload: Dict[str, np.ndarray] = {_FORMAT_KEY: np.asarray(_FORMAT_VERSION)}
    for name, value in arrays.items():
        if name == _FORMAT_KEY:
            raise SerializationError(
                f"array name {name!r} is reserved for the format marker"
            )
        payload[name] = np.asarray(value)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    return path


def load_arrays(path) -> Dict[str, np.ndarray]:
    """Read an archive written by :func:`save_arrays`.

    Raises :class:`repro.errors.SerializationError` when the file is
    missing, unreadable, not a repro archive, or of an unknown format
    version.
    """
    path = normalize_state_path(path)
    if not os.path.exists(path):
        raise SerializationError(f"state file not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            keys = set(archive.files)
            if _FORMAT_KEY not in keys:
                raise SerializationError(
                    f"{path} is not a repro state archive (missing format "
                    f"marker)"
                )
            version = str(archive[_FORMAT_KEY])
            if version != _FORMAT_VERSION:
                raise SerializationError(
                    f"unsupported state format version {version!r}"
                )
            return {k: archive[k] for k in keys if k != _FORMAT_KEY}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise SerializationError(
            f"{path} is not a readable npz archive ({exc})"
        ) from exc
