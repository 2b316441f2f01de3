"""Tests for the atomic named-array ``.npz`` archives gateway storage
keeps job estimates in (:mod:`repro.gateway.storage`)."""

import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.gateway.storage import load_arrays, save_arrays


def make_arrays(seed):
    rng = np.random.default_rng(seed)
    return {
        "maternal": rng.standard_normal(12),
        "fetal": rng.standard_normal((3, 4)).astype(np.float32),
    }


def assert_same_arrays(expected, got):
    assert sorted(expected) == sorted(got)
    for name, value in expected.items():
        assert got[name].dtype == value.dtype
        np.testing.assert_array_equal(got[name], value)


def test_save_load_roundtrip(tmp_path):
    arrays = make_arrays(0)
    path = save_arrays(arrays, str(tmp_path / "estimates.npz"))
    assert_same_arrays(arrays, load_arrays(path))


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(SerializationError, match="not found"):
        load_arrays(str(tmp_path / "missing.npz"))


def test_load_non_archive_raises(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(SerializationError, match="format marker"):
        load_arrays(str(path))


def test_creates_directories(tmp_path):
    arrays = make_arrays(0)
    path = str(tmp_path / "deep" / "dir" / "estimates.npz")
    assert save_arrays(arrays, path) == path
    assert_same_arrays(arrays, load_arrays(path))


def test_save_is_atomic(tmp_path, monkeypatch):
    """A crash mid-write must leave the previous archive untouched."""
    path = str(tmp_path / "estimates.npz")
    save_arrays(make_arrays(0), path)
    before = load_arrays(path)

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", boom)
    with pytest.raises(OSError):
        save_arrays(make_arrays(99), path)
    monkeypatch.undo()

    assert_same_arrays(before, load_arrays(path))
    leftovers = [f for f in os.listdir(tmp_path) if f != "estimates.npz"]
    assert leftovers == []  # no temp files left behind


def test_pathlike_paths_roundtrip(tmp_path):
    arrays = make_arrays(0)
    written = save_arrays(arrays, tmp_path / "estimates.npz")
    assert written == str(tmp_path / "estimates.npz")
    assert_same_arrays(arrays, load_arrays(tmp_path / "estimates.npz"))


def test_array_likes_are_stored_as_arrays(tmp_path):
    path = save_arrays({"list": [1.0, 2.0], "scalar": 3},
                       str(tmp_path / "estimates.npz"))
    got = load_arrays(path)
    np.testing.assert_array_equal(got["list"], np.array([1.0, 2.0]))
    assert got["scalar"].shape == () and int(got["scalar"]) == 3


def test_reserved_array_name_rejected(tmp_path):
    with pytest.raises(SerializationError, match="reserved"):
        save_arrays({"__repro_format__": np.zeros(2)},
                    str(tmp_path / "bad.npz"))


@pytest.mark.parametrize("dtype", [
    np.float32, np.float64, np.complex128, np.int64, np.uint8, np.bool_,
])
def test_dtype_and_shape_survive_roundtrip(tmp_path, dtype):
    values = (np.arange(24).reshape(2, 3, 4) % 3).astype(dtype)
    path = save_arrays({"x": values}, str(tmp_path / "estimates.npz"))
    assert_same_arrays({"x": values}, load_arrays(path))


def test_scalar_and_empty_arrays_roundtrip(tmp_path):
    arrays = {"scalar": np.asarray(2.5), "empty": np.zeros((0, 3))}
    path = save_arrays(arrays, str(tmp_path / "estimates.npz"))
    got = load_arrays(path)
    assert got["scalar"].shape == () and got["empty"].shape == (0, 3)
    assert_same_arrays(arrays, got)


def test_empty_mapping_roundtrip(tmp_path):
    path = save_arrays({}, str(tmp_path / "estimates.npz"))
    assert load_arrays(path) == {}


def test_overwrite_leaves_no_stale_entries(tmp_path):
    path = str(tmp_path / "estimates.npz")
    save_arrays(make_arrays(0), path)
    replacement = {"respiration": np.arange(5.0)}
    save_arrays(replacement, path)
    assert_same_arrays(replacement, load_arrays(path))


def test_unknown_format_version_raises(tmp_path):
    path = str(tmp_path / "future.npz")
    np.savez(path, __repro_format__=np.asarray("2"), x=np.zeros(3))
    with pytest.raises(SerializationError, match="version '2'"):
        load_arrays(path)


def _truncate(path):
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])


def _overwrite_with_text(path):
    with open(path, "w") as handle:
        handle.write("not an archive\n")


@pytest.mark.parametrize("damage", [_truncate, _overwrite_with_text],
                         ids=["truncated", "text"])
def test_damaged_archive_raises(tmp_path, damage):
    path = save_arrays(make_arrays(0), str(tmp_path / "estimates.npz"))
    damage(path)
    with pytest.raises(SerializationError, match="not a readable"):
        load_arrays(path)


def test_object_arrays_are_never_unpickled(tmp_path):
    """Loading must not execute pickles, even from a marked archive."""
    path = save_arrays({"x": np.array([{"a": 1}], dtype=object)},
                       str(tmp_path / "estimates.npz"))
    with pytest.raises(SerializationError, match="not a readable"):
        load_arrays(path)


def test_loaded_arrays_outlive_the_file(tmp_path):
    arrays = make_arrays(0)
    path = save_arrays(arrays, str(tmp_path / "estimates.npz"))
    got = load_arrays(path)
    os.remove(path)
    assert_same_arrays(arrays, got)
    got["maternal"][0] = 0.0  # plain in-memory arrays, writable


def _die_mid_write(handle, **payload):
    handle.write(b"PK\x03\x04partial")
    handle.flush()
    os.kill(os.getpid(), signal.SIGKILL)


def _die_before_rename(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


def _overwrite_and_die(path, owner, name, death):
    """Child body: start replacing ``path``, then die at ``death``."""
    setattr(owner, name, death)
    save_arrays(make_arrays(1), path)


@pytest.mark.parametrize("owner, name, death", [
    (np, "savez", _die_mid_write),
    (os, "replace", _die_before_rename),
], ids=["mid-write", "before-rename"])
def test_killed_writer_leaves_the_previous_archive(tmp_path, owner, name,
                                                   death):
    """A writer killed outright (no exception handler runs) must leave
    the archive under the final name exactly as it was."""
    path = str(tmp_path / "estimates.npz")
    save_arrays(make_arrays(0), path)
    child = multiprocessing.get_context("fork").Process(
        target=_overwrite_and_die, args=(path, owner, name, death),
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == -signal.SIGKILL
    assert_same_arrays(make_arrays(0), load_arrays(path))


def test_concurrent_writers_leave_one_complete_archive(tmp_path):
    path = str(tmp_path / "estimates.npz")
    payloads = [make_arrays(seed) for seed in range(4)]
    start = threading.Barrier(len(payloads))

    def write(arrays):
        start.wait()
        for _ in range(5):
            save_arrays(arrays, path)

    threads = [threading.Thread(target=write, args=(arrays,))
               for arrays in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    got = load_arrays(path)
    assert any(
        all(np.array_equal(got[name], value) for name, value in arrays.items())
        for arrays in payloads
    )
    assert os.listdir(tmp_path) == ["estimates.npz"]  # no temp files left
