"""Tests for model state saving/loading."""

import os

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.nn import Conv2d, ModuleList, load_state, save_state
from repro.nn.serialization import (
    load_arrays,
    normalize_state_path,
    save_arrays,
)


def make_net(seed):
    return ModuleList([Conv2d(3, 4, 1, rng=seed), Conv2d(4, 2, 1, rng=seed + 1)])


def test_save_load_roundtrip(tmp_path):
    net = make_net(0)
    path = str(tmp_path / "model.npz")
    save_state(net, path)
    other = make_net(99)
    load_state(other, path)
    for (_, a), (_, b) in zip(net.named_parameters(),
                              other.named_parameters()):
        assert np.allclose(a.data, b.data)


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(SerializationError):
        load_state(make_net(0), str(tmp_path / "missing.npz"))


def test_load_non_archive_raises(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(SerializationError):
        load_state(make_net(0), str(path))


def test_load_wrong_architecture_raises(tmp_path):
    path = str(tmp_path / "model.npz")
    save_state(make_net(0), path)
    wrong = ModuleList([Conv2d(3, 4, 1, rng=0)])
    with pytest.raises(SerializationError):
        load_state(wrong, path)


def test_creates_directories(tmp_path):
    path = str(tmp_path / "deep" / "dir" / "model.npz")
    save_state(make_net(0), path)
    load_state(make_net(1), path)


def test_normalize_state_path():
    assert normalize_state_path("model") == "model.npz"
    assert normalize_state_path("model.npz") == "model.npz"
    assert normalize_state_path("dir/model.pth") == "dir/model.pth.npz"


def test_suffixless_roundtrip(tmp_path):
    """The historical bug: np.savez silently appends .npz on save, so a
    suffix-less path used to fail on load.  Both sides now normalise."""
    net = make_net(0)
    path = str(tmp_path / "model")  # no .npz
    written = save_state(net, path)
    assert written == path + ".npz"
    assert os.path.exists(written)
    assert not os.path.exists(path)
    other = make_net(99)
    load_state(other, path)  # same suffix-less spelling round-trips
    for (_, a), (_, b) in zip(net.named_parameters(),
                              other.named_parameters()):
        assert np.allclose(a.data, b.data)


def test_save_is_atomic(tmp_path, monkeypatch):
    """A crash mid-write must leave the previous archive untouched."""
    net = make_net(0)
    path = str(tmp_path / "model.npz")
    save_state(net, path)
    before = load_arrays(path)

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", boom)
    with pytest.raises(OSError):
        save_state(make_net(99), path)
    monkeypatch.undo()

    after = load_arrays(path)
    assert sorted(before) == sorted(after)
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])
    leftovers = [f for f in os.listdir(tmp_path) if f != "model.npz"]
    assert leftovers == []  # no temp files left behind


def test_reserved_array_name_rejected(tmp_path):
    with pytest.raises(SerializationError, match="reserved"):
        save_arrays({"__repro_format__": np.zeros(2)},
                    str(tmp_path / "bad.npz"))


def test_load_missing_parameter_names_it(tmp_path):
    net = make_net(0)
    state = net.state_dict()
    name, _ = sorted(state.items())[0]
    del state[name]
    path = save_arrays(state, str(tmp_path / "model.npz"))
    with pytest.raises(SerializationError, match=repr(name)):
        load_state(make_net(1), path)


def test_load_extra_entry_names_it(tmp_path):
    net = make_net(0)
    state = net.state_dict()
    state["bogus.weight"] = np.zeros(3)
    path = save_arrays(state, str(tmp_path / "model.npz"))
    with pytest.raises(SerializationError, match="bogus.weight"):
        load_state(make_net(1), path)


def test_load_shape_mismatch_names_param_and_shapes(tmp_path):
    net = make_net(0)
    state = net.state_dict()
    name = sorted(state)[0]
    state[name] = np.zeros((7, 7))
    path = save_arrays(state, str(tmp_path / "model.npz"))
    with pytest.raises(SerializationError) as err:
        load_state(make_net(1), path)
    assert name in str(err.value)
    assert "(7, 7)" in str(err.value)


def test_load_non_numeric_dtype_names_param(tmp_path):
    net = make_net(0)
    state = net.state_dict()
    name = sorted(state)[0]
    state[name] = np.full(state[name].shape, "x")
    path = save_arrays(state, str(tmp_path / "model.npz"))
    with pytest.raises(SerializationError, match=repr(name)):
        load_state(make_net(1), path)


def test_validation_failure_leaves_module_untouched(tmp_path):
    net = make_net(0)
    state = net.state_dict()
    name = sorted(state)[0]
    state[name] = np.zeros((7, 7))
    path = save_arrays(state, str(tmp_path / "model.npz"))
    target = make_net(1)
    before = {n: p.data.copy() for n, p in target.named_parameters()}
    with pytest.raises(SerializationError):
        load_state(target, path)
    for n, p in target.named_parameters():
        np.testing.assert_array_equal(before[n], p.data)
