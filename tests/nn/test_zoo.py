"""Tests for the warm-start prior zoo (checkpoint, store, fit-cache)."""

import dataclasses
import glob
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.core.inpainting import InpaintingConfig
from repro.errors import ConfigurationError, SerializationError
from repro.nn.serialization import load_arrays, save_arrays
from repro.nn.zoo import (
    FitCache,
    PriorCheckpoint,
    PriorGeometry,
    PriorZoo,
    checkpoint_from_fit,
    clear_shared_fit_caches,
    config_distance,
    config_from_dict,
    config_signature,
    config_to_dict,
    shared_fit_cache,
    structure_signature,
)
from repro.nn.zoo.store import _SIDECAR_ENTRY

GEOMETRY = PriorGeometry(n_freq=17, n_frames=24, n_fft=32, hop=8,
                         samples_per_period=32)


def make_config(**overrides):
    base = dict(iterations=20, learning_rate=8e-3, base_channels=6,
                depth=2, in_channels=4, time_dilation=3, dtype=np.float64)
    base.update(overrides)
    return InpaintingConfig(**base)


def make_checkpoint(config=None, geometry=GEOMETRY, fill=1.0):
    config = config or make_config()
    return checkpoint_from_fit(
        geometry, config,
        state={"net.weight": np.full((3, 2), fill),
               "net.bias": np.full(3, -fill)},
        losses=[0.5, 0.3, 0.2],
    )


@pytest.fixture(autouse=True)
def _isolate_shared_caches():
    clear_shared_fit_caches()
    yield
    clear_shared_fit_caches()


# --------------------------------------------------------------------- #
# Checkpoint / key semantics
# --------------------------------------------------------------------- #
def test_config_dict_roundtrip():
    config = make_config()
    rebuilt = config_from_dict(config_to_dict(config))
    assert config_signature(rebuilt) == config_signature(config)


def test_config_from_dict_rejects_unknown_field():
    data = config_to_dict(make_config())
    data["bogus"] = 1
    with pytest.raises(SerializationError, match="bogus"):
        config_from_dict(data)


def test_checkpoint_id_deterministic():
    a, b = make_checkpoint(), make_checkpoint()
    assert a.checkpoint_id() == b.checkpoint_id()
    other = make_checkpoint(config=make_config(learning_rate=1e-2))
    assert other.checkpoint_id() != a.checkpoint_id()


def test_structure_signature_ignores_optimiser_knobs():
    a = make_config()
    b = make_config(learning_rate=1e-2, iterations=99, time_dilation=5)
    assert structure_signature(a) == structure_signature(b)
    c = make_config(base_channels=8)
    assert structure_signature(a) != structure_signature(c)


def test_config_distance_scale_free():
    a = make_config()
    halved = make_config(learning_rate=a.learning_rate / 2)
    doubled = make_config(learning_rate=a.learning_rate * 2)
    assert config_distance(a, a) == 0.0
    assert config_distance(a, halved) == pytest.approx(
        config_distance(a, doubled))
    assert config_distance(a, halved) == pytest.approx(np.log(2.0))


def test_checkpoint_state_is_copied():
    source = np.ones((3, 2))
    checkpoint = checkpoint_from_fit(
        GEOMETRY, make_config(), state={"w": source}, losses=[0.1],
    )
    source[:] = 99.0
    assert float(checkpoint.state["w"].max()) == 1.0
    copy = checkpoint.state_copy()
    copy["w"][:] = -1.0
    assert float(checkpoint.state["w"].max()) == 1.0


def test_checkpoint_final_loss_respects_rollback():
    checkpoint = checkpoint_from_fit(
        GEOMETRY, make_config(), state={"w": np.ones(2)},
        losses=[0.5, 0.2, 0.4, 0.6], stop_iteration=1,
    )
    assert checkpoint.metadata.final_loss == pytest.approx(0.2)
    assert checkpoint.metadata.stop_iteration == 1
    assert checkpoint.metadata.iterations == 4


# --------------------------------------------------------------------- #
# FitCache: LRU + lookup semantics
# --------------------------------------------------------------------- #
def test_cache_capacity_validated():
    with pytest.raises(ConfigurationError):
        FitCache(capacity=0)


def test_lru_eviction_order():
    cache = FitCache(capacity=2)
    first = make_checkpoint(config=make_config(learning_rate=1e-3))
    second = make_checkpoint(config=make_config(learning_rate=2e-3))
    third = make_checkpoint(config=make_config(learning_rate=3e-3))
    cache.store(first)
    cache.store(second)
    cache.store(third)  # evicts `first`, the least recently used
    assert len(cache) == 2
    assert cache.keys() == [second.key(), third.key()]
    assert cache.lookup(GEOMETRY, first.config) is not first


def test_exact_hit_refreshes_recency():
    cache = FitCache(capacity=2)
    first = make_checkpoint(config=make_config(learning_rate=1e-3))
    second = make_checkpoint(config=make_config(learning_rate=2e-3))
    cache.store(first)
    cache.store(second)
    assert cache.lookup(GEOMETRY, first.config) is first  # bump recency
    third = make_checkpoint(config=make_config(learning_rate=3e-3))
    cache.store(third)  # now evicts `second`
    assert cache.keys() == [first.key(), third.key()]


def test_near_miss_does_not_refresh_recency():
    cache = FitCache(capacity=2)
    first = make_checkpoint(config=make_config(learning_rate=1e-3))
    second = make_checkpoint(config=make_config(learning_rate=2e-3))
    cache.store(first)
    cache.store(second)
    probe = make_config(learning_rate=1.01e-3)  # nearest: `first`
    assert cache.lookup(GEOMETRY, probe) is first
    assert cache.stats()["near_hits"] == 1
    cache.store(make_checkpoint(config=make_config(learning_rate=3e-3)))
    assert first.key() not in cache.keys()  # still first out


def test_near_miss_picks_closest_config():
    cache = FitCache(capacity=4)
    far = make_checkpoint(config=make_config(learning_rate=1e-1))
    near = make_checkpoint(config=make_config(learning_rate=9e-3))
    cache.store(far)
    cache.store(near)
    assert cache.lookup(GEOMETRY, make_config()) is near


def test_near_miss_requires_same_structure():
    cache = FitCache(capacity=4)
    cache.store(make_checkpoint(config=make_config(base_channels=8)))
    assert cache.lookup(GEOMETRY, make_config()) is None
    assert cache.stats()["misses"] == 1


def test_near_miss_requires_same_geometry():
    cache = FitCache(capacity=4)
    other = PriorGeometry(n_freq=17, n_frames=30)
    cache.store(make_checkpoint(geometry=other))
    assert cache.lookup(GEOMETRY, make_config()) is None


def test_cache_clear_keeps_zoo(tmp_path):
    zoo = PriorZoo(str(tmp_path))
    cache = FitCache(capacity=4, zoo=zoo)
    cache.store(make_checkpoint())
    cache.clear()
    assert len(cache) == 0
    assert len(zoo) == 1


def test_cache_thread_safety():
    cache = FitCache(capacity=8)
    configs = [make_config(learning_rate=(k + 1) * 1e-3) for k in range(16)]
    errors = []

    def hammer(offset):
        try:
            for k in range(60):
                config = configs[(k + offset) % len(configs)]
                cache.store(make_checkpoint(config=config))
                cache.lookup(GEOMETRY, configs[k % len(configs)])
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(cache) <= 8
    stats = cache.stats()
    assert stats["stores"] == 6 * 60


# --------------------------------------------------------------------- #
# PriorZoo: persistence + integrity
# --------------------------------------------------------------------- #
def test_zoo_roundtrip(tmp_path):
    from repro.service import DHFSpec

    zoo = PriorZoo(str(tmp_path))
    spec = DHFSpec.from_preset("smoke", warm_start=True, zoo_path="zoo")
    checkpoint = dataclasses.replace(make_checkpoint(), spec=spec.to_dict())
    zoo_id = zoo.put(checkpoint)
    assert zoo_id == checkpoint.checkpoint_id()
    assert zoo_id in zoo
    assert len(zoo) == 1
    assert zoo.verify() == []

    loaded = zoo.get(zoo_id)
    assert loaded.geometry == checkpoint.geometry
    assert config_signature(loaded.config) == \
        config_signature(checkpoint.config)
    assert loaded.prior_kind == checkpoint.prior_kind
    assert loaded.metadata == checkpoint.metadata
    assert json.dumps(loaded.spec, sort_keys=True) == \
        json.dumps(checkpoint.spec, sort_keys=True)
    assert sorted(loaded.state) == sorted(checkpoint.state)
    for name in checkpoint.state:
        np.testing.assert_array_equal(loaded.state[name],
                                      checkpoint.state[name])


def test_zoo_unknown_id(tmp_path):
    with pytest.raises(SerializationError, match="unknown"):
        PriorZoo(str(tmp_path)).get("nope")


def test_zoo_is_one_archive_per_checkpoint(tmp_path):
    zoo = PriorZoo(str(tmp_path))
    first = zoo.put(make_checkpoint())
    second = zoo.put(make_checkpoint(config=make_config(learning_rate=1e-2)))
    assert sorted(os.listdir(tmp_path)) == sorted(
        [first + ".npz", second + ".npz"])


def _edit_sidecar(archive, edit):
    """Rewrite the sidecar JSON a zoo archive embeds, keeping its hash."""
    arrays = load_arrays(archive)
    sidecar = json.loads(arrays[_SIDECAR_ENTRY].tobytes())
    edit(sidecar)
    arrays[_SIDECAR_ENTRY] = np.frombuffer(json.dumps(sidecar).encode(),
                                           dtype=np.uint8)
    save_arrays(arrays, archive)


def test_zoo_unreadable_archive_fails_integrity(tmp_path):
    zoo_id = PriorZoo(str(tmp_path)).put(make_checkpoint())
    (tmp_path / f"{zoo_id}.npz").write_text("{ not an archive")
    zoo = PriorZoo(str(tmp_path))
    with pytest.raises(SerializationError, match="integrity"):
        zoo.get(zoo_id)
    assert len(zoo.verify()) == 1


def test_zoo_sidecar_bad_version(tmp_path):
    zoo_id = PriorZoo(str(tmp_path)).put(make_checkpoint())
    _edit_sidecar(tmp_path / f"{zoo_id}.npz",
                  lambda sidecar: sidecar.update(format=999))
    with pytest.raises(SerializationError, match="format 999"):
        PriorZoo(str(tmp_path)).get(zoo_id)


def test_zoo_edited_sidecar_fails_integrity(tmp_path):
    zoo_id = PriorZoo(str(tmp_path)).put(make_checkpoint())
    _edit_sidecar(tmp_path / f"{zoo_id}.npz",
                  lambda sidecar: sidecar["metadata"].update(final_loss=0.0))
    with pytest.raises(SerializationError, match="integrity"):
        PriorZoo(str(tmp_path)).get(zoo_id)


def _write_format_1_zoo(root, checkpoint):
    """A zoo in format 1's layout: manifest, JSON sidecar, bare archive."""
    zoo_id = checkpoint.checkpoint_id()
    save_arrays(checkpoint.state, os.path.join(root, zoo_id + ".npz"))
    sidecar = {
        "format": 1, "id": zoo_id, "prior_kind": checkpoint.prior_kind,
        "geometry": checkpoint.geometry.to_dict(),
        "config": config_to_dict(checkpoint.config),
        "metadata": checkpoint.metadata.to_dict(), "spec": None,
    }
    with open(os.path.join(root, zoo_id + ".json"), "w") as handle:
        json.dump(sidecar, handle)
    with open(os.path.join(root, zoo_id + ".npz"), "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    entry = {"params": zoo_id + ".npz", "config": zoo_id + ".json",
             "sha256": digest}
    with open(os.path.join(root, "manifest.json"), "w") as handle:
        json.dump({"format": 1, "entries": {zoo_id: entry}}, handle)
    return zoo_id


def test_zoo_rejects_format_1(tmp_path):
    zoo_id = _write_format_1_zoo(str(tmp_path), make_checkpoint())
    with pytest.raises(SerializationError, match="zoo format 1"):
        PriorZoo(str(tmp_path)).get(zoo_id)
    with pytest.raises(SerializationError, match="zoo format 1"):
        FitCache(capacity=4, zoo=PriorZoo(str(tmp_path)))


def test_zoo_tampered_archive_fails_integrity(tmp_path):
    zoo = PriorZoo(str(tmp_path))
    zoo_id = zoo.put(make_checkpoint())
    archive = tmp_path / f"{zoo_id}.npz"
    data = bytearray(archive.read_bytes())
    data[len(data) // 2] ^= 0xFF
    archive.write_bytes(bytes(data))
    with pytest.raises(SerializationError, match="integrity"):
        PriorZoo(str(tmp_path)).get(zoo_id)


def test_zoo_missing_archive(tmp_path):
    zoo = PriorZoo(str(tmp_path))
    zoo_id = zoo.put(make_checkpoint())
    kept = zoo.put(make_checkpoint(config=make_config(learning_rate=1e-2)))
    (tmp_path / f"{zoo_id}.npz").unlink()
    with pytest.raises(SerializationError):
        zoo.get(zoo_id)
    reopened = PriorZoo(str(tmp_path))
    assert zoo_id not in reopened
    assert reopened.ids() == [kept]
    assert reopened.verify() == []


def test_zoo_write_through_warms_new_cache(tmp_path):
    checkpoint = make_checkpoint()
    FitCache(capacity=4, zoo=PriorZoo(str(tmp_path))).store(checkpoint)
    # A fresh cache (fresh process, in effect) preloads from disk.
    reloaded = FitCache(capacity=4, zoo=PriorZoo(str(tmp_path)))
    assert len(reloaded) == 1
    hit = reloaded.lookup(GEOMETRY, checkpoint.config)
    assert hit is not None
    np.testing.assert_array_equal(hit.state["net.weight"],
                                  checkpoint.state["net.weight"])


def test_corrupt_zoo_surfaces_on_cache_construction(tmp_path):
    zoo = PriorZoo(str(tmp_path))
    zoo_id = zoo.put(make_checkpoint())
    (tmp_path / f"{zoo_id}.npz").write_bytes(b"PK garbage")
    with pytest.raises(SerializationError):
        FitCache(capacity=4, zoo=PriorZoo(str(tmp_path)))


# --------------------------------------------------------------------- #
# shared_fit_cache
# --------------------------------------------------------------------- #
def test_shared_cache_identity(tmp_path):
    in_memory = shared_fit_cache()
    assert shared_fit_cache() is in_memory
    assert in_memory.zoo is None

    keyed = shared_fit_cache(str(tmp_path))
    assert keyed is not in_memory
    # Path spelling does not matter — abspath keys the registry.
    assert shared_fit_cache(str(tmp_path) + "/") is keyed
    assert keyed.zoo is not None

    clear_shared_fit_caches()
    assert shared_fit_cache() is not in_memory


# --------------------------------------------------------------------- #
# Multi-worker concurrency (the gateway worker tier shares one cache)
# --------------------------------------------------------------------- #
class TestConcurrentWorkers:
    N_THREADS = 8
    N_ROUNDS = 12

    def _hammer(self, cache, errors, counts, thread_id):
        try:
            for i in range(self.N_ROUNDS):
                config = make_config(iterations=20 + thread_id * 100 + i)
                cache.store(make_checkpoint(config=config,
                                            fill=float(thread_id)))
                counts["stores"] += 1
                cache.lookup(GEOMETRY, config)
                counts["lookups"] += 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def _run_tier(self, cache):
        errors = []
        counts = [{"stores": 0, "lookups": 0}
                  for _ in range(self.N_THREADS)]
        threads = [
            threading.Thread(target=self._hammer,
                             args=(cache, errors, counts[t], t))
            for t in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []
        return counts

    def test_counters_consistent_under_contention(self):
        cache = FitCache(capacity=2 * self.N_THREADS * self.N_ROUNDS)
        counts = self._run_tier(cache)
        stats = cache.stats()
        n_lookups = sum(c["lookups"] for c in counts)
        n_stores = sum(c["stores"] for c in counts)
        assert stats["stores"] == n_stores
        assert stats["hits"] + stats["near_hits"] + stats["misses"] == \
            n_lookups
        # Every thread looked up the key it just stored: with no
        # eviction pressure, nothing can be a miss (exact or near hit
        # depending on interleaving, but always *something*).
        assert stats["misses"] == 0
        assert stats["size"] == n_stores  # all keys distinct

    def test_zoo_survives_concurrent_write_through(self, tmp_path):
        cache = shared_fit_cache(str(tmp_path),
                                 capacity=2 * self.N_THREADS * self.N_ROUNDS)
        self._run_tier(cache)
        zoo = PriorZoo(str(tmp_path))
        assert zoo.verify() == []
        assert len(zoo.ids()) == self.N_THREADS * self.N_ROUNDS
        # A fresh cache (fresh process, in effect) can preload all of it.
        reloaded = FitCache(
            capacity=2 * self.N_THREADS * self.N_ROUNDS,
            zoo=PriorZoo(str(tmp_path)),
        )
        assert len(reloaded) == self.N_THREADS * self.N_ROUNDS

    def test_shared_cache_single_instance_under_race(self, tmp_path):
        barrier = threading.Barrier(self.N_THREADS)
        seen = []
        lock = threading.Lock()

        def grab():
            barrier.wait(timeout=30.0)
            cache = shared_fit_cache(str(tmp_path))
            with lock:
                seen.append(cache)

        threads = [threading.Thread(target=grab)
                   for _ in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(seen) == self.N_THREADS
        assert all(cache is seen[0] for cache in seen)


# --------------------------------------------------------------------- #
# Processes sharing one zoo (sharded workers, several gateways)
# --------------------------------------------------------------------- #
def _put_from_child(argv):
    """Body of a child process: ``root writer n_puts same_id kill_at``.

    Put ``i`` of writer ``w`` stores parameters filled with
    ``100 * w + i``, under one id shared by every writer when
    ``same_id`` is 1, else under an id of its own.  With ``kill_at = k``
    above 0 the process SIGKILLs itself in place of its k-th
    ``os.replace``.  Puts start once a line arrives on stdin, so
    concurrent writers overlap.
    """
    root, writer, n_puts, same_id, kill_at = argv[0], *map(int, argv[1:])
    if kill_at:
        calls = itertools.count(1)
        real_replace = os.replace

        def replace(src, dst):
            if next(calls) == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
            real_replace(src, dst)

        os.replace = replace
    zoo = PriorZoo(root)
    print("ready", flush=True)
    sys.stdin.readline()
    for i in range(n_puts):
        fill = 100 * writer + i
        config = make_config() if same_id else \
            make_config(iterations=20 + fill)
        zoo.put(make_checkpoint(config=config, fill=float(fill)))


def _run_children(root, argvs):
    """One child per argument list, released together; their exit codes."""
    paths = [os.path.dirname(__file__),
             os.path.dirname(os.path.dirname(repro.__file__))]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = "import sys, test_zoo; test_zoo._put_from_child(sys.argv[1:])"
    children = [
        subprocess.Popen(
            [sys.executable, "-c", code, str(root), *map(str, argv)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        for argv in argvs
    ]
    try:
        for child in children:
            assert child.stdout.readline() == "ready\n"
        for child in children:
            child.stdin.write("go\n")
            child.stdin.flush()
        for child in children:
            child.communicate(timeout=120.0)
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    return [child.returncode for child in children]


class TestProcessesSharingAZoo:
    def test_two_instances_keep_each_others_puts(self, tmp_path):
        first, second = PriorZoo(str(tmp_path)), PriorZoo(str(tmp_path))
        a = first.put(make_checkpoint())
        b = second.put(
            make_checkpoint(config=make_config(learning_rate=1e-2)))
        assert PriorZoo(str(tmp_path)).ids() == sorted([a, b])

    def test_concurrent_processes_keep_every_put(self, tmp_path):
        codes = _run_children(tmp_path, [[w, 5, 0, 0] for w in range(4)])
        assert codes == [0] * 4
        zoo = PriorZoo(str(tmp_path))
        assert len(zoo.ids()) == 4 * 5
        assert zoo.verify() == []

    def test_concurrent_puts_of_one_id_leave_one_writers_state(
            self, tmp_path):
        codes = _run_children(tmp_path, [[w, 20, 1, 0] for w in range(3)])
        assert codes == [0] * 3
        zoo = PriorZoo(str(tmp_path))
        assert zoo.ids() == [make_checkpoint().checkpoint_id()]
        assert zoo.verify() == []
        state = zoo.get(zoo.ids()[0]).state
        fill = float(state["net.weight"][0, 0])
        assert fill in {100.0 * w + i for w in range(3) for i in range(20)}
        expected = make_checkpoint(fill=fill).state
        assert sorted(state) == sorted(expected)
        for name, value in expected.items():
            assert state[name].dtype == value.dtype
            assert state[name].tobytes() == value.tobytes()

    def test_kill_mid_put_leaves_no_torn_entry(self, tmp_path):
        killed = 0
        for kill_at in range(1, 10):
            root = tmp_path / f"kill-at-{kill_at}"
            seeded = PriorZoo(str(root)).put(
                make_checkpoint(config=make_config(learning_rate=1e-2)))
            (code,) = _run_children(root, [[0, 1, 0, kill_at]])
            if code == 0:  # the put needs fewer than kill_at replaces
                break
            assert code == -signal.SIGKILL
            killed += 1
            zoo = PriorZoo(str(root))
            assert zoo.ids() == [seeded]
            assert zoo.verify() == []
            assert glob.glob(str(root / "*.tmp"))  # the write it cut off
        else:
            pytest.fail("every put was killed")
        assert killed >= 1

    def test_sharded_service_workers_share_one_zoo(self, tmp_path):
        from repro.pipeline import SeparationRecord
        from repro.service import DHFSpec, SeparationService
        from repro.synth import make_mixture

        records = []
        for seconds in (20.0, 30.0):
            mixture = make_mixture("msig1", duration_s=seconds)
            records.append(SeparationRecord(
                mixed=mixture.mixed, sampling_hz=mixture.sampling_hz,
                f0_tracks=mixture.f0_tracks, name=f"msig1-{seconds:g}s",
            ))
        spec = DHFSpec.from_preset("smoke", iterations=3, warm_start=True,
                                   zoo_path=str(tmp_path))
        with SeparationService(spec, workers=2) as service:
            service.separate_batch(records)
        # Two records of different lengths, two DHF rounds each.
        zoo = PriorZoo(str(tmp_path))
        assert len(zoo.ids()) == 4
        assert zoo.verify() == []
        assert len(FitCache(capacity=8, zoo=zoo)) == 4
