"""Tests for the sharded multi-process execution engine.

Covers shard planning (rate/length/geometry keys), the shared-memory
block transport, the :class:`repro.pipeline.ShardedExecutor` lifecycle
(worker death → structured :class:`repro.errors.WorkerPoolError`, pool
recovery, close-hardening, one lazy pool under concurrent first calls),
preservation of the ``separate_batch`` hook on every fan-out path,
serial/process equivalence for every registered separator, the service
facade's persistent engine and its one scoring loop on both branches,
and the one-serialization-per-worker guarantee (counting
``__reduce__``).
"""

import collections
import ctypes
import glob
import os
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.baselines import SpectralMaskingSeparator
from repro.errors import ConfigurationError, WorkerPoolError
from repro.pipeline import (
    SeparationRecord,
    Shard,
    ShardedExecutor,
    ShmBlock,
    plan_shards,
    records_from_arrays,
    shard_key,
)
from repro.separation import Separator
from repro.service import (
    DHFSpec,
    SeparationService,
    available_separators,
    build_separator,
    default_spec,
)
from repro.synth import make_mixture

FS = 100.0

#: Record length that makes :class:`DyingSeparator` kill its worker.
DEATH_SAMPLES = 123


# --------------------------------------------------------------------- #
# Module-level toy separators (picklable by construction)
# --------------------------------------------------------------------- #
class RateScaleSeparator(Separator):
    """Estimate of source k is ``mixed * sampling_hz / (k + 1)``.

    Rate-dependent on purpose: a fan-out path that mixes sampling rates
    inside one ``separate_batch`` call produces visibly wrong numbers.
    """

    name = "rate-scale"

    def separate(self, mixed, sampling_hz, f0_tracks):
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        return {
            name: mixed * float(sampling_hz) / (k + 1.0)
            for k, name in enumerate(f0_tracks)
        }


class BatchStampSeparator(Separator):
    """Every estimate is constant ``len(batch)`` — exposes shard sizes.

    If a fan-out path degrades to per-record ``separate`` calls the
    stamps all read 1; shards of size n stamp n.
    """

    name = "batch-stamp"

    def separate(self, mixed, sampling_hz, f0_tracks):
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        return {name: np.full(mixed.size, 1.0) for name in f0_tracks}

    def separate_batch(self, mixed_list, sampling_hz, f0_tracks_list):
        n = float(len(mixed_list))
        return [
            {name: np.full(np.asarray(m).size, n) for name in tracks}
            for m, tracks in zip(mixed_list, f0_tracks_list)
        ]


class DyingSeparator(Separator):
    """Kills its own worker process on records of ``DEATH_SAMPLES``."""

    name = "dying"

    def separate(self, mixed, sampling_hz, f0_tracks):
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        if mixed.size == DEATH_SAMPLES:
            os._exit(1)
        return {name: np.array(mixed) for name in f0_tracks}


def _blas_threads():
    """This process's OpenBLAS thread count (numpy's bundled copy), or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            get_threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        return get_threads()
    return None


class BlasThreadsSeparator(Separator):
    """Every estimate is the worker's OpenBLAS thread count."""

    name = "blas-threads"

    def separate(self, mixed, sampling_hz, f0_tracks):
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        threads = float(_blas_threads())
        return {name: np.full(mixed.size, threads) for name in f0_tracks}


class CountingMasking(SpectralMaskingSeparator):
    """Masking separator that counts parent-side pickling events."""

    reduce_calls = 0

    def __reduce__(self):
        type(self).reduce_calls += 1
        return super().__reduce__()


class UnpicklableSeparator(Separator):
    """No pickle support — the engine must reject it."""

    name = "unpicklable"

    def __init__(self):
        self._trap = lambda x: x  # lambdas don't pickle

    def separate(self, mixed, sampling_hz, f0_tracks):
        return {name: np.asarray(mixed, float) for name in f0_tracks}


def _records(n, n_samples=200, rate=FS, sources=("a", "b"), seed=0):
    rng = np.random.default_rng(seed)
    return records_from_arrays(
        [rng.standard_normal(n_samples) for _ in range(n)],
        rate,
        {name: np.full(n_samples, 1.0 + k) for k, name in enumerate(sources)},
    )


# --------------------------------------------------------------------- #
# Shard planning
# --------------------------------------------------------------------- #
class TestShardPlanning:
    def test_key_holds_rate_and_length(self):
        sep = RateScaleSeparator()
        (r1,), (r2,), (r3,) = _records(1), _records(1, rate=50.0), \
            _records(1, n_samples=300)
        assert shard_key(sep, r1) == (FS, 200)
        assert shard_key(sep, r2) == (50.0, 200)
        assert shard_key(sep, r3) == (FS, 300)

    def test_key_includes_stft_geometry(self):
        sep = SpectralMaskingSeparator()
        (rec,) = _records(1, n_samples=400)
        key = shard_key(sep, rec)
        assert key[:2] == (FS, 400)
        assert key[2:] == tuple(
            int(v) for v in sep.stft_geometry(FS, 400)
        )

    def test_single_worker_one_shard_per_key(self):
        sep = RateScaleSeparator()
        records = _records(4) + _records(2, rate=50.0)
        shards = plan_shards(sep, records, max_workers=1)
        assert [s.indices for s in shards] == [(0, 1, 2, 3), (4, 5)]

    def test_splitting_covers_every_index_once(self):
        sep = RateScaleSeparator()
        records = _records(7) + _records(3, rate=50.0)
        shards = plan_shards(sep, records, max_workers=4)
        seen = [i for s in shards for i in s.indices]
        assert sorted(seen) == list(range(10))
        assert all(len(s) >= 1 for s in shards)
        # no shard mixes keys
        for shard in shards:
            assert len({shard_key(sep, records[i]) for i in shard.indices}) == 1

    def test_homogeneous_batch_splits_across_workers(self):
        sep = RateScaleSeparator()
        shards = plan_shards(sep, _records(8), max_workers=4)
        assert len(shards) == 4
        assert sorted(len(s) for s in shards) == [2, 2, 2, 2]

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            plan_shards(RateScaleSeparator(), _records(2), max_workers=0)


# --------------------------------------------------------------------- #
# Shared-memory transport
# --------------------------------------------------------------------- #
class TestShmBlock:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        arrays = [
            rng.standard_normal(17),
            rng.standard_normal((3, 5)),
            np.arange(4, dtype=np.int64),
        ]
        block = ShmBlock.pack(arrays)
        try:
            other = ShmBlock.attach(block.handle())
            out = other.arrays()
            other.close()
            for a, b in zip(arrays, out):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
        finally:
            block.release()

    def test_handle_is_picklable_and_small(self):
        block = ShmBlock.pack([np.zeros(1000)])
        try:
            payload = pickle.dumps(block.handle())
            assert len(payload) < 500  # metadata only, never the array
        finally:
            block.release()

    def test_arrays_are_copies(self):
        block = ShmBlock.pack([np.ones(8)])
        try:
            (out,) = block.arrays()
            block.close()  # safe: `out` does not alias the segment
            out += 1.0
            np.testing.assert_array_equal(out, np.full(8, 2.0))
        finally:
            block.release()

    def test_empty_pack_and_idempotent_release(self):
        block = ShmBlock.pack([])
        assert block.arrays() == []
        block.release()
        block.release()  # idempotent


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #
class TestShardedExecutor:
    def test_matches_serial(self):
        records = _records(5)
        sep = RateScaleSeparator()
        serial = sep.separate_batch(
            [r.mixed for r in records], FS, [r.f0_tracks for r in records]
        )
        with ShardedExecutor(sep, workers=2) as engine:
            fanned = engine.separate_records(records)
        for a, b in zip(serial, fanned):
            for source in a:
                np.testing.assert_allclose(a[source], b[source], atol=1e-12)

    def test_empty_batch(self):
        with ShardedExecutor(RateScaleSeparator(), workers=2) as engine:
            assert engine.separate_records([]) == []

    def test_batch_hook_survives_fanout(self):
        # 4 same-key records over 2 workers → two shards of 2, so the
        # batch hook must see (and stamp) groups, never single records.
        with ShardedExecutor(BatchStampSeparator(), workers=2) as engine:
            out = engine.separate_records(_records(4))
        stamps = sorted(float(est["a"][0]) for est in out)
        assert stamps == [2.0, 2.0, 2.0, 2.0]

    def test_mixed_rates_sharded_per_rate(self):
        records = _records(3, seed=1) + _records(2, rate=50.0, seed=2)
        sep = RateScaleSeparator()
        expected = [
            sep.separate(r.mixed, r.sampling_hz, r.f0_tracks)
            for r in records
        ]
        with ShardedExecutor(sep, workers=2) as engine:
            out = engine.separate_records(records)
        for a, b in zip(expected, out):
            for source in a:
                np.testing.assert_allclose(a[source], b[source], atol=1e-12)

    def test_workers_pin_blas_threads(self):
        parent_threads = _blas_threads()
        if parent_threads is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        usable = len(os.sched_getaffinity(0))
        with ShardedExecutor(BlasThreadsSeparator(), workers=2) as engine:
            out = engine.separate_records(_records(4))
        assert {float(est["a"][0]) for est in out} == {max(1, usable // 2)}
        assert _blas_threads() == parent_threads  # the parent is untouched

    def test_worker_death_is_structured_and_recoverable(self):
        bad = _records(2, n_samples=DEATH_SAMPLES)
        good = _records(3)
        with ShardedExecutor(DyingSeparator(), workers=2) as engine:
            with pytest.raises(WorkerPoolError):
                engine.separate_records(bad)
            # the broken pool was discarded; the next call must succeed
            out = engine.separate_records(good)
            assert len(out) == 3
            for record, est in zip(good, out):
                np.testing.assert_array_equal(est["a"], record.mixed)

    def test_concurrent_first_calls_build_one_pool(self, monkeypatch):
        # Threads race into a fresh engine's first call, as a gateway's
        # job threads do on a shared service: exactly one pool, and no
        # worker forked while another thread held a lock it needs.
        import repro.pipeline.shard as shard

        built = []

        class CountingPool(shard.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(shard, "ProcessPoolExecutor", CountingPool)
        records = _records(4)
        sep = RateScaleSeparator()
        serial = sep.separate_batch(
            [r.mixed for r in records], FS, [r.f0_tracks for r in records]
        )
        n_threads = 3  # more callers than this 2-worker pool has workers
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(12):
                built.clear()
                engine = ShardedExecutor(sep, workers=2)
                barrier = threading.Barrier(n_threads)
                outputs = [None] * n_threads

                def call(slot):
                    barrier.wait()
                    outputs[slot] = engine.separate_records(records)

                threads = [
                    threading.Thread(target=call, args=(slot,), daemon=True)
                    for slot in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                hung = any(thread.is_alive() for thread in threads)
                if hung:  # kill wedged workers, or the session hangs at exit
                    for pool in built:
                        for process in list(pool._processes.values()):
                            process.kill()
                        pool.shutdown(wait=False, cancel_futures=True)
                else:
                    engine.close()
                assert not hung, f"trial {trial}: a first call hung"
                assert len(built) == 1, f"trial {trial}: {len(built)} pools"
                for fanned in outputs:
                    for a, b in zip(serial, fanned):
                        for source in a:
                            np.testing.assert_array_equal(a[source], b[source])
        finally:
            sys.setswitchinterval(interval)

    def test_close_hardening(self):
        engine = ShardedExecutor(RateScaleSeparator(), workers=2)
        engine.separate_records(_records(2))
        engine.close()
        engine.close()  # idempotent
        assert engine.closed
        with pytest.raises(RuntimeError):
            engine.separate_records(_records(2))

    def test_unpicklable_separator_rejected_early(self):
        with pytest.raises(ConfigurationError):
            ShardedExecutor(UnpicklableSeparator(), workers=2)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            ShardedExecutor(object(), workers=2)
        with pytest.raises(ConfigurationError):
            ShardedExecutor(RateScaleSeparator(), workers=0)

    def test_separator_pickled_exactly_once(self):
        CountingMasking.reduce_calls = 0
        sep = CountingMasking()
        with ShardedExecutor(sep, workers=2) as engine:
            assert CountingMasking.reduce_calls == 1  # at construction
            engine.separate_records(_mixture_records(4))
            engine.separate_records(_mixture_records(3))
        # never again — not per record, not per shard, not per call
        assert CountingMasking.reduce_calls == 1


# --------------------------------------------------------------------- #
# Service fan-out paths
# --------------------------------------------------------------------- #
def _mixture_records(n, duration_s=4.0, rate=None, seed=0):
    kwargs = {} if rate is None else {"sampling_hz": rate}
    mixture = make_mixture("msig1", duration_s=duration_s, seed=seed,
                           **kwargs)
    return records_from_arrays(
        [mixture.mixed * (1.0 + 0.01 * i) for i in range(n)],
        mixture.sampling_hz, mixture.f0_tracks,
    )


def _batch(separator, records, **service_kwargs):
    """A record set through one service's ``separate_batch``."""
    with SeparationService(separator, **service_kwargs) as service:
        return service.separate_batch(records).batch


class TestPipelineSharding:
    def test_batch_hook_used_on_fanout(self):
        batch = _batch(BatchStampSeparator(), _records(4), workers=2)
        stamps = sorted(float(r.estimates["a"][0]) for r in batch.results)
        assert stamps == [2.0, 2.0, 2.0, 2.0]

    def test_mixed_rates_on_fanout(self):
        records = _records(3, seed=1) + _records(2, rate=50.0, seed=2)
        sep = RateScaleSeparator()
        serial = _batch(sep, records)
        fanned = _batch(sep, records, workers=2)
        for a, b in zip(serial.results, fanned.results):
            for source in a.estimates:
                np.testing.assert_allclose(
                    a.estimates[source], b.estimates[source], atol=1e-12
                )

    def test_mixed_rate_shards_stamp_per_rate_group(self):
        # 3 records at FS + 2 at 50 Hz on one worker-pair: the stamps
        # must reflect per-rate groups (3 and 2), never one mixed
        # mega-batch of 5 and never per-record calls of 1.
        records = _records(3, seed=1) + _records(2, rate=50.0, seed=2)
        batch = _batch(BatchStampSeparator(), records, workers=2)
        stamps = [float(r.estimates["a"][0]) for r in batch.results]
        assert stamps == [3.0, 3.0, 3.0, 2.0, 2.0]


# --------------------------------------------------------------------- #
# Serial/process equivalence: every registry method
# --------------------------------------------------------------------- #
def _spec_for(name):
    if name == "dhf":
        return DHFSpec.from_preset("smoke", dtype="float64")
    return default_spec(name)


@pytest.mark.parametrize("method", available_separators())
def test_fanout_equivalence(method):
    """serial == process (service built from the separator or from its
    spec) within 1e-8."""
    spec = _spec_for(method)
    separator = build_separator(spec)
    records = _mixture_records(3, duration_s=4.0, seed=7)
    serial = _batch(separator, records)
    pickled = _batch(separator, records, workers=2)
    by_spec = _batch(spec, records, workers=2)
    for variant in (pickled, by_spec):
        for a, b in zip(serial.results, variant.results):
            for source in a.estimates:
                np.testing.assert_allclose(
                    a.estimates[source], b.estimates[source], atol=1e-8
                )


# --------------------------------------------------------------------- #
# Service facade integration
# --------------------------------------------------------------------- #
class TestServiceSharding:
    def test_persistent_engine_reused_across_calls(self):
        records = _mixture_records(4)
        with SeparationService("spectral-masking", workers=2) as service:
            engine = service._engine  # built with the service
            assert isinstance(engine, ShardedExecutor)
            assert engine._pool is None  # its pool starts on first use
            service.separate_batch(records)
            pool = engine._pool
            service.separate_batch(records)
            assert service._engine is engine and engine._pool is pool
        assert engine.closed

    def test_process_batch_matches_serial_service(self):
        records = _mixture_records(4)
        with SeparationService("spectral-masking") as serial_svc:
            serial = serial_svc.separate_batch(records)
        with SeparationService("spectral-masking", workers=2) as fan_svc:
            fanned = fan_svc.separate_batch(records)
        for a, b in zip(serial.batch.results, fanned.batch.results):
            for source in a.estimates:
                np.testing.assert_allclose(
                    a.estimates[source], b.estimates[source], atol=1e-8
                )

    def test_one_scoring_loop_on_both_branches(self):
        # The same postprocess and references on the engine branch
        # (workers=2) and the in-process branch (workers=0): estimates
        # agree to 1e-8, scores to approx, and the postprocess runs in
        # this process once per (record, source) on each.
        mixture = make_mixture("msig1", duration_s=4.0, seed=0)
        records = [
            SeparationRecord(
                mixed=mixture.mixed * (1.0 + 0.01 * i),
                sampling_hz=mixture.sampling_hz,
                f0_tracks=mixture.f0_tracks, name=f"mix{i}",
                references=mixture.sources,
            )
            for i in range(3)
        ]
        batches = {}
        for workers in (0, 2):
            calls = collections.Counter()

            def halve(estimate, record):
                calls[(record.name, os.getpid())] += 1
                return 0.5 * estimate

            batches[workers] = _batch(
                "spectral-masking", records, workers=workers,
                postprocess=halve,
            )
            assert calls == {
                (r.name, os.getpid()): len(r.f0_tracks) for r in records
            }
        for a, b in zip(batches[0].results, batches[2].results):
            assert a.name == b.name
            assert set(b.scores) == set(a.scores) == set(a.estimates)
            for source in a.estimates:
                np.testing.assert_allclose(
                    a.estimates[source], b.estimates[source], atol=1e-8
                )
                assert b.scores[source] == pytest.approx(a.scores[source])

    def test_executor_keyword_accepts_only_process(self):
        with SeparationService(
            "spectral-masking", workers=2, executor="process"
        ) as service:
            assert isinstance(service._engine, ShardedExecutor)
        for executor in ("thread", "fork"):
            with pytest.raises(ConfigurationError, match="process shards"):
                SeparationService("spectral-masking", executor=executor)

    def test_unpicklable_separator_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="not picklable"):
            SeparationService(UnpicklableSeparator(), workers=2)
        SeparationService(UnpicklableSeparator()).close()  # serial is fine

    def test_closed_service_closes_engine(self):
        service = SeparationService("spectral-masking", workers=2)
        service.separate_batch(_mixture_records(2))
        engine = service._engine
        service.close()
        assert engine.closed and service._engine is None
        with pytest.raises(RuntimeError):
            service.separate_batch(_mixture_records(2))
