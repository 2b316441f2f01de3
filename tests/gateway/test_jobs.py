"""Job registry lifecycle: states, artefacts, cancellation, expiry."""

import json
import threading
import time

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.gateway import (
    JOB_STATES,
    ArtifactStore,
    GatewayConfig,
    JobConflict,
    JobQueueFull,
    JobRegistry,
    TERMINAL_STATES,
    UnknownJob,
    array_from_wire,
)
from repro.pipeline.batch import SeparationRecord
from repro.pipeline.shard import ShardedExecutor
from repro.service import SeparationService, resolve_spec


def make_record(n=200, seed=0, name=""):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 100.0
    a = np.sin(2 * np.pi * 1.2 * t)
    b = 0.5 * np.sin(2 * np.pi * 2.1 * t + 1.0)
    return SeparationRecord(
        mixed=a + b + 0.01 * rng.standard_normal(n),
        sampling_hz=100.0,
        f0_tracks={"a": np.full(n, 1.2), "b": np.full(n, 2.1)},
        name=name or f"rec{seed}",
        references={"a": a, "b": b},
    )


@pytest.fixture()
def registry(tmp_path):
    config = GatewayConfig(
        workers=2, queue_depth=8, artifact_root=str(tmp_path / "store"),
        artifact_ttl_s=3600.0,
    )
    reg = JobRegistry(config, ArtifactStore(config.artifact_root))
    yield reg
    reg.close()


@pytest.fixture()
def stalled(tmp_path):
    """A one-worker registry whose worker is held on ``gate`` by a first
    job, so every later job stays queued until the gate is set."""
    config = GatewayConfig(
        workers=1, queue_depth=8, artifact_root=str(tmp_path / "store"),
    )
    registry = JobRegistry(config, ArtifactStore(config.artifact_root))
    gate = threading.Event()
    execute = registry._execute

    def gated_execute(job_id):
        gate.wait(timeout=10.0)
        execute(job_id)

    registry._execute = gated_execute
    blocker = SeparationRecord(
        mixed=np.ones(8), sampling_hz=100.0,
        f0_tracks={"a": np.full(8, 1.0)},
    )
    registry.submit(SPEC, "separate", [blocker])
    yield registry, gate
    gate.set()
    registry.close()


def slow_terminal_writes(monkeypatch, registry, delay_s=0.3):
    """Delay every terminal ``job.json`` write by ``delay_s``."""
    write_job = registry.store.write_job

    def slow_write(job_id, payload):
        if payload["state"] in TERMINAL_STATES:
            time.sleep(delay_s)
        return write_job(job_id, payload)

    monkeypatch.setattr(registry.store, "write_job", slow_write)


def first_terminal_read(registry, job_id, timeout_s=30.0):
    """Poll the registry as ``GET /jobs/<id>`` does until the job is
    terminal; return that state and the one ``job.json`` holds then."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        state = registry.get(job_id).state
        if state in TERMINAL_STATES:
            return state, registry.store.read_job(job_id)["state"]
        time.sleep(0.001)
    raise AssertionError(f"job {job_id} never became terminal")


SPEC = resolve_spec("spectral-masking")


class TestLifecycle:
    def test_submit_to_done(self, registry):
        job = registry.submit(SPEC, "separate_batch",
                              [make_record(seed=i) for i in range(3)])
        assert job.state == "queued"
        assert registry.drain(timeout_s=30.0)
        assert job.state == "done"
        assert job.started_at is not None
        assert job.finished_at >= job.started_at
        assert len(job.record_summaries) == 3
        for summary in job.record_summaries:
            assert set(summary["scores"]) == {"a", "b"}

    def test_job_ids_monotonic(self, registry):
        ids = [
            registry.submit(SPEC, "separate", [make_record(seed=i)]).job_id
            for i in range(3)
        ]
        assert ids == sorted(ids)
        assert ids[0] != ids[1] != ids[2]
        assert all(i.startswith("job-") for i in ids)

    def test_all_states_documented(self):
        assert JOB_STATES == (
            "queued", "running", "done", "error", "cancelled", "expired"
        )

    def test_record_persisted_and_restorable(self, registry):
        job = registry.submit(SPEC, "separate", [make_record()])
        assert registry.drain(timeout_s=30.0)
        stored = registry.store.read_job(job.job_id)
        assert stored["state"] == "done"
        # The persisted spec is byte-equal to the submitted one.
        assert json.dumps(stored["spec"], sort_keys=True) == \
            json.dumps(SPEC.to_dict(), sort_keys=True)

    def test_estimates_bitwise_equal_offline(self, registry):
        record = make_record(seed=5)
        job = registry.submit(SPEC, "separate", [record])
        assert registry.drain(timeout_s=30.0)
        result = registry.result(job.job_id)
        with SeparationService(SPEC) as service:
            local = service.separate(record)
        for source in ("a", "b"):
            assert np.array_equal(
                array_from_wire(result["records"][0]["estimates"][source],
                                source),
                local.estimates[source],
            )

    def test_drain_waits_for_the_terminal_record(self, registry,
                                                 monkeypatch):
        slow_terminal_writes(monkeypatch, registry, delay_s=0.2)
        job = registry.submit(SPEC, "separate", [make_record()])
        assert registry.drain(timeout_s=30.0)
        assert registry.store.read_job(job.job_id)["state"] == "done"

    def test_first_done_read_finds_done_on_disk(self, registry, monkeypatch):
        slow_terminal_writes(monkeypatch, registry)
        job = registry.submit(SPEC, "separate", [make_record()])
        assert first_terminal_read(registry, job.job_id) == ("done", "done")

    def test_failed_terminal_write_still_ends_terminal(self, registry,
                                                       monkeypatch):
        write_job = registry.store.write_job

        def failing_write(job_id, payload):
            if payload["state"] == "done":
                raise OSError("disk full")
            return write_job(job_id, payload)

        monkeypatch.setattr(registry.store, "write_job", failing_write)
        job = registry.submit(SPEC, "separate", [make_record()])
        assert registry.drain(timeout_s=30.0)
        assert job.state == "done"
        assert registry.store.read_job(job.job_id)["state"] == "running"

    def test_result_before_done_conflicts(self, registry):
        job = registry.submit(SPEC, "separate", [make_record()])
        registry.drain(timeout_s=30.0)
        registry.get(job.job_id).state = "error"  # simulate failure
        with pytest.raises(JobConflict, match="not 'done'"):
            registry.result(job.job_id)

    def test_failing_job_lands_in_error(self, registry):
        # An f0 track shorter than the mixture → separator raises.  The
        # record rejects one at construction, so swap it in afterwards.
        bad = SeparationRecord(
            mixed=np.ones(200), sampling_hz=100.0,
            f0_tracks={"a": np.full(200, 1.0)},
        )
        bad.f0_tracks = {"a": np.full(50, 1.0)}
        job = registry.submit(SPEC, "separate", [bad])
        assert registry.drain(timeout_s=30.0)
        assert job.state == "error"
        assert job.error is not None and job.error["message"]
        stored = registry.store.read_job(job.job_id)
        assert stored["state"] == "error"

    def test_unknown_job_raises(self, registry):
        with pytest.raises(UnknownJob):
            registry.get("job-424242")


class TestRestart:
    def test_restart_numbers_jobs_past_its_predecessor(self, tmp_path):
        config = GatewayConfig(
            workers=1, queue_depth=8, artifact_root=str(tmp_path / "store"),
        )
        first = JobRegistry(config, ArtifactStore(config.artifact_root))
        try:
            old = first.submit(SPEC, "separate_batch",
                               [make_record(seed=i) for i in range(2)])
            assert first.drain(timeout_s=30.0)
        finally:
            first.close()
        job_dir = tmp_path / "store" / old.job_id
        before = {path.name: path.read_bytes()
                  for path in job_dir.iterdir()}
        assert set(before) == {"job.json", "estimates_0.npz",
                               "estimates_1.npz"}

        second = JobRegistry(config, ArtifactStore(config.artifact_root))
        try:
            new = second.submit(SPEC, "separate", [make_record(seed=9)])
            assert second.drain(timeout_s=30.0)
        finally:
            second.close()
        assert new.job_id != old.job_id
        assert {path.name: path.read_bytes()
                for path in job_dir.iterdir()} == before


class TestCancellation:
    def test_cancel_queued(self, stalled):
        registry, gate = stalled
        victim = registry.submit(SPEC, "separate", [make_record()])
        cancelled = registry.cancel(victim.job_id)
        gate.set()
        assert cancelled.state == "cancelled"
        assert registry.drain(timeout_s=30.0)
        assert registry.get(victim.job_id).state == "cancelled"
        assert registry.store.read_job(victim.job_id)["state"] == \
            "cancelled"

    def test_queued_dhf_spec_kept_as_submitted(self, stalled):
        registry, gate = stalled
        spec = resolve_spec({"method": "dhf", "early_stop_patience": 5})
        job = registry.submit(spec, "separate", [make_record()])
        assert job.spec == spec
        assert registry.store.read_job(job.job_id)["spec"] == spec.to_dict()
        registry.cancel(job.job_id)
        gate.set()
        assert registry.drain(timeout_s=30.0)

    def test_first_cancelled_read_finds_cancelled_on_disk(self, stalled,
                                                          monkeypatch):
        registry, _ = stalled
        victim = registry.submit(SPEC, "separate", [make_record()])
        slow_terminal_writes(monkeypatch, registry)
        canceller = threading.Thread(
            target=registry.cancel, args=(victim.job_id,), daemon=True,
        )
        canceller.start()
        seen = first_terminal_read(registry, victim.job_id)
        canceller.join(timeout=10.0)
        assert not canceller.is_alive()
        assert seen == ("cancelled", "cancelled")

    def test_cancel_terminal_conflicts(self, registry):
        job = registry.submit(SPEC, "separate", [make_record()])
        assert registry.drain(timeout_s=30.0)
        with pytest.raises(JobConflict, match="only queued"):
            registry.cancel(job.job_id)


class TestQueueBounds:
    def test_queue_full_raises(self, tmp_path):
        config = GatewayConfig(
            workers=1, queue_depth=2,
            artifact_root=str(tmp_path / "store"),
        )
        registry = JobRegistry(config, ArtifactStore(config.artifact_root))
        gate = threading.Event()
        original = registry._execute
        registry._execute = lambda job_id: (gate.wait(timeout=10.0),
                                            original(job_id))
        try:
            # One in-flight + queue_depth queued, then the bound trips.
            submitted = 0
            with pytest.raises(JobQueueFull, match="full"):
                for i in range(8):
                    registry.submit(SPEC, "separate", [make_record(seed=i)])
                    submitted += 1
            assert submitted >= config.queue_depth
            gate.set()
            assert registry.drain(timeout_s=30.0)
        finally:
            gate.set()
            registry.close()


class TestExpiry:
    def test_ttl_reaps_terminal_jobs(self, tmp_path):
        config = GatewayConfig(
            workers=1, queue_depth=8, artifact_ttl_s=10.0,
            artifact_root=str(tmp_path / "store"),
        )
        registry = JobRegistry(config, ArtifactStore(config.artifact_root))
        try:
            job = registry.submit(SPEC, "separate", [make_record()])
            assert registry.drain(timeout_s=30.0)
            assert registry.expire_artifacts(now=time.time()) == []
            reaped = registry.expire_artifacts(now=time.time() + 60.0)
            assert reaped == [job.job_id]
            assert registry.get(job.job_id).state == "expired"
            with pytest.raises(SerializationError):
                registry.store.read_job(job.job_id)
            # Idempotent: a second sweep finds nothing.
            assert registry.expire_artifacts(now=time.time() + 120.0) == []
        finally:
            registry.close()

    def test_queued_and_running_never_expire(self, tmp_path):
        config = GatewayConfig(
            workers=1, queue_depth=8, artifact_ttl_s=0.001,
            artifact_root=str(tmp_path / "store"),
        )
        registry = JobRegistry(config, ArtifactStore(config.artifact_root))
        gate = threading.Event()
        original = registry._execute
        registry._execute = lambda job_id: (gate.wait(timeout=10.0),
                                            original(job_id))
        try:
            job = registry.submit(SPEC, "separate", [make_record()])
            time.sleep(0.05)
            assert registry.expire_artifacts() == []
            assert registry.get(job.job_id).state in ("queued", "running")
            gate.set()
            assert registry.drain(timeout_s=30.0)
        finally:
            gate.set()
            registry.close()


class TestCallbacksIntegration:
    def test_terminal_job_fires_callback(self, tmp_path):
        log = []
        config = GatewayConfig(
            workers=1, queue_depth=8, callback_retries=2,
            callback_backoff_s=0.01,
            artifact_root=str(tmp_path / "store"),
        )
        registry = JobRegistry(
            config, ArtifactStore(config.artifact_root),
            transport=lambda url, payload, timeout_s: log.append(
                (url, payload)
            ),
        )
        try:
            job = registry.submit(
                SPEC, "separate", [make_record()],
                callback_url="http://cb.example/done",
            )
            assert registry.drain(timeout_s=30.0)
            assert registry.callbacks.drain(timeout_s=10.0)
            assert len(log) == 1
            url, payload = log[0]
            assert url == "http://cb.example/done"
            assert payload["job_id"] == job.job_id
            assert payload["state"] == "done"
            # Delivery outcome is stamped onto the job record.
            assert job.callback["delivered"] is True
            assert registry.store.read_job(job.job_id)["callback"][
                "delivered"] is True
        finally:
            registry.close()

    def test_dead_letter_recorded_on_job(self, tmp_path):
        def broken(url, payload, timeout_s):
            raise ConnectionError("endpoint gone")

        config = GatewayConfig(
            workers=1, queue_depth=8, callback_retries=2,
            callback_backoff_s=0.005,
            artifact_root=str(tmp_path / "store"),
        )
        registry = JobRegistry(
            config, ArtifactStore(config.artifact_root), transport=broken,
        )
        try:
            job = registry.submit(
                SPEC, "separate", [make_record()],
                callback_url="http://cb.example/gone",
            )
            assert registry.drain(timeout_s=30.0)
            assert registry.callbacks.drain(timeout_s=10.0)
            assert len(registry.callbacks.dead_letters) == 1
            assert job.callback["dead_lettered"] is True
            assert job.callback["attempts"] == 2
            assert job.state == "done"  # delivery failure ≠ job failure
        finally:
            registry.close()


class TestSharedServices:
    def test_one_service_per_distinct_spec(self, registry):
        for i in range(3):
            registry.submit(SPEC, "separate", [make_record(seed=i)])
        registry.submit(
            resolve_spec({"method": "spectral-masking",
                          "n_harmonics": 3}),
            "separate", [make_record(seed=9)],
        )
        assert registry.drain(timeout_s=30.0)
        assert len(registry._services) == 2

    def test_service_workers_build_shard_engines(self, tmp_path):
        config = GatewayConfig(
            workers=1, artifact_root=str(tmp_path / "store"),
            service_workers=2,
        )
        registry = JobRegistry(config, ArtifactStore(config.artifact_root))
        try:
            job = registry.submit(
                SPEC, "separate_batch",
                [make_record(seed=i) for i in range(4)],
            )
            assert registry.drain(timeout_s=60.0)
            assert job.state == "done"
            (service,) = registry._services.values()
            assert service.workers == 2
            assert isinstance(service._engine, ShardedExecutor)
        finally:
            registry.close()
