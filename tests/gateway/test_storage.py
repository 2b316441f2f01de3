"""ArtifactStore: atomic job records, npz estimates, deletion."""

import json
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.gateway import ArtifactStore, make_store


def _rewrite_job_and_die(store):
    """Child body: write a new record, but die just before the rename."""
    def die(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    os.replace = die
    store.write_job("job-000001", {"state": "done"})


class TestJobRecords:
    def test_write_read_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        payload = {"job_id": "job-000001", "state": "done", "n": 3}
        store.write_job("job-000001", payload)
        assert store.read_job("job-000001") == payload
        assert store.job_ids() == ["job-000001"]

    def test_overwrite_is_atomic_no_temp_left(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for i in range(5):
            store.write_job("job-000001", {"state": f"s{i}"})
        assert store.read_job("job-000001") == {"state": "s4"}
        leftovers = [
            name for name in os.listdir(store.job_dir("job-000001"))
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_missing_job_raises(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(SerializationError, match="no job record"):
            store.read_job("job-000009")

    def test_corrupt_job_raises(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.write_job("job-000001", {"ok": True})
        with open(store._job_file("job-000001"), "w") as handle:
            handle.write("{truncated")
        with pytest.raises(SerializationError, match="not a readable"):
            store.read_job("job-000001")

    def test_non_object_payload_raises(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        os.makedirs(store.job_dir("job-000001"), exist_ok=True)
        with open(store._job_file("job-000001"), "w") as handle:
            json.dump([1, 2], handle)
        with pytest.raises(SerializationError, match="JSON object"):
            store.read_job("job-000001")

    def test_failed_write_keeps_the_previous_record(self, tmp_path,
                                                    monkeypatch):
        store = ArtifactStore(str(tmp_path))
        store.write_job("job-000001", {"state": "queued"})

        def half_written(payload, handle, **kwargs):
            handle.write('{"state": "do')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", half_written)
        with pytest.raises(OSError):
            store.write_job("job-000001", {"state": "done"})
        monkeypatch.undo()
        assert store.read_job("job-000001") == {"state": "queued"}
        assert os.listdir(store.job_dir("job-000001")) == ["job.json"]

    def test_concurrent_writers_leave_one_complete_record(self, tmp_path):
        # The registry writes a job's record from its worker, from
        # cancel() and from callback delivery, possibly at once.
        store = ArtifactStore(str(tmp_path))
        payloads = [{"state": f"s{i}", "pad": "x" * 4096} for i in range(4)]
        start = threading.Barrier(len(payloads))

        def write(payload):
            start.wait()
            for _ in range(10):
                store.write_job("job-000001", payload)

        threads = [threading.Thread(target=write, args=(payload,))
                   for payload in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.read_job("job-000001") in payloads
        assert os.listdir(store.job_dir("job-000001")) == ["job.json"]

    def test_killed_writer_leaves_the_previous_record(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.write_job("job-000001", {"state": "queued"})
        child = multiprocessing.get_context("fork").Process(
            target=_rewrite_job_and_die, args=(store,),
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL
        assert store.read_job("job-000001") == {"state": "queued"}

    def test_job_ids_sorted_and_skip_directories_without_a_record(
        self, tmp_path,
    ):
        store = ArtifactStore(str(tmp_path))
        store.write_job("job-000002", {"state": "done"})
        store.write_job("job-000001", {"state": "done"})
        store.write_estimates("job-000003", 0, {"a": np.ones(2)})
        (tmp_path / "notes.txt").write_text("not a job")
        assert store.job_ids() == ["job-000001", "job-000002"]


class TestEstimates:
    def test_round_trip_bitwise(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        rng = np.random.default_rng(1)
        estimates = {"a": rng.standard_normal(64),
                     "b": rng.standard_normal(64)}
        store.write_estimates("job-000001", 0, estimates)
        back = store.read_estimates("job-000001", 0)
        assert set(back) == {"a", "b"}
        for source in estimates:
            assert np.array_equal(back[source], estimates[source])

    def test_records_are_kept_apart(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        first = {"a": np.zeros(8)}
        second = {"a": np.ones(8), "b": np.full(8, 2.0)}
        store.write_estimates("job-000001", 0, first)
        store.write_estimates("job-000001", 1, second)
        back = [store.read_estimates("job-000001", i) for i in (0, 1)]
        assert set(back[0]) == {"a"} and set(back[1]) == {"a", "b"}
        assert np.array_equal(back[0]["a"], first["a"])
        assert np.array_equal(back[1]["b"], second["b"])

    def test_missing_estimates_raise(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.write_estimates("job-000001", 0, {"a": np.ones(4)})
        with pytest.raises(SerializationError, match="not found"):
            store.read_estimates("job-000001", 1)

    def test_missing_estimates_name_an_archive(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(SerializationError,
                           match=r"^archive not found: .*estimates_0\.npz$"):
            store.read_estimates("job-000001", 0)

    def test_reopened_store_reads_its_predecessors_artefacts(self, tmp_path):
        first = ArtifactStore(str(tmp_path))
        first.write_job("job-000001", {"state": "done"})
        first.write_estimates("job-000001", 0, {"a": np.arange(4.0)})
        second = ArtifactStore(str(tmp_path))
        assert second.job_ids() == ["job-000001"]
        assert second.read_job("job-000001") == {"state": "done"}
        assert np.array_equal(
            second.read_estimates("job-000001", 0)["a"], np.arange(4.0)
        )


class TestDeletion:
    def test_delete_removes_everything(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.write_job("job-000001", {"state": "done"})
        store.write_estimates("job-000001", 0, {"a": np.ones(4)})
        assert store.delete("job-000001") is True
        assert store.job_ids() == []
        assert store.delete("job-000001") is False  # idempotent

    def test_deleted_job_reads_raise(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.write_job("job-000001", {"state": "done"})
        store.write_estimates("job-000001", 0, {"a": np.ones(4)})
        store.delete("job-000001")
        with pytest.raises(SerializationError, match="no job record"):
            store.read_job("job-000001")
        with pytest.raises(SerializationError, match="not found"):
            store.read_estimates("job-000001", 0)


def test_make_store_private_tmp_when_empty():
    store = make_store("")
    assert os.path.isdir(store.root)
    assert "repro-gateway-" in store.root


def test_make_store_uses_given_root(tmp_path):
    root = str(tmp_path / "artefacts")
    assert make_store(root).root == os.path.abspath(root)
