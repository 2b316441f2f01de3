"""The gateway's job registry: submit → queued → running → terminal.

One :class:`JobRegistry` owns the whole batch-job lifecycle:

* **submission** mints a monotonic job id (``job-000001``, …, numbered
  past every job already in the store, so a registry restarted over an
  existing root never reuses an id), persists
  the ``queued`` record through the :class:`~repro.gateway.storage.ArtifactStore`,
  and enqueues it on a bounded ``queue.Queue`` — a full queue raises
  :class:`JobQueueFull` (HTTP 429), never blocks the HTTP thread;
* **execution** happens on a configurable tier of worker threads, each
  draining the queue and running the job's mode (``separate`` /
  ``separate_batch``) on a :class:`repro.service.SeparationService`.
  Services are built once per distinct spec and shared across workers
  and jobs;
* **completion** persists per-record scores into ``job.json`` and the
  estimate arrays into ``estimates_<i>.npz`` (both atomic), then hands
  the terminal record to the :class:`~repro.gateway.callbacks.CallbackClient`
  when the job carried a ``callback_url``;
* **cancellation** flips *queued* jobs to ``cancelled``; cancelling a
  running job raises :class:`JobConflict` (HTTP 409) — workers are never
  interrupted mid-separation;
* **expiry** (:meth:`JobRegistry.expire_artifacts`, driven by the
  gateway's housekeeping sweep) deletes terminal jobs' artefacts after
  ``artifact_ttl_s`` and re-marks them ``expired``.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.gateway.callbacks import (
    CallbackClient,
    CallbackDelivery,
    Transport,
)
from repro.gateway.config import GatewayConfig
from repro.gateway.storage import ArtifactStore
from repro.gateway.wire import (
    JOB_MODES,
    array_to_wire,
    record_result_to_wire,
)
from repro.pipeline.batch import RecordResult, SeparationRecord
from repro.service.facade import SeparationService
from repro.service.specs import SeparatorSpec
from repro.utils.logging import get_logger

_LOG = get_logger("gateway.jobs")

#: Every state a job can report, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "error", "cancelled", "expired")

#: States a job never leaves (``expired`` is terminal-after-terminal).
TERMINAL_STATES = frozenset({"done", "error", "cancelled", "expired"})


class JobQueueFull(RuntimeError):
    """The bounded job queue is at ``queue_depth`` (HTTP 429)."""


class JobConflict(RuntimeError):
    """The requested transition is invalid for the job's state (409)."""


class UnknownJob(KeyError):
    """No job with that id (HTTP 404)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0] if self.args else ""


@dataclass
class JobRecord:
    """One job's full lifecycle state (also its persisted JSON shape)."""

    job_id: str
    state: str
    mode: str
    spec: Optional[SeparatorSpec]
    n_records: int
    callback_url: Optional[str] = None
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[Dict[str, Any]] = None
    #: Per-record ``{"name": ..., "scores": {source: [sdr, mse]}}``
    #: summaries, filled when the job completes.
    record_summaries: List[Dict[str, Any]] = field(default_factory=list)
    #: Callback delivery outcome (:meth:`CallbackDelivery.to_dict`).
    callback: Optional[Dict[str, Any]] = None

    @property
    def method(self) -> str:
        return self.spec.method if self.spec is not None else ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-able record persisted as ``job.json`` and served
        by ``GET /jobs/<id>``."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "mode": self.mode,
            "method": self.method,
            "spec": None if self.spec is None else self.spec.to_dict(),
            "n_records": self.n_records,
            "callback_url": self.callback_url,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "record_summaries": self.record_summaries,
            "callback": self.callback,
        }


class JobRegistry:
    """Bounded-queue job lifecycle manager over a shared worker tier.

    Parameters
    ----------
    config:
        The deployment's :class:`repro.gateway.GatewayConfig`.
    store:
        Artefact store jobs persist through.
    transport:
        Optional callback transport for the registry's
        :class:`CallbackClient`, which the config's ``callback_*`` knobs
        configure (tests and the in-process benchmark deliver locally).
        The registry owns the client and closes it in :meth:`close`.
    """

    def __init__(
        self,
        config: GatewayConfig,
        store: ArtifactStore,
        transport: Optional[Transport] = None,
    ):
        self.config = config
        self.store = store
        self.callbacks = CallbackClient(
            retries=config.callback_retries,
            backoff_s=config.callback_backoff_s,
            backoff_factor=config.callback_backoff_factor,
            timeout_s=config.callback_timeout_s,
            transport=transport,
            on_finished=self._record_callback_outcome,
        )
        self._lock = threading.RLock()
        self._jobs: Dict[str, JobRecord] = {}
        self._records: Dict[str, List[SeparationRecord]] = {}
        self._next_id = 1 + max(
            (int(job_id[4:]) for job_id in store.job_ids()
             if job_id.startswith("job-") and job_id[4:].isdecimal()),
            default=0,
        )
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue(
            maxsize=config.queue_depth
        )
        self._services: Dict[str, SeparationService] = {}
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"gateway-worker-{i}", daemon=True,
            )
            for i in range(config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ #
    # Submission / inspection
    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: SeparatorSpec,
        mode: str,
        records: Sequence[SeparationRecord],
        callback_url: Optional[str] = None,
    ) -> JobRecord:
        """Register and enqueue one job; returns its ``queued`` record."""
        if mode not in JOB_MODES:
            raise ConfigurationError(
                f"job mode must be one of {JOB_MODES}, got {mode!r}"
            )
        records = list(records)
        if not records:
            raise ConfigurationError("a job needs at least one record")
        with self._lock:
            if self._closed:
                raise RuntimeError("JobRegistry is closed")
            job_id = f"job-{self._next_id:06d}"
            job = JobRecord(
                job_id=job_id,
                state="queued",
                mode=mode,
                spec=spec,
                n_records=len(records),
                callback_url=callback_url,
                created_at=time.time(),
            )
            # Persist the queued record BEFORE enqueueing: once a worker
            # can see the job it may finish (and write "done") at any
            # moment, and a late "queued" write would stomp it.
            self.store.write_job(job_id, job.to_dict())
            try:
                self._queue.put_nowait(job_id)
            except queue.Full:
                self.store.delete(job_id)
                raise JobQueueFull(
                    f"job queue is full ({self.config.queue_depth} "
                    f"queued); retry after a worker drains it"
                ) from None
            self._next_id += 1
            self._jobs[job_id] = job
            self._records[job_id] = records
        return job

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJob(f"unknown job id {job_id!r}") from None

    def job_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._jobs)

    def counts(self) -> Dict[str, int]:
        """``{state: n_jobs}`` over every registered job."""
        out = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] += 1
        return out

    def result(self, job_id: str, estimates: bool = True) -> Dict[str, Any]:
        """A ``done`` job's full wire-format result (scores + arrays).

        Raises :class:`JobConflict` for non-``done`` jobs (the caller
        maps it to HTTP 409 — poll ``GET /jobs/<id>`` until terminal).
        """
        job = self.get(job_id)
        if job.state != "done":
            raise JobConflict(
                f"job {job_id} is {job.state!r}, not 'done'; results only "
                f"exist for completed jobs"
            )
        records = []
        for i, summary in enumerate(job.record_summaries):
            entry = dict(summary)
            if estimates:
                entry["estimates"] = {
                    source: array_to_wire(arr)
                    for source, arr in
                    self.store.read_estimates(job_id, i).items()
                }
            records.append(entry)
        return {
            "job_id": job_id,
            "separator_name": job.method,
            "mode": job.mode,
            "records": records,
        }

    # ------------------------------------------------------------------ #
    # Cancellation & expiry
    # ------------------------------------------------------------------ #
    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a *queued* job; running/terminal raise :class:`JobConflict`."""
        with self._lock:
            job = self.get(job_id)
            if job.state != "queued":
                raise JobConflict(
                    f"job {job_id} is {job.state!r}; only queued jobs can "
                    f"be cancelled"
                )
            # Finish under the lock, so no worker starts the job between
            # the state check and the cancellation.
            self._finish(job, state="cancelled", finished_at=time.time())
        self._fire_callback(job)
        return job

    def expire_artifacts(self, now: Optional[float] = None) -> List[str]:
        """Reap terminal jobs older than ``artifact_ttl_s``.

        Deletes the job's artefact directory and marks the in-memory
        record ``expired``; returns the reaped ids.
        """
        now = time.time() if now is None else now
        cutoff = now - self.config.artifact_ttl_s
        expired: List[str] = []
        with self._lock:
            for job in self._jobs.values():
                if job.state == "expired" or not job.terminal:
                    continue
                finished = job.finished_at or job.created_at
                if finished <= cutoff:
                    job.state = "expired"
                    expired.append(job.job_id)
        for job_id in expired:
            self.store.delete(job_id)
        return expired

    # ------------------------------------------------------------------ #
    # Worker tier
    # ------------------------------------------------------------------ #
    def _service_for(self, spec: SeparatorSpec) -> SeparationService:
        """One shared service per distinct spec, built on first use."""
        key = repr(sorted(spec.to_dict().items()))
        with self._lock:
            if self._closed:
                raise RuntimeError("JobRegistry is closed")
            service = self._services.get(key)
            if service is None:
                service = SeparationService(
                    spec, workers=self.config.service_workers,
                )
                self._services[key] = service
            return service

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            try:
                if job_id is None:  # shutdown sentinel
                    return
                self._execute(job_id)
            except Exception:  # never let a worker die
                _LOG.exception("worker crashed executing job %s", job_id)
            finally:
                self._queue.task_done()

    def _execute(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            if job.state != "queued":  # cancelled while waiting
                return
            job.state = "running"
            job.started_at = time.time()
            records = self._records[job_id]
            spec = job.spec
        self.store.write_job(job_id, job.to_dict())
        try:
            service = self._service_for(spec)
            if job.mode == "separate":
                outcome = service.separate(records[0])
                results: List[RecordResult] = [outcome.record]
            else:
                outcome = service.separate_batch(records)
                results = list(outcome.batch.results)
            # ``done`` promises a result ``result()`` can serve, and the
            # wire refuses non-finite arrays.
            for i, result in enumerate(results):
                for source, est in result.estimates.items():
                    if not np.all(np.isfinite(est)):
                        raise DataError(
                            f"the separator produced non-finite output "
                            f"for record #{i} source {source!r}"
                        )
            for i, result in enumerate(results):
                self.store.write_estimates(
                    job_id, i,
                    {s: est for s, est in result.estimates.items()},
                )
            summaries = [
                record_result_to_wire(result, estimates=False)
                for result in results
            ]
        except Exception as exc:
            _LOG.warning("job %s failed: %s", job_id, exc)
            self._finish(
                job, state="error", finished_at=time.time(),
                error={"error": type(exc).__name__, "message": str(exc)},
            )
        else:
            self._finish(
                job, state="done", finished_at=time.time(),
                record_summaries=summaries,
            )
        self._fire_callback(job)

    def _finish(self, job: JobRecord, **terminal: Any) -> None:
        """Write a job's terminal record, then apply it in memory.

        In that order, whoever reads the terminal state from the registry
        (``GET /jobs/<id>``) finds it in ``job.json`` too.  If the write
        raises, the job still ends terminal in memory, so pollers never
        hang.
        """
        try:
            record = replace(job, **terminal)
            self.store.write_job(job.job_id, record.to_dict())
        finally:
            with self._lock:
                for name, value in terminal.items():
                    setattr(job, name, value)
                self._records.pop(job.job_id, None)

    # ------------------------------------------------------------------ #
    # Callbacks
    # ------------------------------------------------------------------ #
    def _fire_callback(self, job: JobRecord) -> None:
        if not job.callback_url:
            return
        payload = job.to_dict()
        payload.pop("spec", None)  # keep callback bodies small
        try:
            self.callbacks.submit(job.job_id, job.callback_url, payload)
        except RuntimeError:  # client already closed during shutdown
            _LOG.warning(
                "callback client closed; dropping callback for job %s",
                job.job_id,
            )

    def _record_callback_outcome(self, delivery: CallbackDelivery) -> None:
        with self._lock:
            job = self._jobs.get(delivery.job_id)
            if job is None:
                return
            job.callback = delivery.to_dict()
            if job.state == "expired":  # artefact dir already reaped
                return
        self.store.write_job(job.job_id, job.to_dict())

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def drain(self, timeout_s: float = 60.0) -> bool:
        """Block until every submitted job is settled (True) or timeout.

        A job is settled when it is terminal, its terminal record is
        written and its callback is handed to the client.  A worker
        writes the record before it marks the job terminal, hands off
        the callback after, and marks its queue task done only after
        both.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._settled():
                return True
            time.sleep(0.01)
        return self._settled()

    def _settled(self) -> bool:
        with self._lock:
            return self._queue.unfinished_tasks == 0 and all(
                job.terminal for job in self._jobs.values()
            )

    def close(self) -> None:
        """Stop workers (after in-flight jobs finish) and shared services."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=30.0)
        with self._lock:
            services = list(self._services.values())
            self._services.clear()
        for service in services:
            service.close()
        self.callbacks.close()

    def __repr__(self) -> str:
        counts = self.counts()
        live = {k: v for k, v in counts.items() if v}
        return f"JobRegistry(workers={len(self._workers)}, jobs={live})"
