"""Completion callbacks: bounded retries, backoff, dead letters.

When a job carries a ``callback_url``, its terminal state is POSTed
there as JSON.  Delivery is asynchronous (one daemon thread owns a
due-time heap, so a slow or dead callback endpoint never blocks a
separation worker), bounded (``retries`` attempts with exponential
backoff), and accounted: a delivery that exhausts its attempts becomes a
:class:`CallbackDelivery` dead-letter record handed to the registry,
which stamps it into the job's persisted record.

The HTTP transport is injectable — tests and the in-process benchmark
substitute a local callable — and defaults to a stdlib
``urllib.request`` POST.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.utils.logging import get_logger

_LOG = get_logger("gateway.callbacks")

#: ``transport(url, payload, timeout_s)`` delivering one callback; any
#: exception marks the attempt failed.
Transport = Callable[[str, Dict[str, Any], float], None]


def urllib_transport(url: str, payload: Dict[str, Any],
                     timeout_s: float) -> None:
    """Default transport: POST the payload as JSON, expect a 2xx."""
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        status = getattr(response, "status", 200)
        if not 200 <= status < 300:
            raise urllib.error.HTTPError(
                url, status, f"callback endpoint returned {status}",
                response.headers, None,
            )


@dataclass
class CallbackDelivery:
    """Lifecycle record of one callback (live, delivered, or dead)."""

    job_id: str
    url: str
    payload: Dict[str, Any]
    attempts: int = 0
    delivered: bool = False
    dead_lettered: bool = False
    last_error: str = ""
    #: Wall-clock of the final attempt (delivery or dead-letter).
    finished_at: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-able summary stamped into the job record."""
        return {
            "url": self.url,
            "attempts": self.attempts,
            "delivered": self.delivered,
            "dead_lettered": self.dead_lettered,
            "last_error": self.last_error,
        }


class CallbackClient:
    """Asynchronous callback deliverer with retry, backoff, dead letters.

    Parameters
    ----------
    retries:
        Total attempts per delivery (the first one counts).
    backoff_s / backoff_factor:
        Attempt ``k`` (1-based) failing schedules attempt ``k+1`` after
        ``backoff_s * backoff_factor**(k-1)`` seconds.
    timeout_s:
        Per-attempt transport timeout.
    transport:
        Injectable delivery callable (default
        :func:`urllib_transport`).
    on_finished:
        Optional hook ``f(delivery)`` invoked when a delivery reaches a
        terminal state (delivered or dead-lettered) — the registry uses
        it to persist the outcome on the job record.
    """

    def __init__(
        self,
        retries: int = 3,
        backoff_s: float = 0.1,
        backoff_factor: float = 2.0,
        timeout_s: float = 5.0,
        transport: Optional[Transport] = None,
        on_finished: Optional[Callable[[CallbackDelivery], None]] = None,
    ):
        if not isinstance(retries, int) or isinstance(retries, bool) \
                or retries < 1:
            raise ConfigurationError(
                f"callback retries must be a positive int, got {retries!r}"
            )
        self.retries = retries
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.timeout_s = float(timeout_s)
        self.transport = transport or urllib_transport
        self.on_finished = on_finished
        self._heap: List = []
        self._counter = itertools.count()
        self._cv = threading.Condition()
        self._closed = False
        self._inflight = 0
        self.dead_letters: List[CallbackDelivery] = []
        self.n_delivered = 0
        self._thread = threading.Thread(
            target=self._run, name="gateway-callbacks", daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def submit(self, job_id: str, url: str,
               payload: Dict[str, Any]) -> CallbackDelivery:
        """Queue one delivery for immediate attempt."""
        delivery = CallbackDelivery(job_id=job_id, url=url, payload=payload)
        with self._cv:
            if self._closed:
                raise RuntimeError("CallbackClient is closed")
            self._inflight += 1
            heapq.heappush(
                self._heap,
                (time.monotonic(), next(self._counter), delivery),
            )
            self._cv.notify()
        return delivery

    def pending(self) -> int:
        """Deliveries not yet terminal (queued, waiting, or in-flight)."""
        with self._cv:
            return self._inflight

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Block until every queued delivery is terminal and its
        ``on_finished`` hook has run (True), or timeout."""
        deadline = time.monotonic() + timeout_s
        with self._cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(timeout=remaining)
        return True

    def close(self) -> None:
        """Stop the delivery thread; pending deliveries are abandoned."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self._thread.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # Delivery thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._closed and (
                        not self._heap
                        or self._heap[0][0] > time.monotonic()):
                    if self._heap:
                        delay = self._heap[0][0] - time.monotonic()
                        self._cv.wait(timeout=max(0.0, delay))
                    else:
                        self._cv.wait()
                if self._closed:
                    return
                _, _, delivery = heapq.heappop(self._heap)
            self._attempt(delivery)

    def _attempt(self, delivery: CallbackDelivery) -> None:
        delivery.attempts += 1
        try:
            self.transport(delivery.url, delivery.payload, self.timeout_s)
        except Exception as exc:  # any transport failure is retryable
            delivery.last_error = f"{type(exc).__name__}: {exc}"
            if delivery.attempts >= self.retries:
                delivery.dead_lettered = True
                delivery.finished_at = time.time()
                _LOG.warning(
                    "callback for job %s dead-lettered after %d attempts "
                    "(%s)", delivery.job_id, delivery.attempts,
                    delivery.last_error,
                )
                self._finish(delivery, dead=True)
                return
            delay = self.backoff_s * (
                self.backoff_factor ** (delivery.attempts - 1)
            )
            with self._cv:
                if self._closed:
                    return
                heapq.heappush(
                    self._heap,
                    (time.monotonic() + delay, next(self._counter), delivery),
                )
                self._cv.notify()
            return
        delivery.delivered = True
        delivery.last_error = ""
        delivery.finished_at = time.time()
        self._finish(delivery, dead=False)

    def _finish(self, delivery: CallbackDelivery, dead: bool) -> None:
        # The hook runs while the delivery still counts as in flight, so
        # drain() returning means every outcome has been recorded.
        if self.on_finished is not None:
            try:
                self.on_finished(delivery)
            except Exception:  # a hook failure must not kill the thread
                _LOG.exception(
                    "callback on_finished hook failed for job %s",
                    delivery.job_id,
                )
        with self._cv:
            if dead:
                self.dead_letters.append(delivery)
            else:
                self.n_delivered += 1
            self._inflight -= 1
            self._cv.notify_all()
