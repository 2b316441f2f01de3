"""Callback delivery: retries, exponential backoff, dead letters."""

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.gateway import CallbackClient


class FlakyTransport:
    """Fails the first ``n_failures`` attempts, then succeeds."""

    def __init__(self, n_failures=0):
        self.n_failures = n_failures
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, url, payload, timeout_s):
        with self.lock:
            self.calls.append((time.monotonic(), url, payload))
            if len(self.calls) <= self.n_failures:
                raise ConnectionError("transport down")


class TestCallbackClient:
    def test_delivers_first_try(self):
        transport = FlakyTransport()
        client = CallbackClient(retries=3, backoff_s=0.01,
                                transport=transport)
        try:
            delivery = client.submit("job-1", "http://x", {"state": "done"})
            assert client.drain(timeout_s=5.0)
            assert delivery.delivered
            assert delivery.attempts == 1
            assert not delivery.dead_lettered
            assert client.n_delivered == 1
            assert not client.dead_letters
            assert transport.calls[0][1] == "http://x"
        finally:
            client.close()

    def test_retries_until_success(self):
        transport = FlakyTransport(n_failures=2)
        client = CallbackClient(retries=4, backoff_s=0.01,
                                transport=transport)
        try:
            delivery = client.submit("job-1", "http://x", {})
            assert client.drain(timeout_s=5.0)
            assert delivery.delivered
            assert delivery.attempts == 3
            assert not client.dead_letters
        finally:
            client.close()

    def test_dead_letter_after_exhausted_retries(self):
        transport = FlakyTransport(n_failures=99)
        client = CallbackClient(retries=3, backoff_s=0.005,
                                transport=transport)
        try:
            delivery = client.submit("job-1", "http://x", {})
            assert client.drain(timeout_s=5.0)
            assert delivery.dead_lettered
            assert not delivery.delivered
            assert delivery.attempts == 3
            assert "ConnectionError" in delivery.last_error
            assert client.dead_letters == [delivery]
            assert delivery.to_dict()["dead_lettered"] is True
        finally:
            client.close()

    def test_backoff_is_exponential(self):
        transport = FlakyTransport(n_failures=99)
        client = CallbackClient(retries=3, backoff_s=0.05,
                                backoff_factor=2.0, transport=transport)
        try:
            client.submit("job-1", "http://x", {})
            assert client.drain(timeout_s=10.0)
            times = [t for t, _, _ in transport.calls]
            gap1, gap2 = times[1] - times[0], times[2] - times[1]
            # attempt 2 waits ~backoff_s, attempt 3 ~backoff_s * factor
            assert gap1 >= 0.04
            assert gap2 >= 0.08
        finally:
            client.close()

    def test_on_finished_hook_fires_for_both_outcomes(self):
        seen = []
        ok = FlakyTransport()
        client = CallbackClient(retries=1, backoff_s=0.01, transport=ok,
                                on_finished=seen.append)
        try:
            client.submit("job-ok", "http://x", {})
            assert client.drain(timeout_s=5.0)
        finally:
            client.close()
        bad = FlakyTransport(n_failures=9)
        client = CallbackClient(retries=2, backoff_s=0.005, transport=bad,
                                on_finished=seen.append)
        try:
            client.submit("job-dead", "http://x", {})
            assert client.drain(timeout_s=5.0)
        finally:
            client.close()
        assert [d.job_id for d in seen] == ["job-ok", "job-dead"]
        assert seen[0].delivered and seen[1].dead_lettered

    def test_drain_waits_for_the_on_finished_hook(self):
        # drain() returning means every outcome is recorded: the gateway
        # persists it on the job record from this hook.
        recorded = []

        def slow_record(delivery):
            time.sleep(0.2)
            recorded.append(delivery.job_id)

        client = CallbackClient(retries=1, transport=FlakyTransport(),
                                on_finished=slow_record)
        try:
            client.submit("job-1", "http://x", {})
            assert client.drain(timeout_s=5.0)
            assert recorded == ["job-1"]
        finally:
            client.close()

    def test_slow_endpoint_does_not_block_submit(self):
        release = threading.Event()

        def stuck(url, payload, timeout_s):
            release.wait(timeout=5.0)

        client = CallbackClient(retries=1, transport=stuck)
        try:
            t0 = time.perf_counter()
            for i in range(5):
                client.submit(f"job-{i}", "http://x", {})
            assert time.perf_counter() - t0 < 0.5  # producer never waits
            release.set()
            assert client.drain(timeout_s=5.0)
            assert client.n_delivered == 5
        finally:
            client.close()

    def test_submit_after_close_raises(self):
        client = CallbackClient(transport=FlakyTransport())
        client.close()
        with pytest.raises(RuntimeError, match="closed"):
            client.submit("job-1", "http://x", {})

    def test_invalid_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            CallbackClient(retries=0)
