"""A thin stdlib client for the gateway's HTTP API.

:class:`GatewayClient` wraps one persistent
``http.client.HTTPConnection`` (HTTP/1.1 keep-alive — ``urllib`` opens a
fresh socket per request, which falls over at the benchmark's hundreds
of concurrent monitor sessions) and mirrors the route table of
:class:`repro.gateway.Gateway` method-for-method.

Error contract: non-2xx responses raise :class:`GatewayError` carrying
the HTTP status and the server's structured error body, so callers see
the registry's did-you-mean messages verbatim.

Every array in a response (job estimates, monitor updates) comes back
as a writable float64 ``np.ndarray``, decoded from the wire's tagged
base64 form (:mod:`repro.gateway.wire`).

A client instance is **not** thread-safe (one socket, one in-flight
request); use one client per thread, as the benchmark does.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, List, Optional
from urllib.parse import urlencode, urlsplit

from repro.errors import ConfigurationError
from repro.gateway.wire import array_object_hook, array_to_wire


class GatewayError(RuntimeError):
    """A non-2xx gateway response, with its structured body attached."""

    def __init__(self, status: int, payload: Dict[str, Any]):
        message = payload.get("message") or f"HTTP {status}"
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class GatewayClient:
    """Persistent-connection client for one gateway.

    Parameters
    ----------
    url:
        The gateway base URL (``Gateway.url``), e.g.
        ``http://127.0.0.1:8422``.
    timeout_s:
        Socket timeout per request.  Long-poll calls extend it by the
        poll timeout so the server, not the socket, ends the wait.
    """

    def __init__(self, url: str, timeout_s: float = 30.0):
        split = urlsplit(url)
        if split.scheme != "http" or not split.hostname:
            raise ConfigurationError(
                f"gateway url must look like http://host:port, got {url!r}"
            )
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout_s = float(timeout_s)
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _connection(
        self, timeout_s: Optional[float] = None
    ) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout_s or self.timeout_s
            )
        elif timeout_s is not None and self._conn.sock is not None:
            self._conn.sock.settimeout(timeout_s)
        return self._conn

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        query: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Any:
        """One JSON request/response; retries once on a dropped socket."""
        if query:
            path = f"{path}?{urlencode(query)}"
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (1, 2):
            conn = self._connection(timeout_s)
            try:
                try:
                    conn.request(method, path, body=payload, headers=headers)
                except (BrokenPipeError, ConnectionResetError):
                    # The server rejected the upload mid-send (e.g. 413 on
                    # an oversized body) and stopped reading; its error
                    # response is usually already on the wire — fetch it.
                    pass
                response = conn.getresponse()
                raw = response.read()
                if response.will_close:
                    self._reset()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                # A keep-alive socket the server closed between requests:
                # drop it and retry once on a fresh connection.
                self._reset()
                if attempt == 2:
                    raise
        try:
            data = json.loads(raw, object_hook=array_object_hook) \
                if raw else None
        except json.JSONDecodeError:
            data = {"message": raw.decode("utf-8", "replace")}
        if not 200 <= response.status < 300:
            raise GatewayError(response.status, data or {})
        return data

    def _reset(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def close(self) -> None:
        self._reset()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Service endpoints
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/health")

    def methods(self) -> List[str]:
        return self.request("GET", "/methods")["methods"]

    # ------------------------------------------------------------------ #
    # Jobs
    # ------------------------------------------------------------------ #
    def submit_job(self, submission: Dict[str, Any]) -> Dict[str, Any]:
        """POST a wire-format job submission; returns the queued record."""
        return self.request("POST", "/jobs", body=submission)

    def jobs(self) -> Dict[str, str]:
        return self.request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}")

    def job_result(
        self, job_id: str, estimates: bool = True
    ) -> Dict[str, Any]:
        return self.request(
            "GET", f"/jobs/{job_id}/result",
            query={"estimates": int(estimates)},
        )

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        return self.request("POST", f"/jobs/{job_id}/cancel")

    def wait_job(
        self, job_id: str, timeout_s: float = 60.0, poll_s: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll ``GET /jobs/<id>`` until the job is terminal."""
        deadline = time.monotonic() + timeout_s
        while True:
            record = self.job(job_id)
            if record["state"] not in ("queued", "running"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']!r} after "
                    f"{timeout_s:.1f}s"
                )
            time.sleep(poll_s)

    # ------------------------------------------------------------------ #
    # Monitor sessions
    # ------------------------------------------------------------------ #
    def create_session(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.request("POST", "/sessions", body=request)

    def sessions(self) -> List[str]:
        return self.request("GET", "/sessions")["sessions"]

    def session(self, session_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/sessions/{session_id}")

    def push(
        self, session_id: str, ppg, dc, f0_tracks,
    ) -> Dict[str, Any]:
        """Feed one chunk; returns the resulting monitor update.

        Non-finite samples raise :class:`repro.errors.DataError` before
        anything is sent.
        """
        return self.request(
            "POST", f"/sessions/{session_id}/push",
            body={
                "ppg": {str(wl): array_to_wire(v) for wl, v in ppg.items()},
                "dc": {str(wl): array_to_wire(v) for wl, v in dc.items()},
                "f0_tracks": {str(s): array_to_wire(v)
                              for s, v in f0_tracks.items()},
            },
        )

    def add_draws(self, session_id: str, draws) -> Dict[str, Any]:
        """Register draws: an iterable of ``(time_s, sao2)`` pairs."""
        return self.request(
            "POST", f"/sessions/{session_id}/draws",
            body={"draws": [
                {"time_s": float(t), "sao2": float(s)} for t, s in draws
            ]},
        )

    def updates(
        self, session_id: str, since: int = 0, timeout_s: float = 10.0,
    ) -> Dict[str, Any]:
        """Long-poll the session's update log from index ``since``."""
        return self.request(
            "GET", f"/sessions/{session_id}/updates",
            query={"since": since, "timeout_s": timeout_s},
            timeout_s=self.timeout_s + timeout_s,
        )

    def finish_session(self, session_id: str) -> Dict[str, Any]:
        return self.request("POST", f"/sessions/{session_id}/finish")

    def delete_session(self, session_id: str) -> Dict[str, Any]:
        return self.request("DELETE", f"/sessions/{session_id}")

    def __repr__(self) -> str:
        return f"GatewayClient(http://{self.host}:{self.port})"
