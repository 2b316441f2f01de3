"""The gateway itself: a stdlib-only HTTP front door for the service layer.

:class:`Gateway` composes the pieces of this package — the
:class:`~repro.gateway.jobs.JobRegistry` worker tier, the
:class:`~repro.gateway.sessions.MonitorSessionManager` streaming feeds,
the :class:`~repro.gateway.storage.ArtifactStore`, and the
:class:`~repro.gateway.callbacks.CallbackClient` — behind one
``http.server.ThreadingHTTPServer``.  No third-party dependency is
involved anywhere on the serving path.

Routes
------
==========  =================================  =================================
Method      Path                               Meaning
==========  =================================  =================================
GET         ``/health``                        liveness + job/session counters
GET         ``/methods``                       registered separator names
POST        ``/jobs``                          submit a batch job (202)
GET         ``/jobs``                          job ids and states
GET         ``/jobs/<id>``                     one job's lifecycle record
GET         ``/jobs/<id>/result``              scores + estimate arrays (done only)
POST        ``/jobs/<id>/cancel``              cancel a queued job
POST        ``/sessions``                      open a live monitor session
GET         ``/sessions``                      live session ids
GET         ``/sessions/<id>``                 one session's state
POST        ``/sessions/<id>/push``            feed one chunk → its update
POST        ``/sessions/<id>/draws``           register blood draws
GET         ``/sessions/<id>/updates``         long-poll updates (``since``, ``timeout_s``)
POST        ``/sessions/<id>/finish``          flush → final result
DELETE      ``/sessions/<id>``                 close and drop a session
==========  =================================  =================================

Error contract: every failure body is the structured
:func:`repro.gateway.wire.error_to_wire` JSON.  Validation and
configuration mistakes — unknown methods, unknown spec fields (with the
registry's did-you-mean suggestions), malformed records — are
:class:`repro.errors.ReproError` subclasses and map to **400**; unknown
ids to **404**; invalid state transitions to **409**; an over-long body
to **413** (refused before it is read); a full job queue to **429**.
Errors the stdlib raises before routing follow the same contract: a
malformed request line is a **400** and an unsupported method a **501**,
each with the HTTP reason as ``error`` and the connection closed.
Nothing a client sends can produce a 500 short of a genuine server bug.

Every accepted connection runs with ``TCP_NODELAY``: each response goes
out as two writes (headers, then body), and with Nagle on the body would
wait ~40 ms for a keep-alive client's delayed ACK of the headers.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import DataError, ReproError
from repro.gateway.callbacks import Transport
from repro.gateway.config import GatewayConfig
from repro.gateway.jobs import (
    JobConflict,
    JobQueueFull,
    JobRegistry,
    UnknownJob,
)
from repro.gateway.sessions import (
    MonitorSessionManager,
    SessionConflict,
    UnknownSession,
)
from repro.gateway.storage import ArtifactStore, make_store
from repro.gateway.wire import error_to_wire, parse_job_submission
from repro.service.registry import available_separators
from repro.utils.logging import get_logger

_LOG = get_logger("gateway.app")

#: Upper bound on one long-poll wait, whatever the client asks for.
MAX_POLL_S = 60.0


class _RouteError(Exception):
    """Internal: carry an HTTP status + payload up to the dispatcher."""

    def __init__(self, status: int, payload: Dict[str, Any]):
        super().__init__(payload.get("message", ""))
        self.status = status
        self.payload = payload


def _error(status: int, exc: BaseException) -> _RouteError:
    return _RouteError(status, error_to_wire(exc))


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`Gateway` via class attribute."""

    gateway: "Gateway"  # injected by Gateway._make_server
    protocol_version = "HTTP/1.1"
    # A request line without a version is answered as HTTP/1.1 as well,
    # so its error response keeps its status line and headers.
    default_request_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # see the module docstring

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        _LOG.debug("%s - %s", self.address_string(), fmt % args)

    def _read_json(self) -> Any:
        length = self.headers.get("Content-Length")
        try:
            n_bytes = int(length or 0)
        except ValueError:
            raise _error(400, DataError(
                f"invalid Content-Length {length!r}"
            )) from None
        limit = self.gateway.config.max_body_bytes
        if n_bytes > limit:
            # The body is refused unread, so the socket still holds it:
            # this connection cannot be reused for another request.
            self.close_connection = True
            raise _RouteError(413, {
                "error": "PayloadTooLarge",
                "message": (
                    f"request body of {n_bytes} bytes exceeds the "
                    f"gateway limit of {limit} bytes"
                ),
                "repro_error": False,
            })
        if n_bytes <= 0:
            raise _error(400, DataError(
                "request needs a JSON body (and a Content-Length header)"
            ))
        body = self.rfile.read(n_bytes)
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise _error(400, DataError(
                f"request body is not valid JSON ({exc})"
            )) from None

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """Answer the stdlib's own errors with the JSON error contract."""
        reason, description = self.responses.get(code, ("Error", ""))
        self.log_error("code %d, message %s", code, message or reason)
        self.close_connection = True
        self._send_json(code, {
            "error": reason,
            "message": message or explain or description,
            "repro_error": False,
        })

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        try:
            status, payload = self.gateway.route(
                method, parts, query, self._read_json
            )
        except _RouteError as exc:
            status, payload = exc.status, exc.payload
        except ReproError as exc:
            status, payload = 400, error_to_wire(exc)
        except (UnknownJob, UnknownSession) as exc:
            status, payload = 404, error_to_wire(exc)
        except (JobConflict, SessionConflict) as exc:
            status, payload = 409, error_to_wire(exc)
        except JobQueueFull as exc:
            status, payload = 429, error_to_wire(exc)
        except Exception as exc:  # genuine server bug: say so, stay up
            _LOG.exception("unhandled error on %s %s", method, self.path)
            status, payload = 500, error_to_wire(exc)
        try:
            self._send_json(status, payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


class Gateway:
    """The serving gateway: HTTP server + worker tier + live sessions.

    Parameters
    ----------
    config:
        The deployment's :class:`GatewayConfig`.
    callback_transport:
        Optional injectable callback transport (see
        :class:`~repro.gateway.callbacks.CallbackClient`); tests and the
        in-process benchmark pass a local callable so no second HTTP
        server is needed.

    Usage::

        with Gateway(GatewayConfig(port=0)) as gw:
            print(gw.url)        # http://127.0.0.1:<bound port>
            ...                  # serve until done

    The server runs on a background thread; ``close()`` (or leaving the
    ``with`` block) stops it, drains the worker tier, and closes every
    live session.  :meth:`serve_forever` instead blocks the calling
    thread (the CLI's ``serve`` command uses it).
    """

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        callback_transport: Optional[Transport] = None,
    ):
        self.config = config if config is not None else GatewayConfig()
        self.store: ArtifactStore = make_store(self.config.artifact_root)
        self.jobs = JobRegistry(
            self.config, self.store, transport=callback_transport,
        )
        self.sessions = MonitorSessionManager(self.config)
        self._server = ThreadingHTTPServer(
            (self.config.host, self.config.port), self._make_handler()
        )
        self._server.daemon_threads = True
        self._serve_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._reaper = threading.Thread(
            target=self._housekeeping, name="gateway-reaper", daemon=True,
        )
        self._reaper.start()
        self._closed = False

    def _make_handler(self):
        return type("GatewayHandler", (_Handler,), {"gateway": self})

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS's choice)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "Gateway":
        """Serve on a background thread; returns immediately."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="gateway-http", daemon=True,
            )
            self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted or closed."""
        try:
            self._server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop serving, drain workers, close sessions. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
        self._reaper.join(timeout=10.0)
        self.sessions.close()
        self.jobs.close()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Housekeeping
    # ------------------------------------------------------------------ #
    def _housekeeping(self) -> None:
        while not self._stop.wait(self.config.reap_interval_s):
            try:
                self.jobs.expire_artifacts()
                self.sessions.reap_idle()
            except Exception:  # the sweep must never die
                _LOG.exception("housekeeping sweep failed")

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route(
        self,
        method: str,
        parts: list,
        query: Dict[str, str],
        read_json,
    ) -> Tuple[int, Any]:
        """Dispatch one request; returns ``(status, JSON payload)``.

        Raising instead of returning is fine — the handler maps the
        package's exception types onto their HTTP statuses.
        """
        if parts == ["health"] and method == "GET":
            return 200, {
                "status": "ok",
                "jobs": self.jobs.counts(),
                "live_sessions": len(self.sessions.session_ids()),
                "store_root": self.store.root,
            }
        if parts == ["methods"] and method == "GET":
            return 200, {"methods": available_separators()}
        if parts and parts[0] == "jobs":
            return self._route_jobs(method, parts[1:], query, read_json)
        if parts and parts[0] == "sessions":
            return self._route_sessions(method, parts[1:], query, read_json)
        raise _RouteError(404, {
            "error": "NotFound",
            "message": f"no route for {method} /{'/'.join(parts)}",
            "repro_error": False,
        })

    def _route_jobs(
        self, method: str, parts: list, query: Dict[str, str], read_json,
    ) -> Tuple[int, Any]:
        if not parts:
            if method == "POST":
                submission = parse_job_submission(read_json())
                job = self.jobs.submit(
                    submission["spec"], submission["mode"],
                    submission["records"], submission["callback_url"],
                )
                return 202, job.to_dict()
            if method == "GET":
                return 200, {
                    "jobs": {
                        job_id: self.jobs.get(job_id).state
                        for job_id in self.jobs.job_ids()
                    }
                }
        elif len(parts) == 1 and method == "GET":
            return 200, self.jobs.get(parts[0]).to_dict()
        elif len(parts) == 2 and parts[1] == "result" and method == "GET":
            estimates = query.get("estimates", "1") not in ("0", "false")
            return 200, self.jobs.result(parts[0], estimates=estimates)
        elif len(parts) == 2 and parts[1] == "cancel" and method == "POST":
            return 200, self.jobs.cancel(parts[0]).to_dict()
        raise _RouteError(404, {
            "error": "NotFound",
            "message": f"no route for {method} /jobs/{'/'.join(parts)}",
            "repro_error": False,
        })

    def _route_sessions(
        self, method: str, parts: list, query: Dict[str, str], read_json,
    ) -> Tuple[int, Any]:
        if not parts:
            if method == "POST":
                return 201, self.sessions.create(read_json())
            if method == "GET":
                return 200, {"sessions": self.sessions.session_ids()}
        elif len(parts) == 1:
            if method == "GET":
                return 200, self.sessions.state(parts[0])
            if method == "DELETE":
                return 200, self.sessions.delete(parts[0])
        elif len(parts) == 2:
            sid, action = parts
            if action == "push" and method == "POST":
                return 200, self.sessions.push(sid, read_json())
            if action == "draws" and method == "POST":
                return 200, self.sessions.add_draws(sid, read_json())
            if action == "finish" and method == "POST":
                return 200, self.sessions.finish(sid)
            if action == "updates" and method == "GET":
                try:
                    since = int(query.get("since", "0"))
                    timeout_s = float(query.get("timeout_s", "10"))
                except ValueError as exc:
                    raise _error(400, DataError(
                        f"bad query parameter ({exc})"
                    )) from None
                timeout_s = min(max(timeout_s, 0.0), MAX_POLL_S)
                return 200, self.sessions.updates(
                    sid, since=since, timeout_s=timeout_s
                )
        raise _RouteError(404, {
            "error": "NotFound",
            "message": f"no route for {method} /sessions/{'/'.join(parts)}",
            "repro_error": False,
        })

    def __repr__(self) -> str:
        return (
            f"Gateway(url={self.url!r}, jobs={self.jobs.counts()}, "
            f"sessions={len(self.sessions.session_ids())})"
        )
