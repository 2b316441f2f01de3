"""``repro.gateway``: the stdlib-only HTTP serving gateway.

This package puts a production-shaped front door on the service layer:
batch separation jobs with a full submit → queued → running → done /
error / cancelled / expired lifecycle (:class:`JobRegistry`,
:class:`JobRecord`), per-job artefact storage on the hardened
serialization substrate (:class:`ArtifactStore`), completion callbacks
with bounded retry and dead-lettering (:class:`CallbackClient`), and
chunked long-poll streaming of live fetal-SpO2 feeds
(:class:`MonitorSessionManager`) — all behind one
``http.server.ThreadingHTTPServer`` (:class:`Gateway`) configured by a
single frozen, JSON-round-trippable :class:`GatewayConfig`.

Quick start::

    from repro.gateway import Gateway, GatewayConfig, GatewayClient

    with Gateway(GatewayConfig(port=0, workers=4)) as gw:
        client = GatewayClient(gw.url)
        job = client.submit_job({
            "method": "spectral-masking",
            "records": [record_to_wire(record)],
        })
        done = client.wait_job(job["job_id"])
        result = client.job_result(job["job_id"])

No third-party dependency appears anywhere on the serving path; the
whole gateway is ``http.server``, ``http.client``, ``json``,
``base64``, ``queue`` and ``threading``.  Arrays cross the wire as
``{"f8": <base64 of the little-endian float64 bytes>}`` (see
:mod:`repro.gateway.wire`); the client hands them back as arrays.
"""

from repro.gateway.app import Gateway
from repro.gateway.callbacks import (
    CallbackClient,
    CallbackDelivery,
    urllib_transport,
)
from repro.gateway.config import GatewayConfig
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    JobConflict,
    JobQueueFull,
    JobRecord,
    JobRegistry,
    UnknownJob,
)
from repro.gateway.sessions import (
    MonitorSessionManager,
    SessionConflict,
    UnknownSession,
)
from repro.gateway.storage import ArtifactStore, make_store
from repro.gateway.wire import (
    JOB_MODES,
    array_from_wire,
    array_to_wire,
    error_to_wire,
    monitor_result_to_wire,
    monitor_update_to_wire,
    parse_job_submission,
    record_from_wire,
    record_result_to_wire,
    record_to_wire,
)

__all__ = [
    "ArtifactStore",
    "CallbackClient",
    "CallbackDelivery",
    "Gateway",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "JOB_MODES",
    "JOB_STATES",
    "JobConflict",
    "JobQueueFull",
    "JobRecord",
    "JobRegistry",
    "MonitorSessionManager",
    "SessionConflict",
    "TERMINAL_STATES",
    "UnknownJob",
    "UnknownSession",
    "array_from_wire",
    "array_to_wire",
    "error_to_wire",
    "make_store",
    "monitor_result_to_wire",
    "monitor_update_to_wire",
    "parse_job_submission",
    "record_from_wire",
    "record_result_to_wire",
    "record_to_wire",
    "urllib_transport",
]
