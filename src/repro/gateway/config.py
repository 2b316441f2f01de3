"""The gateway's frozen, JSON-round-trippable configuration.

:class:`GatewayConfig` follows the same contract as every other spec in
the repo (:class:`repro.service.SeparatorSpec`,
:class:`repro.scenarios.DegradationSpec`): a frozen dataclass with
JSON-able fields, validated in ``__post_init__``, round-tripping through
``to_dict`` / ``from_dict`` (the shared :class:`FrozenSpec` rule:
did-you-mean errors for unknown fields).  That makes a whole deployment
describable as one JSON file::

    python -m repro.experiments serve --config @gateway.json
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.service.specs import FrozenSpec


@dataclass(frozen=True)
class GatewayConfig(FrozenSpec):
    """Everything one gateway deployment needs, in one frozen spec.

    Attributes
    ----------
    host, port:
        Bind address of the HTTP front door.  ``port=0`` asks the OS for
        an ephemeral port (the bound port is on :attr:`Gateway.port`).
    workers:
        Separation worker threads draining the job queue.
    queue_depth:
        Bound on queued (not yet running) jobs; submissions beyond it
        are rejected with HTTP 429.
    artifact_root:
        Directory holding per-job artefacts (scores JSON + estimate
        ``.npz`` archives).  Empty string lets the gateway create a
        private temporary directory.
    artifact_ttl_s:
        Age after which a *terminal* job's artefacts are reaped and the
        job record marked ``"expired"``.
    callback_retries:
        Delivery attempts per completion callback before the callback is
        dead-lettered (the first attempt counts).
    callback_backoff_s / callback_backoff_factor:
        Exponential backoff between callback attempts: attempt ``k``
        waits ``backoff_s * factor**(k-1)``.
    callback_timeout_s:
        Socket timeout of one callback POST.
    service_workers:
        Fan-out (``SeparationService(workers=...)``) of each worker
        service.  ``0`` (default) keeps batch jobs on the serial
        vectorized path; ``> 1`` shards multi-record batch jobs across
        this many worker processes
        (:class:`repro.pipeline.ShardedExecutor`, one persistent pool
        per distinct spec, shared by every job thread).
    session_idle_timeout_s:
        Streaming monitor sessions untouched for this long are reaped
        (closed and dropped) by the housekeeping sweep.
    reap_interval_s:
        Period of the housekeeping sweep (artefact TTL + idle sessions).
    max_body_bytes:
        Largest request body accepted; anything larger is refused with
        HTTP 413 before being read into memory.
    max_updates_kept:
        Per-session bound on the retained :class:`MonitorUpdate` log the
        long-poll endpoint serves from.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_depth: int = 64
    artifact_root: str = ""
    artifact_ttl_s: float = 3600.0
    callback_retries: int = 3
    callback_backoff_s: float = 0.1
    callback_backoff_factor: float = 2.0
    callback_timeout_s: float = 5.0
    service_workers: int = 0
    session_idle_timeout_s: float = 300.0
    reap_interval_s: float = 1.0
    max_body_bytes: int = 64 * 1024 * 1024
    max_updates_kept: int = 256

    def __post_init__(self):
        if not isinstance(self.host, str) or not self.host:
            raise ConfigurationError(
                f"GatewayConfig.host must be a non-empty string, got "
                f"{self.host!r}"
            )
        if not isinstance(self.port, int) or isinstance(self.port, bool) \
                or not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"GatewayConfig.port must be an int in [0, 65535], got "
                f"{self.port!r}"
            )
        self._check_positive_int(
            "workers", "queue_depth", "callback_retries", "max_body_bytes",
            "max_updates_kept",
        )
        self._check_positive(
            "artifact_ttl_s", "callback_backoff_s", "callback_backoff_factor",
            "callback_timeout_s", "session_idle_timeout_s", "reap_interval_s",
        )
        if not isinstance(self.artifact_root, str):
            raise ConfigurationError(
                f"GatewayConfig.artifact_root must be a str, got "
                f"{self.artifact_root!r}"
            )
        if not isinstance(self.service_workers, int) \
                or isinstance(self.service_workers, bool) \
                or self.service_workers < 0:
            raise ConfigurationError(
                f"GatewayConfig.service_workers must be an int >= 0, got "
                f"{self.service_workers!r}"
            )
