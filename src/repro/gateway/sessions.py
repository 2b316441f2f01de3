"""Live monitor sessions behind the gateway's streaming endpoints.

One :class:`MonitorSessionManager` owns every live fetal-SpO2 feed.  A
session wraps one :class:`repro.tfo.SpO2Monitor` (built with
``emit_estimates=True`` so each update carries the newly finalized
fetal-estimate samples) plus:

* a **bounded update log** — every ``push`` appends its wire-format
  :class:`~repro.tfo.monitor.MonitorUpdate` under a session-wide index;
  ``GET /sessions/<id>/updates?since=N`` long-polls that log through a
  per-session ``threading.Condition``, so a dashboard client needs no
  push channel, just HTTP;
* an **idle clock** — sessions untouched for
  ``session_idle_timeout_s`` are reaped (monitor closed, session
  dropped) by the gateway's housekeeping sweep, so abandoned feeds
  cannot hold their buffers forever.

Because the monitor's streamed outputs are bitwise-identical to the
offline separation outside cross-fade spans (and the wire carries each
array's float64 bytes unchanged), a client that stitches the
``estimates`` arrays from the update log plus ``final_estimates`` from
``finish`` reconstructs the offline result sample-for-sample outside
the spans reported in the finish payload.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, DataError
from repro.gateway.config import GatewayConfig
from repro.gateway.wire import (
    _tracks_from_wire,
    array_from_wire,
    monitor_result_to_wire,
    monitor_update_to_wire,
)
from repro.service.registry import resolve_spec
from repro.tfo.monitor import SpO2Monitor
from repro.utils.logging import get_logger

_LOG = get_logger("gateway.sessions")


class UnknownSession(KeyError):
    """No live session with that id (HTTP 404)."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class SessionConflict(RuntimeError):
    """The operation is invalid for the session's state (HTTP 409)."""


def _channels_from_wire(data: Any, name: str) -> Dict[int, Any]:
    """``{"740": <array>, "850": <array>}`` → ``{740: array, 850: array}``."""
    if not isinstance(data, Mapping) or not data:
        raise DataError(
            f"{name} must be a non-empty mapping of wavelength to array"
        )
    out = {}
    for key, values in data.items():
        try:
            wl = int(key)
        except (TypeError, ValueError):
            raise DataError(
                f"{name} keys must be integer wavelengths, got {key!r}"
            ) from None
        out[wl] = array_from_wire(values, f"{name}[{wl}]")
    return out


class _MonitorSession:
    """One live feed: the monitor, its update log, and its waiters."""

    def __init__(self, session_id: str, monitor: SpO2Monitor,
                 max_updates: int):
        self.session_id = session_id
        self.monitor = monitor
        self.cv = threading.Condition()
        #: ``(index, wire update)`` pairs, oldest first, bounded.
        self.updates: Deque[Tuple[int, Dict[str, Any]]] = deque(
            maxlen=max_updates
        )
        self.next_index = 0
        self.finished = False
        self.result: Optional[Dict[str, Any]] = None
        self.last_touch = time.monotonic()

    def touch(self) -> None:
        self.last_touch = time.monotonic()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "finished": self.finished,
            "n_updates": self.next_index,
            "n_pushed": self.monitor.n_pushed,
            "n_finalized": self.monitor.n_finalized,
            "max_latency_samples": self.monitor.max_latency_samples,
        }


class MonitorSessionManager:
    """Registry of live :class:`SpO2Monitor` sessions."""

    #: Session-create keys forwarded to :class:`SpO2Monitor` verbatim.
    _OPTIONAL_KEYS = ("window_s", "min_draws", "flag_dropouts_s")

    def __init__(self, config: GatewayConfig):
        self.config = config
        self._lock = threading.RLock()
        self._sessions: Dict[str, _MonitorSession] = {}
        self._next_id = 1
        self._closed = False
        self.n_created = 0
        self.n_reaped = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def create(self, data: Any) -> Dict[str, Any]:
        """Open a session from a POST /sessions body; returns its state.

        Required keys: one of ``method``/``spec``, plus ``sampling_hz``,
        ``segment_samples``, ``overlap_samples``.  Optional:
        ``ac_mean`` (number or ``{wavelength: number}``), ``window_s``,
        ``min_draws``, ``flag_dropouts_s``, ``emit_estimates`` (default
        true — the gateway's streamed-equals-offline story needs the
        estimate feed).
        """
        if not isinstance(data, Mapping):
            raise DataError(
                f"session request must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {
            "method", "spec", "sampling_hz", "segment_samples",
            "overlap_samples", "ac_mean", "emit_estimates",
            *self._OPTIONAL_KEYS,
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise DataError(
                f"session request has unknown key(s) {unknown}; expected "
                f"a subset of {sorted(known)}"
            )
        method = data.get("method")
        spec_dict = data.get("spec")
        if (method is None) == (spec_dict is None):
            raise ConfigurationError(
                "session request needs exactly one of 'method' or 'spec'"
            )
        spec = resolve_spec(method if method is not None else spec_dict)
        missing = sorted(
            key for key in ("sampling_hz", "segment_samples",
                            "overlap_samples")
            if key not in data
        )
        if missing:
            raise DataError(
                f"session request is missing required key(s) {missing}"
            )
        kwargs: Dict[str, Any] = {}
        ac_mean = data.get("ac_mean")
        if isinstance(ac_mean, Mapping):
            kwargs["ac_mean"] = {
                int(wl): float(v) for wl, v in ac_mean.items()
            }
        elif ac_mean is not None:
            kwargs["ac_mean"] = ac_mean
        for key in self._OPTIONAL_KEYS:
            if data.get(key) is not None:
                kwargs[key] = data[key]
        monitor = SpO2Monitor(
            spec,
            data["sampling_hz"],
            data["segment_samples"],
            data["overlap_samples"],
            emit_estimates=bool(data.get("emit_estimates", True)),
            **kwargs,
        )
        with self._lock:
            if self._closed:
                monitor.close()
                raise RuntimeError("MonitorSessionManager is closed")
            session_id = f"sess-{self._next_id:06d}"
            self._next_id += 1
            session = _MonitorSession(
                session_id, monitor, self.config.max_updates_kept
            )
            self._sessions[session_id] = session
            self.n_created += 1
        return session.state_dict()

    def _get(self, session_id: str) -> _MonitorSession:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise UnknownSession(
                    f"unknown session id {session_id!r} (never created, "
                    f"already deleted, or reaped after idling)"
                ) from None

    def session_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def state(self, session_id: str) -> Dict[str, Any]:
        session = self._get(session_id)
        with session.cv:
            return session.state_dict()

    # ------------------------------------------------------------------ #
    # Feed
    # ------------------------------------------------------------------ #
    def push(self, session_id: str, data: Any) -> Dict[str, Any]:
        """Feed one chunk; returns the resulting wire-format update."""
        session = self._get(session_id)
        if not isinstance(data, Mapping):
            raise DataError(
                f"push body must be a JSON object, got "
                f"{type(data).__name__}"
            )
        unknown = sorted(set(data) - {"ppg", "dc", "f0_tracks"})
        if unknown:
            raise DataError(
                f"push body has unknown key(s) {unknown}; expected "
                f"'ppg', 'dc' and 'f0_tracks'"
            )
        ppg = _channels_from_wire(data.get("ppg"), "ppg")
        dc = _channels_from_wire(data.get("dc"), "dc")
        tracks = _tracks_from_wire(data.get("f0_tracks"), "f0_tracks")
        with session.cv:
            if session.finished:
                raise SessionConflict(
                    f"session {session_id} is finished; open a new "
                    f"session to stream more data"
                )
            update = session.monitor.push(ppg, dc, tracks)
            payload = monitor_update_to_wire(update, session.next_index)
            session.updates.append((session.next_index, payload))
            session.next_index += 1
            session.touch()
            session.cv.notify_all()
        return payload

    def add_draws(self, session_id: str, data: Any) -> Dict[str, Any]:
        """Register blood draws: ``{"draws": [{"time_s":…, "sao2":…}]}``."""
        session = self._get(session_id)
        if not isinstance(data, Mapping) or "draws" not in data:
            raise DataError(
                "draw body must be a JSON object with a 'draws' list"
            )
        draws = data["draws"]
        if not isinstance(draws, (list, tuple)) or not draws:
            raise DataError("'draws' must be a non-empty list")
        parsed = []
        for i, entry in enumerate(draws):
            if not isinstance(entry, Mapping) or \
                    not {"time_s", "sao2"} <= set(entry):
                raise DataError(
                    f"draw #{i} must be an object with 'time_s' and "
                    f"'sao2'"
                )
            parsed.append((float(entry["time_s"]), float(entry["sao2"])))
        with session.cv:
            if session.finished:
                raise SessionConflict(
                    f"session {session_id} is finished; draws must "
                    f"arrive before finish"
                )
            for time_s, sao2 in parsed:
                session.monitor.add_draw(time_s, sao2)
            session.touch()
        return {"session_id": session_id, "n_draws": len(parsed)}

    # ------------------------------------------------------------------ #
    # Long-poll
    # ------------------------------------------------------------------ #
    def updates(
        self,
        session_id: str,
        since: int = 0,
        timeout_s: float = 10.0,
    ) -> Dict[str, Any]:
        """Updates with index >= ``since``; blocks until some exist.

        Returns immediately once at least one matching update is in the
        (bounded) log, the session finishes, or ``timeout_s`` elapses —
        whichever comes first.  When the log has already evicted entries
        older than ``since``, the response's ``first_index`` exceeds
        ``since`` and the client knows it missed that many updates.
        """
        if not isinstance(since, int) or since < 0:
            raise DataError(f"since must be a non-negative int, got {since!r}")
        session = self._get(session_id)
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        with session.cv:
            while True:
                fresh = [p for i, p in session.updates if i >= since]
                if fresh or session.finished:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                session.cv.wait(timeout=remaining)
            session.touch()
            first = fresh[0]["index"] if fresh else session.next_index
            return {
                "session_id": session_id,
                "updates": fresh,
                "first_index": first,
                "next_since": (
                    fresh[-1]["index"] + 1 if fresh else max(
                        since, session.next_index if session.finished else 0
                    )
                ),
                "finished": session.finished,
            }

    # ------------------------------------------------------------------ #
    # Finish / delete / reap
    # ------------------------------------------------------------------ #
    def finish(self, session_id: str) -> Dict[str, Any]:
        """Flush the monitor and return the final wire-format result.

        Idempotent for clients: finishing an already finished session
        returns the stored result again.
        """
        session = self._get(session_id)
        with session.cv:
            if session.finished:
                return session.result
            result = session.monitor.finish()
            session.result = {
                "session_id": session_id,
                **monitor_result_to_wire(result),
            }
            session.finished = True
            session.touch()
            session.cv.notify_all()
            return session.result

    @staticmethod
    def _end(session: _MonitorSession) -> None:
        """Mark a dropped session finished, wake its waiters, close it."""
        with session.cv:
            session.finished = True
            session.cv.notify_all()
        session.monitor.close()

    def delete(self, session_id: str) -> Dict[str, Any]:
        """Close a session's monitor and drop it."""
        with self._lock:
            session = self._get(session_id)
            del self._sessions[session_id]
        self._end(session)
        return {"session_id": session_id, "deleted": True}

    def reap_idle(self, now: Optional[float] = None) -> List[str]:
        """Close and drop sessions idle past ``session_idle_timeout_s``."""
        now = time.monotonic() if now is None else now
        cutoff = now - self.config.session_idle_timeout_s
        with self._lock:
            stale = {
                sid: session for sid, session in self._sessions.items()
                if session.last_touch <= cutoff
            }
            for sid in stale:
                del self._sessions[sid]
                self.n_reaped += 1
        for sid, session in stale.items():
            self._end(session)
            _LOG.info("reaped idle monitor session %s", sid)
        return list(stale)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            self._end(session)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MonitorSessionManager(live={len(self._sessions)}, "
                f"created={self.n_created}, reaped={self.n_reaped})"
            )
