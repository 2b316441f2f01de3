"""JSON wire format of the gateway: records in, results and updates out.

Arrays travel as plain JSON lists of numbers.  Python's ``json`` module
serialises a ``float`` via ``repr``, which round-trips every finite
IEEE-754 double *exactly* — so estimates shipped through this module are
bitwise-identical on the far side, and the gateway can promise the same
streamed-equals-offline guarantee the in-process APIs make (non-finite
values cannot be represented in strict JSON and are rejected on the way
out rather than silently emitted as invalid tokens).

Inbound payloads are validated eagerly and every violation raises a
:class:`repro.errors.DataError` / :class:`repro.errors.ConfigurationError`
— the HTTP layer maps those onto structured 4xx bodies, so a malformed
submission can never take a worker down.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, DataError, ReproError
from repro.pipeline.batch import RecordResult, SeparationRecord
from repro.service.registry import resolve_spec
from repro.tfo.monitor import DrawEstimate, MonitorUpdate, SpO2MonitorResult

#: Job execution modes the gateway accepts.
JOB_MODES = ("separate", "separate_batch")


# --------------------------------------------------------------------- #
# Arrays
# --------------------------------------------------------------------- #
def array_to_wire(values: np.ndarray) -> List[float]:
    """A 1-D array as a JSON-able list of floats (exact round-trip)."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError(
            "cannot serialise non-finite samples to JSON; the payload "
            "contains NaN or infinity"
        )
    return [float(v) for v in arr]


def array_from_wire(values: Any, name: str) -> np.ndarray:
    """A JSON list back to a 1-D float64 array, with strict validation."""
    if isinstance(values, (str, bytes, Mapping)) or values is None:
        raise DataError(
            f"{name} must be a list of numbers, got "
            f"{type(values).__name__}"
        )
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(
            f"{name} must be a list of numbers"
        ) from None
    if arr.ndim != 1:
        raise DataError(
            f"{name} must be 1-D, got shape {arr.shape}"
        )
    return arr


def _tracks_from_wire(data: Any, name: str) -> Dict[str, np.ndarray]:
    if not isinstance(data, Mapping) or not data:
        raise DataError(
            f"{name} must be a non-empty mapping of source name to "
            f"sample list"
        )
    return {
        str(source): array_from_wire(track, f"{name}[{source!r}]")
        for source, track in data.items()
    }


# --------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------- #
def record_from_wire(data: Any, index: int = 0) -> SeparationRecord:
    """One wire-format record dict as a :class:`SeparationRecord`.

    Required keys: ``mixed`` (list of numbers), ``sampling_hz``
    (number), ``f0_tracks`` (mapping of source name to list).  Optional:
    ``name`` (string) and ``references`` (mapping like ``f0_tracks``).
    Unknown keys raise, so client typos (``f0tracks``) fail loudly.
    """
    if not isinstance(data, Mapping):
        raise DataError(
            f"record #{index} must be a JSON object, got "
            f"{type(data).__name__}"
        )
    known = {"mixed", "sampling_hz", "f0_tracks", "name", "references"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise DataError(
            f"record #{index} has unknown key(s) {unknown}; expected a "
            f"subset of {sorted(known)}"
        )
    missing = sorted(
        key for key in ("mixed", "sampling_hz", "f0_tracks")
        if key not in data
    )
    if missing:
        raise DataError(
            f"record #{index} is missing required key(s) {missing}"
        )
    sampling_hz = data["sampling_hz"]
    if not isinstance(sampling_hz, (int, float)) \
            or isinstance(sampling_hz, bool):
        raise DataError(
            f"record #{index} sampling_hz must be a number, got "
            f"{sampling_hz!r}"
        )
    references = None
    if data.get("references") is not None:
        references = _tracks_from_wire(
            data["references"], f"record #{index} references"
        )
    return SeparationRecord(
        mixed=array_from_wire(data["mixed"], f"record #{index} mixed"),
        sampling_hz=float(sampling_hz),
        f0_tracks=_tracks_from_wire(
            data["f0_tracks"], f"record #{index} f0_tracks"
        ),
        name=str(data.get("name", "") or ""),
        references=references,
    )


def record_to_wire(record: SeparationRecord) -> Dict[str, Any]:
    """A :class:`SeparationRecord` as its wire-format dict."""
    payload: Dict[str, Any] = {
        "mixed": array_to_wire(record.mixed),
        "sampling_hz": float(record.sampling_hz),
        "f0_tracks": {
            name: array_to_wire(track)
            for name, track in record.f0_tracks.items()
        },
        "name": record.name,
    }
    if record.references is not None:
        payload["references"] = {
            name: array_to_wire(ref)
            for name, ref in record.references.items()
        }
    return payload


# --------------------------------------------------------------------- #
# Job submissions
# --------------------------------------------------------------------- #
def parse_job_submission(data: Any) -> Dict[str, Any]:
    """Validate a POST /jobs body into its resolved parts.

    Returns ``{"spec": SeparatorSpec, "mode": str, "records": [...],
    "callback_url": Optional[str]}``.  Every invalid shape raises a
    :class:`ReproError` subclass (→ HTTP 4xx), including unknown
    methods and unknown spec fields, which keep the registry's
    did-you-mean messages.
    """
    if not isinstance(data, Mapping):
        raise DataError(
            f"job submission must be a JSON object, got "
            f"{type(data).__name__}"
        )
    known = {"method", "spec", "mode", "records", "callback_url"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise DataError(
            f"job submission has unknown key(s) {unknown}; expected a "
            f"subset of {sorted(known)}"
        )
    method = data.get("method")
    spec_dict = data.get("spec")
    if (method is None) == (spec_dict is None):
        raise ConfigurationError(
            "job submission needs exactly one of 'method' (a registry "
            "name) or 'spec' (a separator spec object)"
        )
    spec = resolve_spec(method if method is not None else spec_dict)
    mode = data.get("mode", "separate_batch")
    if mode not in JOB_MODES:
        raise ConfigurationError(
            f"job mode must be one of {JOB_MODES}, got {mode!r}"
        )
    raw_records = data.get("records")
    if not isinstance(raw_records, Sequence) \
            or isinstance(raw_records, (str, bytes)) or not raw_records:
        raise DataError(
            "job submission needs a non-empty 'records' list"
        )
    if mode == "separate" and len(raw_records) != 1:
        raise ConfigurationError(
            f"mode 'separate' takes exactly one record, got "
            f"{len(raw_records)}; use 'separate_batch' for record sets"
        )
    records = [
        record_from_wire(entry, i) for i, entry in enumerate(raw_records)
    ]
    callback_url = data.get("callback_url")
    if callback_url is not None and (
            not isinstance(callback_url, str) or not callback_url):
        raise ConfigurationError(
            f"callback_url must be a non-empty string, got "
            f"{callback_url!r}"
        )
    return {
        "spec": spec,
        "mode": mode,
        "records": records,
        "callback_url": callback_url,
    }


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #
def record_result_to_wire(
    result: RecordResult, estimates: bool = True,
) -> Dict[str, Any]:
    """One scored record result as its wire dict."""
    payload: Dict[str, Any] = {
        "name": result.name,
        "scores": {
            source: [float(sdr), float(err)]
            for source, (sdr, err) in result.scores.items()
        },
    }
    if estimates:
        payload["estimates"] = {
            source: array_to_wire(est)
            for source, est in result.estimates.items()
        }
    return payload


# --------------------------------------------------------------------- #
# Monitor updates
# --------------------------------------------------------------------- #
def draw_to_wire(draw: DrawEstimate) -> Dict[str, Any]:
    return {
        "index": draw.index,
        "time_s": draw.time_s,
        "sao2": draw.sao2,
        "ratio": draw.ratio,
        "spo2": draw.spo2,
        "completed_at": draw.completed_at,
        "degraded": draw.degraded,
    }


def monitor_update_to_wire(
    update: MonitorUpdate, index: int,
) -> Dict[str, Any]:
    """One :class:`repro.tfo.MonitorUpdate` as its wire dict.

    ``index`` is the session-wide update counter the long-poll endpoint
    pages on (``?since=<index>``).
    """
    payload: Dict[str, Any] = {
        "index": index,
        "n_pushed": update.n_pushed,
        "n_finalized": update.n_finalized,
        "ratio": update.ratio,
        "spo2": update.spo2,
        "completed": [draw_to_wire(d) for d in update.completed],
        "elapsed_s": update.elapsed_s,
        "degraded": update.degraded,
    }
    if update.estimates is not None:
        payload["estimates"] = {
            str(wl): array_to_wire(est)
            for wl, est in update.estimates.items()
        }
    return payload


def monitor_result_to_wire(result: SpO2MonitorResult) -> Dict[str, Any]:
    """A finished monitor's :class:`repro.tfo.SpO2MonitorResult`."""
    fit = None
    if result.fit is not None:
        fit = {
            "w0": result.fit.w0,
            "w1": result.fit.w1,
            "correlation": result.fit.correlation,
            "ratios": array_to_wire(result.fit.ratios),
            "spo2_estimates": array_to_wire(result.fit.spo2_estimates),
        }
    payload: Dict[str, Any] = {
        "draws": [draw_to_wire(d) for d in result.draws],
        "fit": fit,
        "n_samples": result.n_samples,
        "n_refits": result.n_refits,
        "crossfade_spans": {
            str(wl): [[int(lo), int(hi)] for lo, hi in spans]
            for wl, spans in result.crossfade_spans.items()
        },
    }
    if result.final_estimates is not None:
        payload["final_estimates"] = {
            str(wl): array_to_wire(est)
            for wl, est in result.final_estimates.items()
        }
    return payload


def error_to_wire(exc: BaseException) -> Dict[str, Any]:
    """The structured error body every 4xx/5xx response carries."""
    return {
        "error": type(exc).__name__,
        "message": str(exc),
        "repro_error": isinstance(exc, ReproError),
    }
