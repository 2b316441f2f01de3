"""JSON wire format of the gateway: records in, results and updates out.

Every float64 array travels as one tagged JSON object,
``{"f8": "<base64 of the little-endian float64 bytes>"}``
(:func:`array_to_wire`).  The wire carries the array's own bytes, so
every array round-trips *bitwise* by construction: the gateway keeps
the in-process APIs' promises that streamed results equal offline ones
and job results equal local ones.  Base64 costs ~10.7 bytes per sample
where JSON float text costs ~17.5, and it encodes and decodes without a
per-float Python loop.  Non-finite values are rejected on the way out,
so no array goes out as the bare ``NaN`` tokens strict JSON forbids.

The server parses request bodies with plain ``json.loads`` and decodes
each array field with :func:`array_from_wire`, which takes a tag (a
malformed one raises a :class:`repro.errors.DataError` naming the
field) or a plain JSON list of numbers, so hand-written bodies (a
``curl`` submission) keep working; a tag anywhere else stays the JSON
object it is.  :class:`repro.gateway.GatewayClient` parses responses
with :func:`array_object_hook`, so callers get writable float64 arrays.

Inbound payloads are validated eagerly and every violation raises a
:class:`repro.errors.DataError` / :class:`repro.errors.ConfigurationError`
— the HTTP layer maps those onto structured 4xx bodies, so a malformed
submission can never take a worker down.  Records go through
:class:`repro.pipeline.SeparationRecord`'s checks (finite samples, a
finite positive rate, finite positive f0 tracks as long as the record)
before a job is accepted.
"""

from __future__ import annotations

import base64
import binascii
from typing import Any, Dict, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, DataError, ReproError
from repro.pipeline.batch import RecordResult, SeparationRecord
from repro.service.registry import resolve_spec
from repro.tfo.monitor import DrawEstimate, MonitorUpdate, SpO2MonitorResult

#: Job execution modes the gateway accepts.
JOB_MODES = ("separate", "separate_batch")

#: The one key of a tagged array object.
ARRAY_TAG = "f8"


# --------------------------------------------------------------------- #
# Arrays
# --------------------------------------------------------------------- #
def array_to_wire(values: np.ndarray) -> Dict[str, str]:
    """A 1-D array as its tagged wire object (bitwise round-trip)."""
    arr = np.asarray(values, dtype="<f8")
    if arr.ndim != 1:
        raise DataError(
            f"only 1-D arrays go on the wire, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DataError(
            "cannot serialise non-finite samples to JSON; the payload "
            "contains NaN or infinity"
        )
    return {ARRAY_TAG: base64.b64encode(arr.tobytes()).decode("ascii")}


def _array_from_tag(data: Mapping, name: str) -> np.ndarray:
    """A tagged wire object back to a writable float64 array."""
    if set(data) != {ARRAY_TAG}:
        raise DataError(
            f"{name} must be a tagged array with the single key "
            f"{ARRAY_TAG!r}, got keys {sorted(map(str, data))}"
        )
    text = data[ARRAY_TAG]
    if not isinstance(text, str):
        raise DataError(
            f"{name}[{ARRAY_TAG!r}] must be a base64 string, got "
            f"{type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError):
        raise DataError(f"{name}[{ARRAY_TAG!r}] is not valid base64") from None
    if len(raw) % 8:
        raise DataError(
            f"{name}[{ARRAY_TAG!r}] decodes to {len(raw)} bytes, not a "
            f"whole number of 8-byte float64 samples"
        )
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def array_object_hook(obj: Dict[str, Any]) -> Any:
    """``json.loads`` object hook for responses: a tag becomes its array.

    Only an object that is exactly ``{"f8": <string>}`` is a tag; any
    other object (such as a score mapping whose source is named
    ``"f8"``) is returned as it is.
    """
    if len(obj) == 1 and isinstance(obj.get(ARRAY_TAG), str):
        return _array_from_tag(obj, ARRAY_TAG)
    return obj


def array_from_wire(values: Any, name: str) -> np.ndarray:
    """A wire array (a tag or a list of numbers) as a 1-D float64
    array, with strict validation."""
    if isinstance(values, Mapping):
        return _array_from_tag(values, name)
    if isinstance(values, (str, bytes)) or values is None:
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
            f"array"
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

    Required keys: ``mixed`` (an array: a tag or a list of numbers),
    ``sampling_hz`` (number), ``f0_tracks`` (mapping of source name to
    array).  Optional: ``name`` (string) and ``references`` (mapping
    like ``f0_tracks``).  Unknown keys raise, so client typos
    (``f0tracks``) fail loudly, and so does any record that
    :class:`SeparationRecord` rejects.
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
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise DataError(
            f"record #{index} name must be a string, got "
            f"{type(name).__name__}"
        )
    references = None
    if data.get("references") is not None:
        references = _tracks_from_wire(
            data["references"], f"record #{index} references"
        )
    mixed = array_from_wire(data["mixed"], f"record #{index} mixed")
    f0_tracks = _tracks_from_wire(
        data["f0_tracks"], f"record #{index} f0_tracks"
    )
    try:
        return SeparationRecord(
            mixed=mixed,
            sampling_hz=float(sampling_hz),
            f0_tracks=f0_tracks,
            name=name or "",
            references=references,
        )
    except ReproError as exc:  # the record's own checks; say which record
        raise type(exc)(f"record #{index} {exc}") from None


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
