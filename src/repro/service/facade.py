"""The :class:`SeparationService` facade: one front door, three modes.

Configure a method once (by registry name,
:class:`repro.service.SeparatorSpec`, or spec dict) and execute it in
any mode::

    with SeparationService("spectral-masking", workers=4) as service:
        one   = service.separate(record)               # offline
        many  = service.separate_batch(records)        # record set
        live  = service.stream(record, chunk_samples=100,
                               segment_samples=1000, overlap_samples=450)

Every mode returns a :class:`SeparationOutcome` wrapping a
``RecordResult`` or :class:`repro.pipeline.BatchResult` (plus
:class:`repro.core.DHFResult` diagnostics when the method provides
them), and every mode shares the process-wide :mod:`repro.dsp.plan`
STFT-plan cache.  The service is the only runner of record sets: a
``workers > 1`` service owns one :class:`repro.pipeline.ShardedExecutor`,
whose worker processes persist across batch calls.

Routing is thin by design — ``separate`` calls the separator directly,
``separate_batch`` takes raw estimates from the shard engine (a
multi-record set on a ``workers > 1`` service) or from
:func:`repro.pipeline.batch.separate_records` (one ``separate_batch``
call per sampling rate, in this process), and ``stream`` /
``stream_batch`` from :func:`repro.streaming.stream_record`, one record
at a time — so service results are *identical* to the direct APIs, and
all scoring goes through the shared
:func:`repro.pipeline.batch.finalize_record`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.pipeline.batch import (
    BatchResult,
    Postprocess,
    RecordResult,
    SeparationRecord,
    finalize_record,
    separate_records,
)
from repro.pipeline.shard import ShardedExecutor
from repro.separation import Separator
from repro.service.registry import SpecLike, build_separator, resolve_spec
from repro.service.specs import SeparatorSpec
from repro.streaming.engine import stream_record
from repro.utils.validation import check_positive_int

#: Modes a :class:`SeparationOutcome` can report.
MODES = ("offline", "batch", "stream")


@dataclass
class SeparationOutcome:
    """Unified result of one service call, whatever the mode.

    Exactly one of ``record`` (offline / single-record stream) or
    ``batch`` (batch / multi-record stream) carries the estimates;
    ``detail`` holds method-specific diagnostics (a
    :class:`repro.core.DHFResult` for DHF offline runs).
    """

    separator_name: str
    spec: Optional[SeparatorSpec]
    mode: str
    record: Optional[RecordResult] = None
    batch: Optional[BatchResult] = None
    detail: Any = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if (self.record is None) == (self.batch is None):
            raise ConfigurationError(
                "outcome needs exactly one of record= or batch="
            )

    @property
    def estimates(self) -> Dict[str, np.ndarray]:
        """Per-source estimates of a single-record outcome."""
        if self.record is None:
            raise ConfigurationError(
                "estimates is only defined for single-record outcomes; "
                "use .batch for batch results"
            )
        return self.record.estimates

    @property
    def scores(self) -> Dict[str, Tuple[float, float]]:
        """``{source: (sdr_db, mse)}`` of a single-record outcome."""
        if self.record is None:
            raise ConfigurationError(
                "scores is only defined for single-record outcomes; "
                "use .batch for batch results"
            )
        return self.record.scores

    def summary(self) -> Dict[str, Tuple[float, float]]:
        """Paper-style per-source aggregate of the wrapped results."""
        if self.batch is not None:
            return self.batch.summary()
        batch = BatchResult(
            results=[self.record], separator_name=self.separator_name
        )
        return batch.summary()

    def __repr__(self) -> str:
        inner = (
            f"records={len(self.batch)}" if self.batch is not None
            else f"sources={list(self.record.estimates)}"
        )
        return (
            f"SeparationOutcome(method={self.separator_name!r}, "
            f"mode={self.mode!r}, {inner})"
        )


def as_record(
    record: Union[SeparationRecord, Mapping[str, Any], None] = None,
    mixed=None,
    sampling_hz: Optional[float] = None,
    f0_tracks: Optional[Mapping[str, np.ndarray]] = None,
    name: str = "",
    references: Optional[Mapping[str, np.ndarray]] = None,
) -> SeparationRecord:
    """Coerce service inputs into one :class:`SeparationRecord`.

    Accepts a ready record, a mapping of record fields, or the raw
    ``mixed`` / ``sampling_hz`` / ``f0_tracks`` triple — but not both at
    once: field keywords alongside a ready record would be silently
    ignored, so they raise instead.
    """
    if record is not None:
        given = {
            name: value for name, value in (
                ("mixed", mixed), ("sampling_hz", sampling_hz),
                ("f0_tracks", f0_tracks), ("name", name or None),
                ("references", references),
            ) if value is not None
        }
        if given:
            raise ConfigurationError(
                f"pass either a record or record fields, not both "
                f"(got record plus {sorted(given)})"
            )
    if isinstance(record, SeparationRecord):
        return record
    if isinstance(record, Mapping):
        return SeparationRecord(**record)
    if record is not None:
        raise ConfigurationError(
            f"record must be a SeparationRecord or mapping, got "
            f"{type(record).__name__}"
        )
    if mixed is None or sampling_hz is None or f0_tracks is None:
        raise ConfigurationError(
            "pass a SeparationRecord or all of mixed=, sampling_hz= and "
            "f0_tracks="
        )
    return SeparationRecord(
        mixed=mixed, sampling_hz=sampling_hz, f0_tracks=f0_tracks,
        name=name, references=references,
    )


class SeparationService:
    """Mode-routing facade over one configured separation method.

    Parameters
    ----------
    method:
        Registry name, :class:`SeparatorSpec`, spec dict, or an already
        built :class:`repro.separation.Separator` (the escape hatch for
        hand-constructed instances; such a service reports the
        separator's ``spec`` when that is a :class:`SeparatorSpec`, else
        ``spec=None``).
    workers:
        Batch fan-out.  ``0``/``1`` runs serially (batch mode then uses
        vectorized ``separate_batch`` hooks); ``> 1`` runs multi-record
        batches on a service-owned :class:`repro.pipeline.ShardedExecutor`
        with that many worker processes, built with the service and
        reused across calls (its pool starts on the first batch).  It
        moves arrays through shared memory and pickles the separator
        once, for every worker, so a hand-built separator must be
        picklable.  Streaming always runs in this process.
    executor:
        Kept only for callers that name the fan-out explicitly; the one
        accepted value is ``"process"``.
    postprocess:
        Optional ``f(estimate, record) -> estimate`` applied before
        scoring in every mode (e.g. the paper's scoring-band filter).
        Records that carry ``references`` are scored in every mode.

    The service is a context manager; leaving the ``with`` block shuts
    down the shard engine's worker processes.
    """

    def __init__(
        self,
        method: Union[SpecLike, Separator],
        workers: int = 0,
        executor: str = "process",
        postprocess: Optional[Postprocess] = None,
    ):
        if isinstance(method, Separator):
            spec = getattr(method, "spec", None)
            self.spec: Optional[SeparatorSpec] = \
                spec if isinstance(spec, SeparatorSpec) else None
            self.separator = method
        else:
            self.spec = resolve_spec(method)
            self.separator = build_separator(self.spec)
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if executor != "process":
            raise ConfigurationError(
                f"executor must be 'process', got {executor!r}: fan-out is "
                f"process shards now (workers > 1 runs a ShardedExecutor)"
            )
        self.workers = int(workers)
        self.postprocess = postprocess
        self._engine: Optional[ShardedExecutor] = None
        if self.workers > 1:
            self._engine = ShardedExecutor(
                self.separator, workers=self.workers
            )
        self._closed = False

    # ------------------------------------------------------------------ #
    # Mode routing
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; closed services refuse work."""
        return self._closed

    def _check_open(self) -> None:
        """Refuse to run on a closed service, loudly.

        Lifecycle managers — the gateway's worker tier in particular —
        depend on a closed service failing fast rather than quietly
        starting worker processes again.
        """
        if self._closed:
            raise RuntimeError(
                f"SeparationService({self.separator.name!r}) is closed; "
                f"create a new service instead of reusing a closed one"
            )

    def separate(
        self,
        record: Union[SeparationRecord, Mapping[str, Any], None] = None,
        detailed: bool = False,
        **record_fields,
    ) -> SeparationOutcome:
        """Offline mode: one record through ``Separator.separate``.

        ``detailed=True`` additionally captures the method's diagnostic
        result (``separate_detailed``, when the separator provides it —
        DHF's per-round masks, losses, and residual) on
        :attr:`SeparationOutcome.detail`.
        """
        self._check_open()
        rec = as_record(record, **record_fields)
        detail = None
        if detailed and hasattr(self.separator, "separate_detailed"):
            detail = self.separator.separate_detailed(
                rec.mixed, rec.sampling_hz, rec.f0_tracks,
                reference_sources=rec.references,
            )
            estimates = detail.estimates
        else:
            estimates = self.separator.separate(
                rec.mixed, rec.sampling_hz, rec.f0_tracks
            )
        result = finalize_record(
            self.separator.name, rec, estimates,
            postprocess=self.postprocess,
        )
        return SeparationOutcome(
            separator_name=self.separator.name, spec=self.spec,
            mode="offline", record=result, detail=detail,
        )

    def separate_batch(
        self, records: Sequence[SeparationRecord]
    ) -> SeparationOutcome:
        """Batch mode: a record set through the separator's
        ``separate_batch`` hook — on the service's shard engine for a
        multi-record set on a ``workers > 1`` service, otherwise in this
        process, one call per sampling rate."""
        self._check_open()
        records = list(records)
        if self._engine is not None and len(records) > 1:
            estimates = self._engine.separate_records(records)
        else:
            estimates = separate_records(self.separator, records)
        return self._batch_outcome("batch", records, estimates)

    def stream(
        self,
        record: Union[SeparationRecord, Mapping[str, Any], None] = None,
        chunk_samples: Optional[int] = None,
        segment_samples: Optional[int] = None,
        overlap_samples: Optional[int] = None,
        **record_fields,
    ) -> SeparationOutcome:
        """Streaming mode: one record chunked through a
        :class:`repro.streaming.StreamingSeparator`
        (:func:`repro.streaming.stream_record`).

        Defaults make streaming degenerate *exactly* to the offline
        path: ``segment_samples`` defaults to the whole record (a single
        analysis segment, no cross-fades), ``overlap_samples`` to a
        quarter segment, and ``chunk_samples`` to one second of signal.
        Pass explicit values for genuine bounded-latency operation.
        """
        self._check_open()
        rec = as_record(record, **record_fields)
        # `is None` (not falsy-or): an explicit 0 must reach the engine's
        # own validation and raise, not be silently replaced.
        segment = int(
            rec.n_samples if segment_samples is None else segment_samples
        )
        overlap = int(
            max(1, segment // 4) if overlap_samples is None
            else overlap_samples
        )
        chunk = (
            max(1, round(rec.sampling_hz)) if chunk_samples is None
            else chunk_samples
        )
        estimates, _ = stream_record(
            self.separator, rec.mixed, rec.sampling_hz, rec.f0_tracks,
            segment, overlap, chunk,
        )
        result = finalize_record(
            self.separator.name, rec, estimates,
            postprocess=self.postprocess,
        )
        return SeparationOutcome(
            separator_name=self.separator.name, spec=self.spec,
            mode="stream", record=result,
        )

    def stream_batch(
        self,
        records: Sequence[SeparationRecord],
        segment_samples: int,
        overlap_samples: int,
        chunk_samples: int,
    ) -> SeparationOutcome:
        """Streaming mode over a record set: each record chunked through
        its own :class:`repro.streaming.StreamingSeparator`
        (:func:`repro.streaming.stream_record`), one after another in
        this process, whatever ``workers`` is.  The records must share
        one sampling rate and have distinct names."""
        self._check_open()
        check_positive_int(chunk_samples, "chunk_samples")
        records = list(records)
        rates = {float(r.sampling_hz) for r in records}
        if len(rates) > 1:
            raise ConfigurationError(
                f"stream_batch needs one shared sampling rate, got "
                f"{sorted(rates)}"
            )
        names = [r.name or f"record{i}" for i, r in enumerate(records)]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                "records must have distinct names for streaming"
            )
        # A generator: each record is scored as soon as it has streamed.
        estimates = (
            stream_record(
                self.separator, record.mixed, record.sampling_hz,
                record.f0_tracks, segment_samples, overlap_samples,
                chunk_samples,
            )[0]
            for record in records
        )
        return self._batch_outcome("stream", records, estimates)

    def _batch_outcome(
        self,
        mode: str,
        records: Sequence[SeparationRecord],
        estimates: Iterable[Dict[str, np.ndarray]],
    ) -> SeparationOutcome:
        """Post-process and score a record set's raw estimates, in order."""
        batch = BatchResult(
            results=[
                finalize_record(
                    self.separator.name, record, estimate,
                    postprocess=self.postprocess,
                )
                for record, estimate in zip(records, estimates)
            ],
            separator_name=self.separator.name,
        )
        return SeparationOutcome(
            separator_name=self.separator.name, spec=self.spec,
            mode=mode, batch=batch,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the shard engine and mark the service closed.

        Idempotent: closing twice is a no-op.  Any later mode call
        raises :class:`RuntimeError`.
        """
        self._closed = True
        if self._engine is not None:
            self._engine.close()
            self._engine = None

    def __enter__(self) -> "SeparationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        spec = f"spec={self.spec!r}" if self.spec is not None else "spec=None"
        return (
            f"SeparationService(method={self.separator.name!r}, {spec}, "
            f"workers={self.workers})"
        )
