"""Streaming a record set: :func:`repro.streaming.stream_record` per record.

:func:`stream_records` is the offline-compatible entry point for live
feeds: it streams every :class:`repro.pipeline.SeparationRecord` chunk
by chunk through its own :class:`repro.streaming.StreamingSeparator`
and returns the same scored :class:`repro.pipeline.BatchResult` the
batch pipeline produces, via the shared
:func:`repro.pipeline.batch.finalize_record`.

Records stream one after another in the calling process.  Fanning
them across threads measured slower than this loop, and whole-batch
fan-out in worker processes is what
:meth:`repro.service.SeparationService.separate_batch` is for.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.pipeline.batch import (
    BatchResult,
    SeparationRecord,
    finalize_record,
)
from repro.separation import Separator
from repro.streaming.engine import stream_record
from repro.utils.validation import check_positive_int


def stream_records(
    separator: Separator,
    records: Sequence[SeparationRecord],
    segment_samples: int,
    overlap_samples: int,
    chunk_samples: int,
    postprocess: Optional[Callable] = None,
    score: bool = True,
) -> BatchResult:
    """Stream a record set chunk by chunk and score like the batch pipeline.

    Every record is fed to its own streaming engine in chunks of
    ``chunk_samples`` (:func:`repro.streaming.stream_record`), and the
    stitched estimates run through the same post-processing/scoring
    back end as :class:`repro.pipeline.SeparationPipeline`.  All records
    must share one sampling rate and have distinct names.
    """
    check_positive_int(chunk_samples, "chunk_samples")
    records = list(records)
    if not records:
        return BatchResult(results=[], separator_name=separator.name)
    rates = {float(r.sampling_hz) for r in records}
    if len(rates) > 1:
        raise ConfigurationError(
            f"stream_records needs one shared sampling rate, got {sorted(rates)}"
        )
    names = [record.name or f"record{i}" for i, record in enumerate(records)]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            "records must have distinct names for streaming"
        )

    results = []
    for record in records:
        estimates, _ = stream_record(
            separator, record.mixed, record.sampling_hz, record.f0_tracks,
            segment_samples, overlap_samples, chunk_samples,
        )
        results.append(finalize_record(
            separator.name, record, estimates,
            postprocess=postprocess, score=score,
        ))
    return BatchResult(results=results, separator_name=separator.name)
