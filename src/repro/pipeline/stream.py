"""Streaming a record set: :func:`repro.streaming.stream_record` per record.

:func:`stream_records` is the offline-compatible entry point for live
feeds: it streams every :class:`repro.pipeline.SeparationRecord` chunk
by chunk through its own :class:`repro.streaming.StreamingSeparator`
and returns the same scored :class:`repro.pipeline.BatchResult` the
batch pipeline produces, via the shared
:func:`repro.pipeline.batch.finalize_record`.

Streams are stateful, so fan-out is thread-only: with ``workers > 1``
whole records stream concurrently on a thread pool.  NumPy's FFT and
ufunc kernels release the GIL, which is the same reason ``"thread"`` is
the batch pipeline's default.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
    workers: int = 0,
    postprocess: Optional[Callable] = None,
    score: bool = True,
    pool: Optional[ThreadPoolExecutor] = None,
) -> BatchResult:
    """Stream a record set chunk by chunk and score like the batch pipeline.

    Every record is fed to its own streaming engine in chunks of
    ``chunk_samples`` (:func:`repro.streaming.stream_record`), and the
    stitched estimates run through the same post-processing/scoring
    back end as :class:`repro.pipeline.SeparationPipeline`.  All records
    must share one sampling rate and have distinct names.

    ``workers <= 1`` streams the records one after another; ``> 1``
    streams them concurrently on ``pool`` (an externally owned
    :class:`concurrent.futures.ThreadPoolExecutor`, never shut down
    here — the :class:`repro.service.SeparationService` facade shares
    its pool this way) or on a pool owned for the call.
    """
    check_positive_int(chunk_samples, "chunk_samples")
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if pool is not None and not isinstance(pool, ThreadPoolExecutor):
        raise ConfigurationError(
            f"pool must be a ThreadPoolExecutor, got {type(pool).__name__}"
        )
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

    def stream(record: SeparationRecord):
        estimates, _ = stream_record(
            separator, record.mixed, record.sampling_hz, record.f0_tracks,
            segment_samples, overlap_samples, chunk_samples,
        )
        return estimates

    if workers <= 1 or len(records) == 1:
        streamed = [stream(record) for record in records]
    elif pool is not None:
        streamed = list(pool.map(stream, records))
    else:
        with ThreadPoolExecutor(max_workers=workers) as own:
            streamed = list(own.map(stream, records))
    results = [
        finalize_record(
            separator.name, record, estimates,
            postprocess=postprocess, score=score,
        )
        for record, estimates in zip(records, streamed)
    ]
    return BatchResult(results=results, separator_name=separator.name)
