"""repro.streaming — stateful chunked separation with bounded latency.

A :class:`StreamingSeparator` wraps any offline
:class:`repro.separation.Separator` and consumes a live stream in
arbitrary-size blocks: it windows the incoming signal into overlapping
analysis segments, separates each segment with sliding f0-track slices,
and cross-fades segment outputs, emitting per-source samples with
latency bounded by one segment length.

:func:`stream_record` drives one whole record through an engine chunk
by chunk; :meth:`repro.service.SeparationService.stream_batch` maps it
over a record set and scores the results like ``separate_batch``.
"""

from repro.streaming.engine import (
    StreamingSeparator,
    crossfade_ramp,
    stream_record,
)

__all__ = [
    "StreamingSeparator",
    "crossfade_ramp",
    "stream_record",
]
