"""repro.pipeline — record sets and their process-sharded fan-out.

Build :class:`SeparationRecord` objects (or a whole list at once with
:func:`records_from_arrays`) and hand them to
:meth:`repro.service.SeparationService.separate_batch` or
:meth:`~repro.service.SeparationService.stream_batch`; both return a
:class:`BatchResult` whose per-source scores feed
:mod:`repro.metrics.aggregate` and the figure/table runners directly.
The service is the only runner of record sets; this package holds what
it runs on.

Fan-out (a ``workers > 1`` service) is sharded across worker
processes: :func:`plan_shards` groups the batch by :func:`shard_key` —
sampling rate, record length, and the separator's STFT geometry — and
each :class:`Shard` travels through ``separate_batch`` whole on a
:class:`ShardedExecutor`, so vectorized batch overrides survive
parallelism.  The engine is a persistent worker pool with shared-memory
array transport (:class:`ShmBlock`) and exactly one separator
serialization per worker; a worker death raises
:class:`repro.errors.WorkerPoolError` and the next call rebuilds the
pool.  There is no thread fan-out: a deep-prior fit holds the
interpreter lock between BLAS calls, so threads never beat serial.
"""

from repro.pipeline.batch import (
    BatchResult,
    RecordResult,
    SeparationRecord,
    finalize_record,
    records_from_arrays,
)
from repro.pipeline.shard import (
    Shard,
    ShardedExecutor,
    ShmBlock,
    plan_shards,
    shard_key,
)

__all__ = [
    "BatchResult",
    "RecordResult",
    "SeparationRecord",
    "Shard",
    "ShardedExecutor",
    "ShmBlock",
    "finalize_record",
    "plan_shards",
    "records_from_arrays",
    "shard_key",
]
