"""repro.pipeline — batched, process-sharded separation over record sets.

The pipeline subsystem turns the single-record :class:`repro.separation.
Separator` interface into a batch processor: build
:class:`SeparationRecord` objects (or a whole list at once with
:func:`records_from_arrays`), hand them to a
:class:`SeparationPipeline`, and get back a :class:`BatchResult` whose
per-source scores feed :mod:`repro.metrics.aggregate` and the
figure/table runners directly.

Fan-out (``workers > 1``) is sharded across worker processes:
:func:`plan_shards` groups the batch by :func:`shard_key` — sampling
rate, record length, and the separator's STFT geometry — and each
:class:`Shard` travels through ``separate_batch`` whole on a
:class:`ShardedExecutor`, so vectorized batch overrides survive
parallelism.  The engine is a persistent worker pool with shared-memory
array transport (:class:`ShmBlock`) and exactly one separator
serialization per worker; a worker death raises
:class:`repro.errors.WorkerPoolError` and the next call rebuilds the
pool.  There is no thread fan-out: a deep-prior fit holds the
interpreter lock between BLAS calls, so threads never beat serial.

Live feeds go through the streaming side instead:
:func:`stream_records` streams every record of a set chunk by chunk
through its own :class:`repro.streaming.StreamingSeparator`, one record
after another, and returns the same scored :class:`BatchResult` as the
offline pipeline.

The DSP substrate it leans on — cached :class:`repro.dsp.StftPlan`
objects, the vectorized grouped overlap-add, and the batched
:func:`repro.dsp.stft_batch` / :func:`repro.dsp.istft_batch` pair — is
re-exported here for convenience, since batch separators are the main
consumer.
"""

from repro.dsp.plan import (
    StftPlan,
    cache_friendly_chunk,
    clear_plan_cache,
    get_stft_plan,
    overlap_add,
)
from repro.dsp.stft import BatchStft, istft_batch, stft_batch
from repro.pipeline.batch import (
    BatchResult,
    RecordResult,
    SeparationPipeline,
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
from repro.pipeline.stream import stream_records

__all__ = [
    "BatchResult",
    "RecordResult",
    "SeparationPipeline",
    "SeparationRecord",
    "Shard",
    "ShardedExecutor",
    "ShmBlock",
    "finalize_record",
    "plan_shards",
    "records_from_arrays",
    "shard_key",
    "stream_records",
    "StftPlan",
    "cache_friendly_chunk",
    "clear_plan_cache",
    "get_stft_plan",
    "overlap_add",
    "BatchStft",
    "istft_batch",
    "stft_batch",
]
