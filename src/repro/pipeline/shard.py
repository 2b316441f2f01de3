"""Sharded multi-process separation over shared-memory transport.

The naive way to fan a record batch across a process pool — pickle the
separator plus one record per task — throws away exactly the thing the
batch layer exists for: the separator's vectorized ``separate_batch``
hook (stacked DHF deep-prior fits, batched spectral masking) only runs
when a *group* of compatible records reaches the separator in one call.
This module keeps the group intact across the process boundary:

1. **Sharding** — :func:`plan_shards` groups a record batch by
   :func:`shard_key` — ``(sampling rate, record length, STFT geometry)``
   — and splits each group into at most ``max_workers`` contiguous
   sub-shards.  Records inside one shard are exactly the records the
   separator's batch hook can vectorize together; records that must not
   share a ``separate_batch`` call (different rates, lengths or
   geometries) can never land in the same shard.

2. **Shared-memory transport** — every shard's arrays travel through one
   :class:`multiprocessing.shared_memory` block wrapped by
   :class:`ShmBlock`: the parent packs ``mixed`` and the f0 tracks into
   a single block and sends only a tiny picklable handle (name +
   offsets/shapes/dtypes); the worker maps the block, copies the arrays
   out, and returns its estimates through a block of its own.  No
   spectrogram, signal, or track is ever pickled.

3. **One separator per worker** — the separator crosses the boundary
   once per *worker*, not once per record: it is pickled a single time
   at engine construction (a few hundred bytes for a built-in method)
   and the worker initializer unpickles those bytes in every worker.

Block ownership is explicit: whoever *created* a block hands it over by
returning/holding only its handle; the *final consumer* (always the
parent) unlinks it.  A worker that dies between creating its result
block and returning the handle leaks the block only until interpreter
shutdown — the shared resource tracker reclaims it then.

:class:`ShardedExecutor` drives the whole protocol behind one call —
``separate_records(records)`` — over a persistent
:class:`concurrent.futures.ProcessPoolExecutor`.  A worker death
surfaces as a structured :class:`repro.errors.WorkerPoolError` (never a
hang) and discards the broken pool; the next call builds a fresh one.
It is the package's only fan-out: a ``workers > 1``
:class:`repro.service.SeparationService` builds one and keeps it alive
across calls.
One engine may serve several threads at once (a gateway's job threads
share a service per spec); a lock makes the lazy pool exactly one pool.
"""

from __future__ import annotations

import ctypes
import glob
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, WorkerPoolError
from repro.pipeline.batch import checked_separate_batch
from repro.separation import Separator

__all__ = [
    "Shard",
    "ShardedExecutor",
    "ShmBlock",
    "plan_shards",
    "shard_key",
]


# --------------------------------------------------------------------- #
# Shard planning
# --------------------------------------------------------------------- #
def shard_key(separator: Separator, record) -> Tuple:
    """The grouping key of one record under one separator.

    Always ``(sampling_hz, n_samples)`` — the invariants every
    ``separate_batch`` hook in the package relies on — extended with the
    separator's ``(n_fft, hop)`` when it exposes ``stft_geometry``
    (e.g. :class:`repro.baselines.SpectralMaskingSeparator`), so two
    records sharing a key are guaranteed to share one analysis geometry.
    DHF needs no geometry probe: equal rate and length give equal
    alignment geometry per round, which is what its stacked batched fits
    group on internally.
    """
    rate = float(record.sampling_hz)
    key: List[Any] = [rate, int(record.n_samples)]
    probe = getattr(separator, "stft_geometry", None)
    if callable(probe):
        key.extend(int(v) for v in probe(rate, int(record.n_samples)))
    return tuple(key)


@dataclass(frozen=True)
class Shard:
    """One dispatchable group of batch-compatible records.

    ``indices`` point into the original record sequence; results are
    reassembled into input order from them.
    """

    key: Tuple
    indices: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def plan_shards(
    separator: Separator,
    records: Sequence,
    max_workers: int = 1,
) -> List[Shard]:
    """Group ``records`` by :func:`shard_key` and split for ``max_workers``.

    Each key group is split into contiguous near-even sub-shards, the
    group's share of ``max_workers`` (at least one, never more than the
    group has records) — so a single-geometry batch on one worker stays
    one shard (maximal batching) while the same batch on eight workers
    splits eight ways (maximal parallelism, batching preserved inside
    each shard).
    """
    if max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be >= 1, got {max_workers}"
        )
    groups: Dict[Tuple, List[int]] = {}
    for i, record in enumerate(records):
        groups.setdefault(shard_key(separator, record), []).append(i)
    n_total = sum(len(idx) for idx in groups.values())
    shards: List[Shard] = []
    for key, idx in groups.items():
        n_sub = min(
            len(idx), max(1, round(max_workers * len(idx) / n_total))
        )
        base, extra = divmod(len(idx), n_sub)
        start = 0
        for j in range(n_sub):
            size = base + (1 if j < extra else 0)
            shards.append(Shard(key=key, indices=tuple(idx[start:start + size])))
            start += size
    return shards


# --------------------------------------------------------------------- #
# Shared-memory transport
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Entry:
    """Location of one array inside a block."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


class ShmBlock:
    """Many arrays in one shared-memory block, with explicit ownership.

    Lifecycle: the producing side :meth:`pack` s its arrays (creating
    the block), ships the picklable :meth:`handle` across the process
    boundary, and :meth:`close` s its own mapping; the consuming side
    :meth:`attach` es, copies the arrays out with :meth:`arrays`, then
    :meth:`close` s — and whichever side is the block's *final* consumer
    calls :meth:`unlink` exactly once to release the segment.  In the
    shard protocol the parent is always the final consumer of both
    directions.  :meth:`release` is the parent's ``close`` + ``unlink``
    shorthand; both are idempotent.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 entries: Tuple[_Entry, ...]):
        self._shm = shm
        self._entries = entries
        self._closed = False
        self._unlinked = False

    @classmethod
    def pack(cls, arrays: Sequence[np.ndarray]) -> "ShmBlock":
        """Create a block holding copies of ``arrays`` (in order)."""
        contiguous = [np.ascontiguousarray(a) for a in arrays]
        entries: List[_Entry] = []
        offset = 0
        for a in contiguous:
            entries.append(_Entry(offset, tuple(a.shape), a.dtype.str))
            offset += a.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        for a, entry in zip(contiguous, entries):
            if a.nbytes:
                view = np.ndarray(
                    entry.shape, dtype=a.dtype, buffer=shm.buf,
                    offset=entry.offset,
                )
                view[...] = a
                del view  # drop the buffer export before any close()
        return cls(shm, tuple(entries))

    @classmethod
    def attach(cls, handle: Dict[str, Any]) -> "ShmBlock":
        """Map an existing block from a :meth:`handle` dictionary."""
        shm = shared_memory.SharedMemory(name=handle["name"])
        entries = tuple(
            _Entry(int(offset), tuple(shape), str(dtype))
            for offset, shape, dtype in handle["entries"]
        )
        return cls(shm, entries)

    def handle(self) -> Dict[str, Any]:
        """The picklable description another process attaches with."""
        return {
            "name": self._shm.name,
            "entries": [
                (e.offset, e.shape, e.dtype) for e in self._entries
            ],
        }

    def arrays(self) -> List[np.ndarray]:
        """Independent copies of every packed array, in pack order.

        Copies (rather than views) so the mapping can be closed
        immediately — no caller ever holds a reference into the segment.
        """
        out: List[np.ndarray] = []
        for entry in self._entries:
            view = np.ndarray(
                entry.shape, dtype=np.dtype(entry.dtype),
                buffer=self._shm.buf, offset=entry.offset,
            )
            out.append(np.array(view, copy=True))
            del view
        return out

    def close(self) -> None:
        """Unmap this process's view of the block (idempotent)."""
        if not self._closed:
            self._shm.close()
            self._closed = True

    def unlink(self) -> None:
        """Release the underlying segment (final consumer, idempotent)."""
        if not self._unlinked:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already released elsewhere
                pass
            self._unlinked = True

    def release(self) -> None:
        """Close and unlink — the final consumer's one-call teardown."""
        self.close()
        self.unlink()


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #
_WORKER_SEPARATOR: Optional[Separator] = None


def _pin_blas_threads(workers: int) -> None:
    """Give this worker its share of the usable cores for OpenBLAS.

    Every worker's BLAS would otherwise start one thread per core, so
    ``workers`` processes oversubscribe the machine ``workers``-fold —
    and a deep-prior fit spends most of its time inside BLAS.  Sets
    numpy's bundled OpenBLAS to ``max(1, usable cores // workers)``
    threads; does nothing when that library is not loaded.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(max(1, cores // workers))


def _renew_tracker_lock() -> None:
    """Give this worker a fresh shared-memory resource-tracker lock.

    Workers are forked.  If another parent thread was registering or
    releasing a block at that moment (a second caller of the same
    engine, or another engine's caller), the worker inherits the
    tracker's lock held by a thread that does not exist here, and its
    first :meth:`ShmBlock.attach` waits forever.  A worker runs one
    thread, so an unheld lock is the right state.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_lock"):
        tracker._lock = threading.RLock()


def _init_worker(separator_bytes: bytes, workers: int) -> None:
    """Unpickle this worker's separator once.

    Runs as the :class:`ProcessPoolExecutor` initializer — the only
    time the separator crosses the process boundary.  It first renews
    the inherited resource-tracker lock (:func:`_renew_tracker_lock`)
    and pins the worker's BLAS threads to its share of the cores
    (:func:`_pin_blas_threads`, from the pool's ``workers`` count).
    """
    global _WORKER_SEPARATOR
    _renew_tracker_lock()
    _pin_blas_threads(workers)
    _WORKER_SEPARATOR = pickle.loads(separator_bytes)


def _run_shard(task: Dict[str, Any]) -> Dict[str, Any]:
    """Separate one shard inside a worker, shared memory in and out."""
    separator = _WORKER_SEPARATOR
    if separator is None:
        raise RuntimeError("shard worker used before initialization")
    block = ShmBlock.attach(task["block"])
    try:
        flat = block.arrays()
    finally:
        block.close()  # the parent unlinks; see ShmBlock lifecycle
    mixed_list: List[np.ndarray] = []
    tracks_list: List[Dict[str, np.ndarray]] = []
    cursor = 0
    for names in task["sources"]:
        mixed_list.append(flat[cursor])
        cursor += 1
        tracks_list.append(
            {name: flat[cursor + k] for k, name in enumerate(names)}
        )
        cursor += len(names)
    estimates = checked_separate_batch(
        separator, mixed_list, task["sampling_hz"], tracks_list
    )
    out_arrays: List[np.ndarray] = []
    layout: List[List[str]] = []
    for estimate in estimates:
        names = list(estimate)
        layout.append(names)
        out_arrays.extend(np.asarray(estimate[name]) for name in names)
    out = ShmBlock.pack(out_arrays)
    out.close()  # keep the segment; the parent attaches by handle
    return {"block": out.handle(), "sources": layout}


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #
class ShardedExecutor:
    """Persistent process pool running shards through ``separate_batch``.

    Parameters
    ----------
    separator:
        The separation method; used in the parent only for shard
        planning — the work happens on per-worker copies.  It is
        pickled once, here, so it must be picklable.
    workers:
        Worker process count (>= 1); also the shard-splitting target of
        :func:`plan_shards`.

    The pool is created lazily on the first :meth:`separate_records`
    call and survives across calls; :meth:`close` shuts it down (the
    engine is a context manager, and closing twice is a no-op — the
    same lifecycle contract as :class:`repro.service.SeparationService`).
    A worker death raises :class:`repro.errors.WorkerPoolError` and
    discards the pool, so the next call starts from a fresh one.
    """

    def __init__(self, separator: Separator, workers: int):
        if not isinstance(separator, Separator):
            raise ConfigurationError(
                f"separator must be a Separator, got "
                f"{type(separator).__name__}"
            )
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 1:
            raise ConfigurationError(
                f"workers must be an int >= 1, got {workers!r}"
            )
        try:
            self._separator_bytes = pickle.dumps(separator)
        except Exception as exc:
            raise ConfigurationError(
                f"separator {separator.name!r} is not picklable, so it "
                f"cannot reach the shard workers ({exc})"
            ) from exc
        self.separator = separator
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; closed engines refuse work."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"ShardedExecutor({self.separator.name!r}) is closed; "
                f"create a new engine instead of reusing a closed one"
            )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(self._separator_bytes, self.workers),
                )
            return self._pool

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken pool; the next call lazily builds a fresh one.

        Only ``pool`` itself is dropped: a fresh pool another thread
        built after the breakage stays in place.
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the worker pool down and mark the engine closed."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def separate_records(self, records: Sequence) -> List[Dict[str, np.ndarray]]:
        """Separate a record batch; estimates returned in input order.

        Records are grouped by :func:`shard_key` (so mixed sampling
        rates and geometries are handled on this path natively), each
        shard runs through the worker separator's ``separate_batch``
        hook, and arrays move in both directions through
        :class:`ShmBlock` transport.
        """
        self._check_open()
        records = list(records)
        if not records:
            return []
        shards = plan_shards(self.separator, records, self.workers)
        pool = self._ensure_pool()
        blocks: List[ShmBlock] = []
        futures = []
        outcomes: List[Optional[Dict[str, Any]]] = []
        first_exc: Optional[BaseException] = None
        broken = False
        try:
            try:
                for shard in shards:
                    task, block = self._pack_shard(records, shard)
                    blocks.append(block)
                    block.close()  # parent copy done; segment stays live
                    futures.append(pool.submit(_run_shard, task))
            except BrokenProcessPool as exc:
                broken, first_exc = True, exc
            for future in futures:
                if broken:
                    future.cancel()
                    outcomes.append(None)
                    continue
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as exc:
                    broken = True
                    outcomes.append(None)
                    if first_exc is None:
                        first_exc = exc
                except Exception as exc:
                    outcomes.append(None)
                    if first_exc is None:
                        first_exc = exc
        finally:
            for block in blocks:
                block.release()
        results = self._unpack_outcomes(records, shards, outcomes)
        if broken:
            self._discard_pool(pool)
            raise WorkerPoolError(
                f"a {self.separator.name!r} shard worker died before "
                f"finishing its batch; the broken pool was discarded and "
                f"the next call will build a fresh one"
            ) from first_exc
        if first_exc is not None:
            raise first_exc
        return results

    def _pack_shard(self, records, shard: Shard):
        """One shard's task metadata plus its packed input block."""
        arrays: List[np.ndarray] = []
        sources: List[List[str]] = []
        for i in shard.indices:
            record = records[i]
            arrays.append(np.asarray(record.mixed, dtype=np.float64))
            names = list(record.f0_tracks)
            sources.append(names)
            arrays.extend(
                np.asarray(record.f0_tracks[name], dtype=np.float64)
                for name in names
            )
        block = ShmBlock.pack(arrays)
        task = {
            "block": block.handle(),
            "sampling_hz": float(records[shard.indices[0]].sampling_hz),
            "sources": sources,
        }
        return task, block

    @staticmethod
    def _unpack_outcomes(records, shards, outcomes):
        """Copy every finished shard's estimates back into input order."""
        results: List[Optional[Dict[str, np.ndarray]]] = [None] * len(records)
        for shard, outcome in zip(shards, outcomes):
            if outcome is None:
                continue
            out_block = ShmBlock.attach(outcome["block"])
            try:
                flat = out_block.arrays()
            finally:
                out_block.release()  # the parent is the final consumer
            cursor = 0
            for i, names in zip(shard.indices, outcome["sources"]):
                results[i] = {
                    name: flat[cursor + k] for k, name in enumerate(names)
                }
                cursor += len(names)
        return results

    def __repr__(self) -> str:
        return (
            f"ShardedExecutor(separator={self.separator.name!r}, "
            f"workers={self.workers}, closed={self._closed})"
        )
