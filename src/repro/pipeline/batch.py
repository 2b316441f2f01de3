"""Batched separation: records in, aggregated scored estimates out.

This module is the glue between a :class:`repro.separation.Separator`
and a *set* of records.  A :class:`SeparationRecord` carries one mixed
measurement with its f0 tracks (and, optionally, ground-truth reference
sources); :class:`SeparationPipeline` fans a list of them out across a
thread or process worker pool — or hands the whole batch to the
separator's ``separate_batch`` hook on the serial path — and returns a
:class:`BatchResult` whose per-source scores plug directly into
:mod:`repro.metrics.aggregate` and the experiment runners.

Every fan-out path is *sharded*: records are grouped by
:func:`repro.pipeline.shard.shard_key` (sampling rate, length, STFT
geometry) and each shard travels through ``separate_batch`` whole, so
vectorized batch implementations (stacked DHF fits, batched masking)
survive parallelism instead of degrading to per-record ``separate``
calls.  The process path runs on :class:`repro.pipeline.ShardedExecutor`
— shared-memory array transport, one separator send per worker; see
:mod:`repro.pipeline.shard` for the protocol.
"""

from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.metrics import average_mse, average_sdr_db, mse, sdr_db
from repro.pipeline.shard import Shard, ShardedExecutor, plan_shards
from repro.separation import Separator
from repro.utils.validation import check_separation_input

#: Signature of the optional estimate post-processor: takes the raw
#: estimate and its record, returns the signal actually scored/returned.
Postprocess = Callable[[np.ndarray, "SeparationRecord"], np.ndarray]


@dataclass
class SeparationRecord:
    """One mixed measurement plus everything needed to separate it.

    Attributes
    ----------
    mixed:
        The single-detector measurement (1-D).
    sampling_hz:
        Sampling rate in Hz.
    f0_tracks:
        Per-sample fundamental-frequency track per source.
    name:
        Identifier used in aggregated score keys (defaults to the record
        index when built through :func:`records_from_arrays`).
    references:
        Optional ground-truth sources; when present the pipeline scores
        each estimate with SDR and MSE.
    """

    mixed: np.ndarray
    sampling_hz: float
    f0_tracks: Mapping[str, np.ndarray]
    name: str = ""
    references: Optional[Mapping[str, np.ndarray]] = None

    def __post_init__(self):
        self.mixed = check_separation_input(
            self.mixed, self.sampling_hz, self.f0_tracks
        )

    @property
    def n_samples(self) -> int:
        return self.mixed.size

    def source_names(self) -> List[str]:
        return list(self.f0_tracks)


def records_from_arrays(
    mixed,
    sampling_hz: float,
    f0_tracks,
    names: Optional[Sequence[str]] = None,
    references: Optional[Sequence[Mapping[str, np.ndarray]]] = None,
) -> List[SeparationRecord]:
    """Build records from a 2-D array (or list) of mixed signals.

    Parameters
    ----------
    mixed:
        ``(n_records, n_samples)`` array or list of 1-D signals.
    sampling_hz:
        Shared sampling rate.
    f0_tracks:
        Either one mapping shared by every record or a sequence of
        per-record mappings.
    names:
        Optional record names; default ``"record<i>"``.
    references:
        Optional per-record ground-truth source mappings.
    """
    rows = [np.asarray(row) for row in mixed]
    if isinstance(f0_tracks, Mapping):
        tracks_list = [f0_tracks] * len(rows)
    else:
        tracks_list = list(f0_tracks)
        if len(tracks_list) != len(rows):
            raise ConfigurationError(
                f"{len(rows)} records but {len(tracks_list)} f0-track "
                f"mappings"
            )
    if names is not None and len(names) != len(rows):
        raise ConfigurationError(
            f"{len(rows)} records but {len(names)} names"
        )
    if references is not None and len(references) != len(rows):
        raise ConfigurationError(
            f"{len(rows)} records but {len(references)} reference mappings"
        )
    records = []
    for i, row in enumerate(rows):
        records.append(SeparationRecord(
            mixed=row,
            sampling_hz=sampling_hz,
            f0_tracks=tracks_list[i],
            name=names[i] if names is not None else f"record{i}",
            references=references[i] if references is not None else None,
        ))
    return records


@dataclass
class RecordResult:
    """Separation output for one record.

    ``scores`` maps source name to ``(sdr_db, mse)`` and is empty when the
    record carried no references.
    """

    record: SeparationRecord
    estimates: Dict[str, np.ndarray]
    scores: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.record.name


@dataclass
class BatchResult:
    """Aggregated output of a pipeline run over a batch of records."""

    results: List[RecordResult]
    separator_name: str = ""

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def estimates(self, source: str) -> List[np.ndarray]:
        """Every record's estimate of one source, in batch order."""
        return [r.estimates[source] for r in self.results]

    def case_scores(self) -> Dict[Tuple[str, int], Tuple[float, float]]:
        """Scores keyed by ``(record name, source index)``.

        This is exactly the per-case shape the Table 2 machinery and
        :func:`repro.metrics.summarize_methods` consume.  Unnamed records
        fall back to their batch position (``record<i>``) so no score is
        silently overwritten; duplicate explicit names raise.
        """
        explicit = [r.name for r in self.results if r.name]
        duplicates = {n for n in explicit if explicit.count(n) > 1}
        if duplicates:
            raise DataError(
                f"duplicate record name(s) {sorted(duplicates)} in batch; "
                f"give records distinct names before aggregating scores"
            )
        taken = set(explicit)
        out: Dict[Tuple[str, int], Tuple[float, float]] = {}
        for i, r in enumerate(self.results):
            name = r.name
            if not name:
                name = f"record{i}"
                while name in taken:  # dodge an explicit name collision
                    name += "_"
            taken.add(name)
            for idx, source in enumerate(r.record.source_names()):
                if source in r.scores:
                    out[(name, idx)] = r.scores[source]
        return out

    def scores_by_source(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per-source lists of ``(sdr_db, mse)`` across the batch."""
        out: Dict[str, List[Tuple[float, float]]] = {}
        for r in self.results:
            for source, score in r.scores.items():
                out.setdefault(source, []).append(score)
        return out

    def summary(self) -> Dict[str, Tuple[float, float]]:
        """Paper-style aggregate per source.

        Arithmetic-in-linear-scale SDR average and geometric MSE mean,
        via :mod:`repro.metrics.aggregate` — the Table 2 "Average" rules.
        """
        out: Dict[str, Tuple[float, float]] = {}
        for source, scores in self.scores_by_source().items():
            sdrs = np.array([s[0] for s in scores])
            mses = np.array([s[1] for s in scores])
            out[source] = (average_sdr_db(sdrs), average_mse(mses))
        return out


def _identity_postprocess(estimate: np.ndarray, record: SeparationRecord) -> np.ndarray:
    return estimate


def finalize_record(
    separator_name: str,
    record: SeparationRecord,
    estimates: Dict[str, np.ndarray],
    postprocess: Optional[Postprocess] = None,
    score: bool = True,
) -> RecordResult:
    """Post-process and score one record's raw estimates.

    The shared back half of every separation path — the batch pipeline
    and the streaming :func:`repro.pipeline.stream_records` both route
    their raw estimates through here, so post-processing and scoring
    conventions cannot drift between the offline and streaming paths.
    """
    postprocess = postprocess or _identity_postprocess
    missing = [s for s in record.source_names() if s not in estimates]
    if missing:
        raise DataError(
            f"separator {separator_name!r} returned no estimate "
            f"for source(s) {missing} of record {record.name!r}"
        )
    processed = {
        source: postprocess(np.asarray(est), record)
        for source, est in estimates.items()
    }
    scores: Dict[str, Tuple[float, float]] = {}
    if score and record.references is not None:
        for source in record.source_names():
            if source not in record.references:
                continue
            reference = np.asarray(record.references[source])
            estimate = processed[source]
            scores[source] = (
                sdr_db(estimate, reference),
                mse(estimate, reference),
            )
    return RecordResult(record=record, estimates=processed, scores=scores)


class SeparationPipeline:
    """Run one separator over many records, serially or fanned out.

    Parameters
    ----------
    separator:
        Any :class:`repro.separation.Separator`.
    workers:
        ``0`` or ``1`` → serial (the default); the batch goes through the
        separator's ``separate_batch`` hook so vectorized overrides are
        used.  ``> 1`` → the batch is sharded by
        :func:`repro.pipeline.shard.shard_key` and each shard goes
        through ``separate_batch`` on a worker; the worker count is
        clamped to the number of records.
    executor:
        ``"thread"`` (default — NumPy's FFT and ufunc kernels release the
        GIL) or ``"process"`` (shards run on a
        :class:`repro.pipeline.ShardedExecutor`: shared-memory array
        transport, separator serialized once per worker — via its JSON
        ``spec`` when given, else pickled once at engine construction).
    postprocess:
        Optional callable applied to every estimate before scoring and
        before it is stored in the result (e.g. the band-pass filter the
        paper applies before computing Table 2 scores).
    score:
        If true (default), records carrying ``references`` get per-source
        ``(sdr_db, mse)`` scores.
    pool:
        Optional externally owned :class:`concurrent.futures.Executor`
        used instead of building a pool per :meth:`run` call (the
        :class:`repro.service.SeparationService` facade shares one pool
        across batch and streaming calls this way).  The pipeline never
        shuts an external pool down; ignored when ``workers <= 1`` and
        on the process path (which uses shard-engine transport, not a
        plain executor — pass ``shard_engine`` to share one there).
    spec:
        Optional :class:`repro.service.SeparatorSpec` describing
        ``separator``; on the process path it lets workers rebuild the
        separator from JSON so the object itself is never pickled.
    shard_engine:
        Optional externally owned :class:`repro.pipeline.ShardedExecutor`
        for the process path (the service facade keeps one alive across
        calls).  The pipeline never closes an external engine.
    """

    def __init__(
        self,
        separator: Separator,
        workers: int = 0,
        executor: str = "thread",
        postprocess: Optional[Postprocess] = None,
        score: bool = True,
        pool: Optional[Executor] = None,
        spec=None,
        shard_engine: Optional[ShardedExecutor] = None,
    ):
        if not isinstance(separator, Separator):
            raise ConfigurationError(
                f"separator must be a Separator, got {type(separator).__name__}"
            )
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if executor not in ("thread", "process"):
            raise ConfigurationError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if pool is not None and not isinstance(pool, Executor):
            raise ConfigurationError(
                f"pool must be a concurrent.futures.Executor, got "
                f"{type(pool).__name__}"
            )
        if shard_engine is not None and not isinstance(shard_engine, ShardedExecutor):
            raise ConfigurationError(
                f"shard_engine must be a ShardedExecutor, got "
                f"{type(shard_engine).__name__}"
            )
        self.separator = separator
        self.workers = int(workers)
        self.executor = executor
        self.postprocess = postprocess or _identity_postprocess
        self.score = score
        self.pool = pool
        self.spec = spec
        self.shard_engine = shard_engine

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, records: Sequence[SeparationRecord]) -> BatchResult:
        """Separate every record and aggregate estimates and scores."""
        records = list(records)
        if not records:
            return BatchResult(results=[], separator_name=self.separator.name)
        rates = {float(r.sampling_hz) for r in records}
        if len(rates) > 1 and self.workers <= 1:
            # The separate_batch hook assumes one shared rate; split the
            # serial batch by rate and preserve input order on
            # reassembly.  Fan-out paths need no split: the sampling
            # rate is part of the shard key, so every shard already
            # holds a single rate.
            return self._run_mixed_rates(records)

        estimates_list = self._separate_all(records)
        results = []
        for record, estimates in zip(records, estimates_list):
            results.append(self._finalize(record, estimates))
        return BatchResult(results=results, separator_name=self.separator.name)

    def _run_mixed_rates(self, records: List[SeparationRecord]) -> BatchResult:
        by_rate: Dict[float, List[int]] = {}
        for i, r in enumerate(records):
            by_rate.setdefault(float(r.sampling_hz), []).append(i)
        slots: List[Optional[RecordResult]] = [None] * len(records)
        for indices in by_rate.values():
            sub = self.run([records[i] for i in indices])
            for i, result in zip(indices, sub.results):
                slots[i] = result
        return BatchResult(
            results=[s for s in slots if s is not None],
            separator_name=self.separator.name,
        )

    def _separate_all(
        self, records: List[SeparationRecord]
    ) -> List[Dict[str, np.ndarray]]:
        n_workers = min(self.workers, len(records))
        if n_workers <= 1:
            return self.separator.separate_batch(
                [r.mixed for r in records],
                records[0].sampling_hz,
                [r.f0_tracks for r in records],
            )
        if self.executor == "process":
            if self.shard_engine is not None:
                return self.shard_engine.separate_records(records)
            with ShardedExecutor(
                self.separator, workers=n_workers, spec=self.spec
            ) as engine:
                return engine.separate_records(records)
        return self._separate_sharded_threads(records, n_workers)

    def _separate_sharded_threads(
        self, records: List[SeparationRecord], n_workers: int
    ) -> List[Dict[str, np.ndarray]]:
        """Thread fan-out: one ``separate_batch`` call per shard."""
        shards = plan_shards(self.separator, records, n_workers)

        def run_shard(shard: Shard) -> List[Dict[str, np.ndarray]]:
            sub = [records[i] for i in shard.indices]
            return self.separator.separate_batch(
                [r.mixed for r in sub],
                sub[0].sampling_hz,
                [r.f0_tracks for r in sub],
            )

        if self.pool is not None:
            futures = [self.pool.submit(run_shard, s) for s in shards]
            outputs = [f.result() for f in futures]
        else:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                futures = [pool.submit(run_shard, s) for s in shards]
                outputs = [f.result() for f in futures]
        results: List[Optional[Dict[str, np.ndarray]]] = [None] * len(records)
        for shard, estimates in zip(shards, outputs):
            for i, est in zip(shard.indices, estimates):
                results[i] = est
        return results

    def _finalize(
        self, record: SeparationRecord, estimates: Dict[str, np.ndarray]
    ) -> RecordResult:
        return finalize_record(
            self.separator.name, record, estimates,
            postprocess=self.postprocess, score=self.score,
        )

    def __repr__(self) -> str:
        return (
            f"SeparationPipeline(separator={self.separator.name!r}, "
            f"workers={self.workers}, executor={self.executor!r})"
        )
