"""Record sets: the record type, the serial batch rule, and scoring.

A :class:`SeparationRecord` carries one mixed measurement with its f0
tracks (and, optionally, ground-truth reference sources).
:class:`repro.service.SeparationService` runs every record set: its
``separate_batch`` gets raw estimates from :func:`separate_records` (in
this process) or from its :class:`repro.pipeline.ShardedExecutor` (in
worker processes), and both batch modes score every record through
:func:`finalize_record` into a :class:`BatchResult`, whose per-source
scores plug directly into :mod:`repro.metrics.aggregate` and the
experiment runners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.metrics import average_mse, average_sdr_db, mse, sdr_db
from repro.separation import Separator
from repro.utils.validation import check_references, check_separation_input

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
        Optional ground-truth sources; when present every batch mode
        scores each estimate with SDR and MSE.  Each one follows the rule
        ``mixed`` does (1-D and finite) and is as long as ``mixed``.
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
        if self.references is not None:
            check_references(self.references, self.mixed.size)

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
    """Aggregated output of one batch or stream run over a record set."""

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


def checked_separate_batch(
    separator: Separator,
    mixed_batch: Sequence,
    sampling_hz: float,
    f0_tracks_batch: Sequence[Mapping[str, np.ndarray]],
) -> List[Dict[str, np.ndarray]]:
    """``separator.separate_batch``, raising a :class:`DataError` naming
    the separator when it returns more or fewer estimates than records.

    Both record-set paths (:func:`separate_records` and the shard
    worker) call the hook through here.
    """
    estimates = list(separator.separate_batch(
        mixed_batch, sampling_hz, f0_tracks_batch
    ))
    if len(estimates) != len(mixed_batch):
        raise DataError(
            f"separator {separator.name!r} returned {len(estimates)} "
            f"estimate(s) from separate_batch for {len(mixed_batch)} "
            f"record(s)"
        )
    return estimates


def separate_records(
    separator: Separator, records: Sequence[SeparationRecord],
) -> List[Dict[str, np.ndarray]]:
    """Raw estimates of a record set, in input order, in this process.

    ``separate_batch`` assumes one shared sampling rate, so the records
    are grouped by rate and each group goes through one
    ``separate_batch`` call; vectorized batch overrides (stacked DHF
    fits, batched masking) still see every record of a rate at once.
    """
    by_rate: Dict[float, List[int]] = {}
    for i, record in enumerate(records):
        by_rate.setdefault(float(record.sampling_hz), []).append(i)
    estimates: List[Optional[Dict[str, np.ndarray]]] = [None] * len(records)
    for indices in by_rate.values():
        group = [records[i] for i in indices]
        batch = checked_separate_batch(
            separator,
            [r.mixed for r in group],
            group[0].sampling_hz,
            [r.f0_tracks for r in group],
        )
        for i, estimate in zip(indices, batch):
            estimates[i] = estimate
    return estimates


def finalize_record(
    separator_name: str,
    record: SeparationRecord,
    estimates: Dict[str, np.ndarray],
    postprocess: Optional[Postprocess] = None,
) -> RecordResult:
    """Post-process and score one record's raw estimates.

    The shared back half of every separation mode of
    :class:`repro.service.SeparationService` — offline, batch and
    streaming — so post-processing and scoring conventions cannot drift
    between them.  A record is scored when it carries ``references``.
    """
    missing = [s for s in record.source_names() if s not in estimates]
    if missing:
        raise DataError(
            f"separator {separator_name!r} returned no estimate "
            f"for source(s) {missing} of record {record.name!r}"
        )
    processed = {
        source: np.asarray(est) if postprocess is None
        else postprocess(np.asarray(est), record)
        for source, est in estimates.items()
    }
    scores: Dict[str, Tuple[float, float]] = {}
    if record.references is not None:
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
