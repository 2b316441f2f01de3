"""The TFO monitoring subsystem: batched cohort runs and a live monitor.

The paper's end product (Sec. 4.3, Figs. 6-7) is continuous
transabdominal fetal SpO2 estimation.  This module routes the whole
in-vivo stack through the :mod:`repro.service` layer:

Batched cohort runs
    :func:`cohort_records` flattens a cohort — every subject, both
    wavelengths — into :class:`repro.pipeline.SeparationRecord` lists and
    :func:`run_in_vivo_batch` pushes them through
    :meth:`repro.service.SeparationService.separate_batch` per method.
    Both wavelength channels of one subject share their f0 tracks and
    hence their alignment geometry, so the DHF rounds of a subject's
    740/850 records stack into single batched deep-prior fits
    (:meth:`repro.core.DHFSeparator.separate_batch`), and the spectral
    baselines run their vectorized batch hooks — while the results stay
    equal to the historical one-``separate``-per-channel loop within
    1e-8 (``benchmarks/bench_figure6_spo2.py`` asserts both the equality
    and the speedup).

Streaming monitoring
    :class:`SpO2Monitor` is the deployment mode: chunked two-wavelength
    PPG is DC-stripped by stateful :class:`repro.tfo.ppg.AcExtractor`
    instances, separated by one
    :class:`repro.streaming.StreamingSeparator` per wavelength,
    accumulated in sliding windows, and turned into an incremental SpO2
    estimate whose calibration is refitted as blood draws arrive.  With
    the extractor mean calibrated and an offline-exact streaming
    geometry, the monitor's draw ratios and final calibration equal the
    offline :func:`repro.tfo.spo2.fit_spo2` path exactly outside the
    engines' recorded cross-fade spans.

:mod:`repro.tfo.experiment` re-exports the public names so existing
imports keep working.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, DataError, ReproError
from repro.pipeline.batch import SeparationRecord
from repro.separation import Separator
from repro.service.facade import SeparationService
from repro.service.registry import SpecLike
from repro.streaming.engine import StreamingSeparator
from repro.tfo.dataset import SheepRecording
from repro.tfo.ppg import AcExtractor, WAVELENGTHS, ac_component
from repro.tfo.sao2 import CALIBRATION_K
from repro.tfo.spo2 import (
    R_WINDOW_S,
    SpO2Fit,
    dc_component,
    fit_spo2,
    modulation_ratio_at_draws,
)
from repro.tfo.spo2 import ac_component as ac_strength
from repro.utils.logging import get_logger
from repro.utils.validation import (
    check_finite,
    check_positive,
    check_positive_int,
)

_LOG = get_logger("tfo.monitor")

#: Anything the in-vivo runners accept as a method description.
MethodLike = Union[SpecLike, Separator, SeparationService]


@dataclass
class InVivoResult:
    """Outcome of one (sheep, method) in-vivo run.

    ``fetal_estimates`` holds the separated fetal PPG per wavelength;
    ``fit`` the calibrated SpO2 result whose ``correlation`` is the Fig. 6b
    number.
    """

    sheep: str
    method: str
    fetal_estimates: Dict[int, np.ndarray]
    fit: SpO2Fit

    @property
    def correlation(self) -> float:
        return self.fit.correlation


# --------------------------------------------------------------------- #
# Method coercion
# --------------------------------------------------------------------- #
def _as_service(
    method: MethodLike, workers: int, executor: str,
) -> Tuple[SeparationService, bool]:
    """``(service, owned)`` for any method description.

    A prebuilt :class:`SeparationService` is used as-is (``owned`` is
    false and execution-policy overrides are rejected rather than
    silently dropped, mirroring :mod:`repro.experiments.common`);
    anything else — registry name, spec, spec dict, or a constructed
    :class:`repro.separation.Separator` — gets a service the caller must
    close.
    """
    if isinstance(method, SeparationService):
        if workers != 0 or executor != "thread":
            raise ConfigurationError(
                "workers/executor cannot be overridden when passing an "
                "already configured SeparationService; set them on the "
                "service instead"
            )
        return method, False
    return SeparationService(method, workers=workers, executor=executor), True


def _method_mapping(
    methods: Union[MethodLike, Mapping[str, MethodLike]],
) -> "Dict[str, MethodLike]":
    """Normalize a single method or a label->method mapping.

    A mapping carrying a ``"method"`` key is a *spec dict* (the
    ``{"method": ..., **fields}`` form every service entry point
    accepts), not a label->method mapping — spec dicts always name
    their method, label mappings never sensibly use that label.
    """
    if isinstance(methods, Mapping):
        methods = dict(methods)
        if "method" in methods:
            return {"": methods}  # one spec dict
        if not methods:
            raise ConfigurationError("methods mapping must not be empty")
        return methods
    return {"": methods}  # label resolved from the built separator


# --------------------------------------------------------------------- #
# Batched cohort runs
# --------------------------------------------------------------------- #
def cohort_records(
    recordings: Sequence[SheepRecording],
) -> Tuple[List[SeparationRecord], List[Tuple[str, int]]]:
    """Flatten a cohort into per-(subject, wavelength) separation records.

    Each record's ``mixed`` is the channel's zero-mean AC component
    (:func:`repro.tfo.ppg.ac_component`), its f0 tracks are the
    subject's shared ground-truth fundamentals, and its name is
    ``"<subject>:<wavelength>"``.  Returns the records together with
    their ``(subject, wavelength)`` keys, in a stable order (subjects as
    given, wavelengths ascending), so batch results can be regrouped
    per subject.
    """
    recordings = list(recordings)
    names = [rec.name for rec in recordings]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise ConfigurationError(
            f"cohort subjects must have distinct names, got duplicate(s) "
            f"{duplicates}; rename the recordings (dataclasses.replace) "
            f"before batching"
        )
    records: List[SeparationRecord] = []
    keys: List[Tuple[str, int]] = []
    for rec in recordings:
        tracks = rec.f0_tracks()
        for wavelength in sorted(rec.signals.ppg):
            records.append(SeparationRecord(
                mixed=ac_component(
                    rec.signals.ppg[wavelength], rec.signals.dc[wavelength]
                ),
                sampling_hz=rec.sampling_hz,
                f0_tracks=tracks,
                name=f"{rec.name}:{wavelength}",
            ))
            keys.append((rec.name, wavelength))
    return records, keys


def _fit_recording(
    rec: SheepRecording, fetal: Dict[int, np.ndarray], label: str,
) -> InVivoResult:
    """Eq. 10/11 estimation for one subject's separated fetal channels."""
    ratios = modulation_ratio_at_draws(
        fetal[740], fetal[850],
        rec.signals.ppg[740], rec.signals.ppg[850],
        rec.sampling_hz, rec.draw_times_s,
    )
    fit = fit_spo2(ratios, rec.draw_sao2)
    return InVivoResult(
        sheep=rec.name, method=label, fetal_estimates=fetal, fit=fit,
    )


def run_in_vivo_batch(
    recordings: Sequence[SheepRecording],
    methods: Union[MethodLike, Mapping[str, MethodLike]],
    workers: int = 0,
    executor: str = "thread",
) -> Dict[str, Dict[str, InVivoResult]]:
    """Run the full in-vivo comparison as batched cohort separations.

    For every method, the whole cohort — each subject at both
    wavelengths — goes through one
    :meth:`repro.service.SeparationService.separate_batch` call, and the
    per-record fetal estimates are regrouped into per-subject
    :class:`InVivoResult` objects.

    Parameters
    ----------
    recordings:
        The cohort; subject names must be distinct.
    methods:
        Either one method description (registry name, spec, spec dict,
        :class:`repro.separation.Separator`, or a configured
        :class:`repro.service.SeparationService`) or a mapping from
        display label to method description.  A single method's label is
        the built separator's name.
    workers, executor:
        Fan-out policy handed to each method's service (rejected when a
        prebuilt service is passed).

    Returns
    -------
    ``{subject: {label: InVivoResult}}`` with subjects in cohort order
    and labels in mapping order.
    """
    recordings = list(recordings)
    records, keys = cohort_records(recordings)
    out: Dict[str, Dict[str, InVivoResult]] = {
        rec.name: {} for rec in recordings
    }
    for label, method in _method_mapping(methods).items():
        service, owned = _as_service(method, workers, executor)
        try:
            resolved = label or service.separator.name
            _LOG.info(
                "in-vivo batch: %s over %d records (%d subjects)",
                resolved, len(records), len(recordings),
            )
            batch = service.separate_batch(records).batch
        finally:
            if owned:
                service.close()
        fetal_by_key = {
            key: result.estimates["fetal"]
            for key, result in zip(keys, batch.results)
        }
        for rec in recordings:
            fetal = {
                wavelength: fetal_by_key[(rec.name, wavelength)]
                for wavelength in sorted(rec.signals.ppg)
            }
            out[rec.name][resolved] = _fit_recording(rec, fetal, resolved)
    return out


def separate_fetal_both_wavelengths(
    recording: SheepRecording,
    method: MethodLike,
    workers: int = 0,
) -> Dict[int, np.ndarray]:
    """Separate one subject's fetal PPG at both wavelengths.

    Both wavelength channels run as one two-record batch through the
    service layer (sharing f0 tracks, STFT plans, and — for DHF — one
    stacked deep-prior fit per round), per the paper's
    known-fundamentals assumption.  The DC baseline and residual mean
    are removed by :func:`repro.tfo.ppg.ac_component` before separation.
    """
    records, keys = cohort_records([recording])
    service, owned = _as_service(method, workers, "thread")
    try:
        batch = service.separate_batch(records).batch
    finally:
        if owned:
            service.close()
    return {
        wavelength: result.estimates["fetal"]
        for (_, wavelength), result in zip(keys, batch.results)
    }


def run_in_vivo(
    recording: SheepRecording,
    method: MethodLike,
) -> InVivoResult:
    """Full pipeline for one subject and one separation method.

    Thin wrapper over :func:`run_in_vivo_batch`; ``method`` may be a
    registry name, a :class:`repro.service.SeparatorSpec`, a spec dict,
    a constructed separator, or a configured service.
    """
    results = run_in_vivo_batch([recording], methods=method)
    return next(iter(results[recording.name].values()))


def run_comparison(
    recording: SheepRecording,
    methods: Mapping[str, MethodLike],
    workers: int = 0,
) -> Dict[str, InVivoResult]:
    """Run several methods on one subject (Fig. 6b's DHF vs masking)."""
    results = run_in_vivo_batch(
        [recording], methods=methods, workers=workers,
    )
    return results[recording.name]


def oracle_in_vivo(recording: SheepRecording) -> InVivoResult:
    """Upper bound: the estimation pipeline fed ground-truth fetal AC.

    Quantifies how much correlation the R-window averaging and regression
    lose even with perfect separation — useful context for Fig. 6b.
    """
    fetal = {
        wl: recording.signals.layers[wl]["fetal"]
        for wl in recording.signals.ppg
    }
    return _fit_recording(recording, fetal, "oracle")


# --------------------------------------------------------------------- #
# Streaming fetal-SpO2 monitor
# --------------------------------------------------------------------- #
@dataclass
class DrawEstimate:
    """One blood draw as the monitor sees it.

    ``ratio``/``spo2`` stay ``None`` until the draw's averaging window is
    fully covered by finalized samples; ``spo2`` is the *incremental*
    estimate from the calibration refit at completion time (the final
    all-draws fit lives on :class:`SpO2MonitorResult`).
    """

    index: int
    time_s: float
    sao2: float
    ratio: Optional[float] = None
    spo2: Optional[float] = None
    #: Finalized-sample count at which the window completed.
    completed_at: Optional[int] = None
    #: True when the averaging window overlapped a flagged sensor-dropout
    #: span (see :attr:`SpO2Monitor.gap_spans`).  A degraded window may
    #: still complete with ``ratio=None`` when its data is unusable
    #: (e.g. a fully zeroed DC) — such draws never enter the calibration.
    degraded: bool = False


@dataclass
class MonitorUpdate:
    """What one :meth:`SpO2Monitor.push` (or ``finish``) produced.

    ``ratio``/``spo2`` are the live sliding-window modulation ratio and
    its calibrated SpO2 (``None`` while the window is still filling or
    no calibration exists yet); ``completed`` lists draws whose windows
    were resolved by this update.
    """

    n_pushed: int
    n_finalized: int
    ratio: Optional[float]
    spo2: Optional[float]
    completed: List[DrawEstimate] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: True when the live sliding window overlaps a flagged dropout span.
    degraded: bool = False
    #: Newly finalized fetal samples per wavelength, populated only when
    #: the monitor was built with ``emit_estimates=True`` (the gateway's
    #: streaming endpoint relays these to remote clients).
    estimates: Optional[Dict[int, np.ndarray]] = None


@dataclass
class SpO2MonitorResult:
    """Final state of a finished :class:`SpO2Monitor`.

    ``fit`` is the calibration over *all* draws — given an offline-exact
    streaming geometry it equals :func:`repro.tfo.spo2.fit_spo2` on the
    offline ratios exactly.  ``crossfade_spans`` records the engines'
    blended regions per wavelength (empty when the whole record fit in
    one analysis segment).
    """

    draws: List[DrawEstimate]
    fit: Optional[SpO2Fit]
    n_samples: int
    n_refits: int
    crossfade_spans: Dict[int, List[Tuple[int, int]]]
    #: Fetal samples finalized by the closing flush, per wavelength —
    #: populated only with ``emit_estimates=True``, so streaming clients
    #: can stitch the complete per-wavelength estimate.
    final_estimates: Optional[Dict[int, np.ndarray]] = None

    @property
    def correlation(self) -> float:
        return self.fit.correlation if self.fit is not None else float("nan")


def _calibrated_spo2(ratio: float, fit: SpO2Fit) -> float:
    """Invert Eq. 10 at fitted weights (same clamp as ``fit_spo2``)."""
    predicted = max(fit.w0 + fit.w1 * ratio, 1e-6)
    return 1.0 / predicted - CALIBRATION_K


class SpO2Monitor:
    """Streaming fetal-SpO2 estimation from chunked two-wavelength PPG.

    The monitor owns one :class:`repro.streaming.StreamingSeparator`
    and one stateful :class:`repro.tfo.ppg.AcExtractor` per wavelength,
    sliding buffers of raw PPG and finalized fetal estimates, and the
    blood-draw bookkeeping of the Eq. 10/11 pipeline:

    * :meth:`push` feeds aligned 740/850 chunks (raw PPG, DC baseline,
      f0-track slices); the extractors strip DC and the calibrated mean,
      both streaming engines advance in lockstep, and the update reports
      the live sliding-window modulation ratio plus its calibrated SpO2.
    * :meth:`add_draw` registers a blood draw; once finalized samples
      cover the draw's 2.5-minute window, its modulation ratio is
      computed with the *offline* window rules and the calibration is
      refitted over all completed draws.
    * :meth:`finish` flushes the engines, resolves end-clipped windows
      (which need the true record length, exactly like the offline
      path), and returns the final all-draws fit.

    The two engines run one after the other in the calling thread.  A
    :class:`repro.service.SeparationService` passed as ``method`` lends
    its separator; its execution policy applies to its batch modes only.

    Equivalence guarantee
    ---------------------
    Draw ratios use the windowed AC strength of the *fetal estimates*
    (scale-free in the window mean) over the windowed DC of the *raw*
    PPG — byte-for-byte the rules of
    :func:`repro.tfo.spo2.modulation_ratio_at_draws`.  So whenever the
    streamed fetal estimates equal the offline separation —
    ``ac_mean`` set to the record's AC mean (see
    :class:`repro.tfo.ppg.AcExtractor`) and a frame-local separator on
    an offline-exact geometry (see :mod:`repro.streaming`) — every draw
    whose window avoids the recorded cross-fade spans gets the exact
    offline ratio, and the final fit equals offline
    :func:`repro.tfo.spo2.fit_spo2`.  A ``segment_samples`` of at least
    the record length has no cross-fades at all and is exact for every
    draw and any chunking.

    Sensor-dropout awareness
    ------------------------
    Raw-PPG runs stuck at one constant value for at least
    ``flag_dropouts_s`` seconds (on either wavelength, tracked across
    chunk boundaries) are flagged as :attr:`gap_spans`.  Draw and live
    windows overlapping a flagged span carry ``degraded=True``, and a
    flagged window whose data is uncomputable (e.g. an all-zero DC)
    completes with ``ratio=None`` instead of emitting NaN — degraded
    ratio-less draws never enter the calibration.  Set
    ``flag_dropouts_s=None`` to disable detection.
    """

    def __init__(
        self,
        method: MethodLike,
        sampling_hz: float,
        segment_samples: int,
        overlap_samples: int,
        window_s: float = R_WINDOW_S,
        ac_mean: Union[float, Mapping[int, float], None] = None,
        min_draws: int = 3,
        flag_dropouts_s: Optional[float] = 0.25,
        emit_estimates: bool = False,
    ):
        check_positive(sampling_hz, "sampling_hz")
        check_positive(window_s, "window_s")
        check_positive_int(min_draws, "min_draws")
        if flag_dropouts_s is not None:
            check_positive(flag_dropouts_s, "flag_dropouts_s")
        if min_draws < 3:
            raise ConfigurationError(
                f"min_draws must be >= 3 (the Eq. 10 regression needs "
                f"three ratios to calibrate), got {min_draws}"
            )
        if isinstance(method, SeparationService):
            separator = method.separator
        elif isinstance(method, Separator):
            separator = method
        else:
            from repro.service.registry import build_separator

            separator = build_separator(method)
        self.sampling_hz = float(sampling_hz)
        self.window_s = float(window_s)
        self.min_draws = int(min_draws)
        #: Window half-width in samples — the offline rule of
        #: :func:`repro.tfo.spo2.modulation_ratio_at_draws`.
        self.half_window = int(window_s * sampling_hz / 2)
        self._engines = {
            wavelength: StreamingSeparator(
                separator, sampling_hz, segment_samples, overlap_samples,
            )
            for wavelength in WAVELENGTHS
        }
        self._released = False
        self._extractors = {
            wavelength: AcExtractor(mean=self._mean_for(ac_mean, wavelength))
            for wavelength in WAVELENGTHS
        }
        # Sliding buffers in absolute sample coordinates: buffer index 0
        # is absolute sample ``start``; anything older has been trimmed.
        self._raw: Dict[int, np.ndarray] = {
            wl: np.zeros(0) for wl in WAVELENGTHS
        }
        self._fetal: Dict[int, np.ndarray] = {
            wl: np.zeros(0) for wl in WAVELENGTHS
        }
        self._raw_start = 0
        self._fetal_start = 0
        self.n_pushed = 0
        self.n_finalized = 0
        self.closed = False
        self._draws: List[DrawEstimate] = []
        self._fit: Optional[SpO2Fit] = None
        self.n_refits = 0
        #: Constant-run dropout detection: runs of identical raw samples
        #: at least ``flag_dropouts_s`` long (on either wavelength) are
        #: flagged as sensor gaps.  ``None`` disables detection.
        self._flag_samples = (
            None if flag_dropouts_s is None
            else max(2, int(round(flag_dropouts_s * sampling_hz)))
        )
        # Merged flagged spans [lo, hi) in absolute sample coordinates,
        # pooled across wavelengths; plus the still-open trailing
        # constant run per wavelength as (value, absolute start).
        self._gap_spans: List[Tuple[int, int]] = []
        self._runs: Dict[int, Optional[Tuple[float, int]]] = {
            wl: None for wl in WAVELENGTHS
        }
        #: Relay newly finalized fetal samples on every update (and the
        #: closing flush on the result) — the payloads remote streaming
        #: clients stitch back into the full per-wavelength estimate.
        self.emit_estimates = bool(emit_estimates)
        self._last_emitted: Optional[Dict[int, np.ndarray]] = None

    @staticmethod
    def _mean_for(
        ac_mean: Union[float, Mapping[int, float], None], wavelength: int,
    ) -> float:
        if ac_mean is None:
            return 0.0
        if isinstance(ac_mean, Mapping):
            try:
                return float(ac_mean[wavelength])
            except KeyError:
                raise ConfigurationError(
                    f"ac_mean mapping is missing wavelength {wavelength}; "
                    f"give one value per {WAVELENGTHS} nm channel"
                ) from None
        return float(ac_mean)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def fit(self) -> Optional[SpO2Fit]:
        """The latest calibration refit (``None`` before ``min_draws``)."""
        return self._fit

    @property
    def draws(self) -> List[DrawEstimate]:
        """Registered draws in time order (pending and completed)."""
        return list(self._draws)

    @property
    def crossfade_spans(self) -> Dict[int, List[Tuple[int, int]]]:
        """Per-wavelength blended spans of the streaming engines."""
        return {
            wl: list(engine.crossfade_spans)
            for wl, engine in self._engines.items()
        }

    @property
    def max_latency_samples(self) -> int:
        """Worst-case samples between arrival and finalization."""
        return self._engines[WAVELENGTHS[0]].max_latency_samples

    @property
    def gap_spans(self) -> List[Tuple[int, int]]:
        """Flagged sensor-dropout spans ``[lo, hi)``, absolute samples.

        A span is flagged when either wavelength's *raw* PPG sits at one
        constant value for at least ``flag_dropouts_s`` seconds — the
        signature of a dropped, held, or railed sensor.  Spans from both
        wavelengths are pooled and merged.
        """
        return list(self._gap_spans)

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def add_draw(self, time_s: float, sao2: float) -> None:
        """Register a blood draw (timestamp in seconds, SaO2 fraction).

        Draws may arrive in any order and at any time before their
        averaging window's data has been trimmed from the sliding
        buffers (a draw is never trimmed while pending).
        """
        if self.closed:
            raise ConfigurationError("cannot add draws to a finished monitor")
        time_s = float(time_s)
        if time_s < 0:
            raise ConfigurationError(
                f"draw time must be >= 0, got {time_s}"
            )
        centre = int(round(time_s * self.sampling_hz))
        lo = max(0, centre - self.half_window)
        if lo < self._fetal_start:
            raise DataError(
                f"draw at {time_s:.1f}s needs samples from {lo} on, but "
                f"the monitor has already trimmed its buffers to "
                f"{self._fetal_start}; register draws before their window "
                f"ages out"
            )
        self._draws.append(DrawEstimate(
            index=len(self._draws), time_s=time_s, sao2=float(sao2),
        ))
        self._draws.sort(key=lambda d: d.time_s)
        for i, draw in enumerate(self._draws):
            draw.index = i

    def push(
        self,
        ppg: Mapping[int, np.ndarray],
        dc: Mapping[int, np.ndarray],
        f0_tracks: Mapping[str, np.ndarray],
    ) -> MonitorUpdate:
        """Feed one aligned chunk of both wavelength channels.

        ``ppg`` and ``dc`` map wavelength (740/850) to same-length
        sample chunks; ``f0_tracks`` holds the matching per-source
        fundamental slices shared by both channels.
        """
        if self.closed:
            raise ConfigurationError("cannot push into a finished monitor")
        self._check_open()
        for mapping, label in ((ppg, "ppg"), (dc, "dc")):
            missing = [wl for wl in WAVELENGTHS if wl not in mapping]
            if missing:
                raise DataError(
                    f"{label} chunk is missing wavelength(s) {missing}; "
                    f"the monitor needs both {WAVELENGTHS} nm channels"
                )
        # Validate every chunk before any extractor mutates its running
        # mean, so a rejected push leaves the monitor's state intact.
        raw = {wl: np.asarray(ppg[wl], dtype=np.float64) for wl in WAVELENGTHS}
        base = {wl: np.asarray(dc[wl], dtype=np.float64) for wl in WAVELENGTHS}
        for wl in WAVELENGTHS:
            if raw[wl].ndim != 1 or base[wl].ndim != 1 \
                    or raw[wl].size != base[wl].size:
                raise DataError(
                    f"ppg/dc chunks for {wl} nm must be 1-D and equally "
                    f"long, got shapes {raw[wl].shape} and {base[wl].shape}"
                )
            check_finite(base[wl], f"dc chunk for {wl} nm")
        sizes = {raw[wl].size for wl in WAVELENGTHS}
        if len(sizes) > 1:
            raise DataError(
                f"wavelength chunks must be aligned, got sizes "
                f"{sorted(sizes)}"
            )
        if "fetal" not in f0_tracks:
            raise DataError(
                f"f0_tracks must include the 'fetal' source, got "
                f"{sorted(f0_tracks)}"
            )
        n_chunk = next(iter(sizes))
        for wl, engine in self._engines.items():
            try:
                engine.check_push(raw[wl], f0_tracks)
            except ReproError as exc:  # say which channel was refused
                raise type(exc)(f"ppg chunk for {wl} nm: {exc}") from None
        chunks = {
            wl: self._extractors[wl].push(raw[wl], base[wl])
            for wl in WAVELENGTHS
        }
        t0 = time.perf_counter()
        results = {
            wl: engine.push(chunks[wl], f0_tracks)
            for wl, engine in self._engines.items()
        }
        elapsed = time.perf_counter() - t0
        offset = self.n_pushed
        self.n_pushed += n_chunk
        for wl in WAVELENGTHS:
            self._raw[wl] = np.concatenate([self._raw[wl], raw[wl]])
            self._detect_gaps(wl, raw[wl], offset)
        completed = self._absorb(results)
        return self._update(elapsed, completed)

    def finish(self) -> SpO2MonitorResult:
        """Flush the engines, resolve end-clipped draws, fit over all draws."""
        if self.closed:
            raise ConfigurationError("monitor already finished")
        self._check_open()
        if self.n_pushed == 0:
            raise DataError("cannot finish an empty monitor: push data first")
        self._absorb({
            wl: engine.flush() for wl, engine in self._engines.items()
        })
        final_estimates = self._last_emitted
        if self.n_finalized != self.n_pushed:
            raise DataError(
                f"streaming engines finalized {self.n_finalized} of "
                f"{self.n_pushed} pushed samples"
            )
        self.closed = True
        # End-of-record windows clip at the true length, as offline; the
        # resolve refits over every completed draw, so the final fit is
        # the all-draws calibration.
        self._resolve_draws(final=True)
        return SpO2MonitorResult(
            draws=list(self._draws),
            fit=self._fit,
            n_samples=self.n_finalized,
            n_refits=self.n_refits,
            crossfade_spans=self.crossfade_spans,
            final_estimates=final_estimates,
        )

    def close(self) -> None:
        """Refuse later pushes and finishes.

        Idempotent.  A closed monitor refuses work with a
        :class:`RuntimeError` before any of its state changes.
        """
        self._released = True

    def __enter__(self) -> "SpO2Monitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._released:
            raise RuntimeError(
                "SpO2Monitor is closed; create a new monitor instead of "
                "reusing a closed one"
            )

    def _detect_gaps(self, wl: int, chunk: np.ndarray, offset: int) -> None:
        """Flag constant raw-PPG runs >= ``flag_dropouts_s`` as gaps.

        Runs are tracked across chunk boundaries per wavelength, so a
        gap split over many pushes (even 1-sample chunks) is still
        caught.  ``offset`` is the absolute index of ``chunk[0]``.
        """
        if self._flag_samples is None or chunk.size == 0:
            return
        boundaries = np.flatnonzero(np.diff(chunk)) + 1
        starts = np.concatenate(([0], boundaries)) + offset
        ends = np.concatenate((boundaries, [chunk.size])) + offset
        open_run = self._runs[wl]
        if open_run is not None and chunk[0] == open_run[0]:
            starts[0] = open_run[1]
        self._runs[wl] = (float(chunk[-1]), int(starts[-1]))
        for i in np.flatnonzero(ends - starts >= self._flag_samples):
            self._add_gap_span(int(starts[i]), int(ends[i]))

    def _add_gap_span(self, lo: int, hi: int) -> None:
        """Insert ``[lo, hi)``, merging overlapping/adjacent spans."""
        merged = []
        for a, b in self._gap_spans:
            if b < lo or a > hi:
                merged.append((a, b))
            else:
                lo, hi = min(a, lo), max(b, hi)
        merged.append((lo, hi))
        self._gap_spans = sorted(merged)

    def _overlaps_gaps(self, lo: int, hi: int) -> bool:
        return any(a < hi and b > lo for a, b in self._gap_spans)

    def _absorb(
        self, results: Mapping[int, Mapping[str, np.ndarray]],
    ) -> List[DrawEstimate]:
        """Append newly finalized fetal samples; engines stay in lockstep.

        Returns the draws whose windows this absorption completed.
        """
        emitted = set()
        chunks_out: Dict[int, np.ndarray] = {}
        for wl in WAVELENGTHS:
            chunk = results[wl].get("fetal")
            if chunk is None:
                raise DataError(
                    f"separator returned no 'fetal' estimate for the "
                    f"{wl} nm stream; the monitor needs a source named "
                    f"'fetal' in f0_tracks"
                )
            self._fetal[wl] = np.concatenate([self._fetal[wl], chunk])
            chunks_out[wl] = chunk
            emitted.add(int(chunk.size))
        self._last_emitted = chunks_out if self.emit_estimates else None
        if len(emitted) > 1:
            raise DataError(
                f"wavelength engines fell out of lockstep (emitted "
                f"{sorted(emitted)} samples); push identical chunk sizes "
                f"to both channels"
            )
        self.n_finalized += emitted.pop()
        completed = self._resolve_draws(final=False)
        self._trim()
        return completed

    def _window(self, centre: int, final: bool) -> Optional[Tuple[int, int]]:
        """The draw window ``[lo, hi)`` once computable, else ``None``.

        Mid-stream a window is computable only when its right edge is
        fully finalized; at ``finish`` the record length is known and
        the window clips there, exactly like the offline path.
        """
        lo = max(0, centre - self.half_window)
        hi = centre + self.half_window
        if final:
            hi = min(self.n_finalized, hi)
        elif hi > self.n_finalized:
            return None
        if hi - lo < 2:
            raise DataError(
                f"draw at sample {centre} has no samples inside the "
                f"recording"
            )
        return lo, hi

    def _windowed_ratio(self, lo: int, hi: int) -> float:
        """Eq. 11 over ``[lo, hi)`` — the offline window rules, verbatim."""
        acdc = {}
        for wl in WAVELENGTHS:
            fetal = self._fetal[wl][lo - self._fetal_start: hi - self._fetal_start]
            raw = self._raw[wl][lo - self._raw_start: hi - self._raw_start]
            dc = dc_component(raw)
            if dc == 0:
                raise DataError(
                    f"zero DC at {wl} nm in monitor window [{lo}, {hi}) — "
                    f"raw channel reads as dropped out"
                )
            acdc[wl] = ac_strength(fetal) / dc
        if acdc[850] <= 0:
            raise DataError("non-positive AC/DC at 850 nm in monitor window")
        ratio = float(acdc[740] / acdc[850])
        if not np.isfinite(ratio):
            raise DataError(
                f"non-finite modulation ratio in monitor window [{lo}, {hi})"
            )
        return ratio

    def _resolve_draws(self, final: bool) -> List[DrawEstimate]:
        """Compute ratios for draws whose windows completed; refit."""
        resolved: List[DrawEstimate] = []
        for draw in self._draws:
            if draw.completed_at is not None:
                continue
            centre = int(round(draw.time_s * self.sampling_hz))
            window = self._window(centre, final)
            if window is None:
                continue
            draw.degraded = self._overlaps_gaps(*window)
            try:
                draw.ratio = self._windowed_ratio(*window)
            except DataError:
                # A window the dropout detector flagged may be genuinely
                # uncomputable (zeroed DC); complete it ratio-less so it
                # never reaches the calibration.  Unflagged windows keep
                # the strict offline behaviour and raise.
                if not draw.degraded:
                    raise
                draw.ratio = None
            draw.completed_at = self.n_finalized
            resolved.append(draw)
        if resolved:
            completed = [d for d in self._draws if d.ratio is not None]
            if len(completed) >= self.min_draws:
                self._fit = fit_spo2(
                    [d.ratio for d in completed],
                    [d.sao2 for d in completed],
                )
                self.n_refits += 1
            if self._fit is not None:
                for draw in resolved:
                    if draw.ratio is not None:
                        draw.spo2 = _calibrated_spo2(draw.ratio, self._fit)
        return resolved

    def _update(
        self, elapsed: float, completed: List[DrawEstimate],
    ) -> MonitorUpdate:
        """The live sliding-window ratio/SpO2 after one push."""
        ratio: Optional[float] = None
        spo2: Optional[float] = None
        degraded = False
        window = 2 * self.half_window
        if self.n_finalized >= max(2, window):
            lo, hi = self.n_finalized - window, self.n_finalized
            degraded = self._overlaps_gaps(lo, hi)
            try:
                ratio = self._windowed_ratio(lo, hi)
            except DataError:
                # Same contract as draw resolution: a flagged window may
                # be uncomputable — report no ratio instead of NaN.
                if not degraded:
                    raise
                ratio = None
            if ratio is not None and self._fit is not None:
                spo2 = _calibrated_spo2(ratio, self._fit)
        return MonitorUpdate(
            n_pushed=self.n_pushed,
            n_finalized=self.n_finalized,
            ratio=ratio,
            spo2=spo2,
            completed=completed,
            elapsed_s=elapsed,
            degraded=degraded,
            estimates=self._last_emitted,
        )

    def _trim(self) -> None:
        """Drop buffered samples no window can reach any more.

        Kept: the live sliding window plus every pending draw's window
        start.  Raw and fetal buffers share the horizon (raw arrives
        ahead of finalization, so its buffer is the longer one).
        """
        horizon = max(0, self.n_finalized - 2 * self.half_window)
        for draw in self._draws:
            if draw.completed_at is None:
                centre = int(round(draw.time_s * self.sampling_hz))
                horizon = min(horizon, max(0, centre - self.half_window))
        if horizon > self._fetal_start:
            drop = horizon - self._fetal_start
            for wl in WAVELENGTHS:
                self._fetal[wl] = self._fetal[wl][drop:]
            self._fetal_start = horizon
        if horizon > self._raw_start:
            drop = horizon - self._raw_start
            for wl in WAVELENGTHS:
                self._raw[wl] = self._raw[wl][drop:]
            self._raw_start = horizon

    def __repr__(self) -> str:
        return (
            f"SpO2Monitor("
            f"separator={self._engines[WAVELENGTHS[0]].separator.name!r}, "
            f"pushed={self.n_pushed}, finalized={self.n_finalized}, "
            f"draws={len(self._draws)}, refits={self.n_refits}, "
            f"closed={self.closed})"
        )
