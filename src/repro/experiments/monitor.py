"""Experiment E-MON: the streaming fetal-SpO2 monitor (deployment mode).

Figs. 6-7 are offline studies; the paper's clinical end product is a
bedside monitor producing a *continuous* fetal SpO2 readout.  This
artefact drives one simulated ewe through
:class:`repro.tfo.SpO2Monitor`: chunk-sized pushes of the two-wavelength
PPG, blood draws registered as their timestamps pass, calibration
refitted at every completed draw, and the draw-time estimates compared
against the offline :func:`repro.tfo.run_in_vivo` path the monitor
guarantees equivalence with.

The demo calibrates the extractor mean from the record itself so its
numbers line up exactly with the offline study; a deployed monitor
would calibrate from a settling period (see
:class:`repro.tfo.ppg.AcExtractor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.common import (
    ARTEFACT_METHODS,
    ExperimentContext,
    display_method_name,
    table2_specs,
)
from repro.service import SeparatorSpec, build_separator
from repro.tfo import (
    DrawEstimate,
    SpO2Monitor,
    make_sheep_recording,
    run_in_vivo,
)
from repro.utils.logging import get_logger
from repro.utils.tables import TextTable

_LOG = get_logger("experiments.monitor")


@dataclass
class MonitorResult:
    """One streamed subject: draw trail, equivalence, and latency."""

    sheep: str
    method: str
    preset_name: str
    draws: List[DrawEstimate]
    final_estimates: np.ndarray
    monitor_correlation: float
    offline_correlation: float
    max_ratio_deviation: float
    n_refits: int
    n_crossfade_spans: int
    chunk_seconds: float
    latency_bound_s: float
    push_ms_mean: float
    push_ms_p95: float
    push_ms_max: float

    def render(self) -> str:
        table = TextTable(
            ["draw t (s)", "SaO2", "R", "SpO2 (incremental)", "SpO2 (final)"],
            title=(
                f"Streaming fetal-SpO2 monitor — {self.sheep}, "
                f"{self.method} (preset={self.preset_name})"
            ),
        )
        for draw, final in zip(self.draws, self.final_estimates):
            table.add_row([
                draw.time_s, draw.sao2,
                float("nan") if draw.ratio is None else draw.ratio,
                float("nan") if draw.spo2 is None else draw.spo2,
                float(final),
            ])
        lines = [
            table.render(), "",
            f"calibration refits as draws arrived: {self.n_refits}",
            f"monitor correlation: {self.monitor_correlation:.3f} "
            f"(offline path: {self.offline_correlation:.3f}, "
            f"max |R_stream - R_offline| = {self.max_ratio_deviation:.2e})",
            f"cross-faded spans: {self.n_crossfade_spans}",
            f"latency: bound {self.latency_bound_s:.1f} s "
            f"(one analysis segment); push cost on {self.chunk_seconds:.1f} s "
            f"chunks: mean {self.push_ms_mean:.1f} ms, "
            f"p95 {self.push_ms_p95:.1f} ms, max {self.push_ms_max:.1f} ms",
        ]
        return "\n".join(lines)


def _streaming_geometry(
    separator, sampling_hz: float, n_samples: int, segment_seconds: float,
) -> tuple:
    """(segment, overlap) samples giving offline-exact streaming.

    For separators exposing ``stft_geometry`` the overlap covers the
    edge-contaminated zone (``n_fft + hop``) and the segment advance
    lands on the offline frame grid (a hop multiple) — the
    :mod:`repro.streaming` equivalence conditions.  Other methods fall
    back to a quarter-segment overlap (no exactness guarantee).
    """
    segment_target = max(1, int(round(segment_seconds * sampling_hz)))
    if hasattr(separator, "stft_geometry"):
        n_fft, hop = separator.stft_geometry(sampling_hz, n_samples)
        overlap = n_fft + hop
        advance = max(hop, ((segment_target - overlap) // hop) * hop)
        return overlap + advance, overlap
    return segment_target, max(1, segment_target // 4)


def run_monitor(
    context: Optional[ExperimentContext] = None,
    sheep: str = "sheep2",
    duration_s: Optional[float] = None,
    method: Union[str, SeparatorSpec, None] = None,
    chunk_seconds: float = 1.0,
    segment_seconds: float = 30.0,
) -> MonitorResult:
    """Stream one simulated ewe through the live fetal-SpO2 monitor.

    ``method`` is a registered name (resolved by
    :func:`repro.experiments.table2_specs`, so DHF is scaled by the
    preset; default spectral masking) or a spec.  A DHF spec fits every
    segment's prior cold from its seed.
    """
    if chunk_seconds <= 0:
        raise ConfigurationError(
            f"chunk_seconds must be positive, got {chunk_seconds}"
        )
    context = context or ExperimentContext.from_name()
    if duration_s is None:
        duration_s = 4.0 * context.duration_s
    recording = make_sheep_recording(
        sheep, duration_s=duration_s, seed=context.seed,
    )
    if isinstance(method, SeparatorSpec):
        spec = method
    else:
        names = (method,) if method else ARTEFACT_METHODS["monitor"]
        (spec,) = table2_specs(context.preset, include=names).values()
    label = display_method_name(spec.method)
    separator = build_separator(spec)
    fs = recording.sampling_hz
    n = recording.signals.n_samples
    tracks = recording.f0_tracks()
    segment, overlap = _streaming_geometry(separator, fs, n, segment_seconds)
    ac_mean = {
        wl: float(np.mean(recording.signals.ppg[wl] - recording.signals.dc[wl]))
        for wl in recording.signals.ppg
    }
    _LOG.info(
        "monitor: %s on %s, segment=%d overlap=%d chunk=%.1fs",
        label, sheep, segment, overlap, chunk_seconds,
    )

    chunk = max(1, int(round(chunk_seconds * fs)))
    draw_queue = sorted(
        zip(recording.draw_times_s, recording.draw_sao2),
        key=lambda pair: pair[0],
    )
    push_costs: List[float] = []
    with SpO2Monitor(
        separator, fs, segment_samples=segment, overlap_samples=overlap,
        ac_mean=ac_mean,
    ) as monitor:
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            # Blood draws "arrive" as the stream passes their timestamps.
            while draw_queue and draw_queue[0][0] * fs <= stop:
                t, sao2 = draw_queue.pop(0)
                monitor.add_draw(t, sao2)
            update = monitor.push(
                {wl: recording.signals.ppg[wl][start:stop]
                 for wl in recording.signals.ppg},
                {wl: recording.signals.dc[wl][start:stop]
                 for wl in recording.signals.ppg},
                {name: track[start:stop] for name, track in tracks.items()},
            )
            push_costs.append(update.elapsed_s)
        result = monitor.finish()

    offline = run_in_vivo(recording, spec)
    ratios = np.array([draw.ratio for draw in result.draws])
    costs_ms = 1e3 * np.asarray(push_costs)
    return MonitorResult(
        sheep=sheep,
        method=label,
        preset_name=context.preset.name,
        draws=result.draws,
        final_estimates=(
            result.fit.spo2_estimates if result.fit is not None
            else np.full(len(result.draws), np.nan)
        ),
        monitor_correlation=result.correlation,
        offline_correlation=offline.correlation,
        max_ratio_deviation=float(
            np.abs(ratios - offline.fit.ratios).max()
        ),
        n_refits=result.n_refits,
        n_crossfade_spans=sum(
            len(spans) for spans in result.crossfade_spans.values()
        ),
        chunk_seconds=float(chunk_seconds),
        latency_bound_s=segment / fs,
        push_ms_mean=float(costs_ms.mean()),
        push_ms_p95=float(np.percentile(costs_ms, 95)),
        push_ms_max=float(costs_ms.max()),
    )
