"""Streaming under sensor dropout: gaps vs chunk boundaries and fades.

The degradation layer corrupts the *signal*; the streaming machinery
must not care.  These tests place dropout gaps exactly on chunk
boundaries, across segment boundaries, and inside the cross-fade spans
recorded by a clean run, then assert the streamed separation of the
degraded record still equals its offline separation outside the fades —
for chunk sizes of one STFT frame, a prime, and the whole record.

The second half feeds dropout-degraded raw PPG to
:class:`repro.tfo.SpO2Monitor`: the monitor must flag the stuck spans,
mark overlapping draw/live windows ``degraded``, and never emit a NaN
ratio — an unusable degraded window completes with ``ratio=None``.
"""

import numpy as np
import pytest

from repro.baselines import SpectralMaskingSeparator
from repro.scenarios import SensorDropoutSpec
from repro.service import SpectralMaskingSpec
from repro.streaming import stream_record
from repro.tfo import SpO2Monitor, make_sheep_recording

FS = 100.0
SEGMENT = 1024
OVERLAP = 256


@pytest.fixture(scope="module")
def masker():
    return SpectralMaskingSeparator(
        SpectralMaskingSpec(n_fft_seconds=0.64, n_harmonics=4)
    )


@pytest.fixture(scope="module")
def clean_record():
    n = 3000
    t = np.arange(n) / FS
    mixed = (
        np.sin(2 * np.pi * 1.1 * t)
        + 0.5 * np.sin(2 * np.pi * 2.9 * t + 0.7)
    )
    tracks = {"a": np.full(n, 1.1), "b": np.full(n, 2.9)}
    return mixed, tracks


@pytest.fixture(scope="module")
def crossfade_spans(clean_record, masker):
    """The blend regions of a clean run at the test geometry."""
    mixed, tracks = clean_record
    _, engine = stream_record(
        masker, mixed, FS, tracks,
        segment_samples=SEGMENT, overlap_samples=OVERLAP,
        chunk_samples=100,
    )
    assert engine.crossfade_spans, "geometry must produce cross-fades"
    return engine.crossfade_spans


@pytest.fixture(scope="module", params=["zero", "hold"])
def degraded(request, clean_record, crossfade_spans):
    """The record with gaps on a chunk boundary, across a segment
    boundary, and dead-centre inside a recorded cross-fade span."""
    mixed, tracks = clean_record
    fade_start, fade_stop = crossfade_spans[0]
    fade_mid_s = (fade_start + fade_stop) / 2 / FS
    spec = SensorDropoutSpec(
        severity=0.5,
        mode=request.param,
        gaps=(
            (15.0, 0.6),           # starts exactly on a chunk boundary
            (SEGMENT / FS, 0.5),   # spans the first segment boundary
            (fade_mid_s, 0.2),     # inside a cross-fade blend
        ),
    )
    return spec.apply(mixed, FS), tracks, spec


class TestDropoutStreaming:
    def _keep_mask(self, engine, n):
        keep = np.ones(n, dtype=bool)
        for s, e in engine.crossfade_spans:
            keep[s:e] = False
        return keep

    def test_streamed_matches_offline_across_chunk_sizes(
        self, degraded, masker,
    ):
        mixed, tracks, _ = degraded
        n = mixed.size
        _, hop = masker.stft_geometry(FS, SEGMENT)
        offline = masker.separate(mixed, FS, tracks)
        for chunk in (hop, 131, n):  # one frame, a prime, whole record
            est, engine = stream_record(
                masker, mixed, FS, tracks,
                segment_samples=SEGMENT, overlap_samples=OVERLAP,
                chunk_samples=chunk,
            )
            keep = self._keep_mask(engine, n)
            assert keep.sum() > n // 2
            for name in tracks:
                err = np.abs(est[name] - offline[name])[keep].max()
                assert err <= 1e-8, (chunk, name, err)

    def test_chunking_invariance_bitwise_under_dropout(
        self, degraded, masker,
    ):
        mixed, tracks, _ = degraded
        _, hop = masker.stft_geometry(FS, SEGMENT)
        outs = [
            stream_record(
                masker, mixed, FS, tracks,
                segment_samples=SEGMENT, overlap_samples=OVERLAP,
                chunk_samples=chunk,
            )[0]
            for chunk in (hop, 131, mixed.size)
        ]
        for name in tracks:
            assert np.array_equal(outs[0][name], outs[1][name])
            assert np.array_equal(outs[0][name], outs[2][name])

    def test_gap_geometry_is_as_designed(self, degraded, crossfade_spans):
        mixed, _, spec = degraded
        mask = spec.gap_mask(mixed.size, FS)
        assert mask[1500] and not mask[1499]       # chunk-boundary start
        assert mask[SEGMENT - 1] or mask[SEGMENT]  # segment-boundary gap
        fade_start, fade_stop = crossfade_spans[0]
        assert mask[(fade_start + fade_stop) // 2]  # inside the fade


class TestMonitorDropout:
    GAP_LO_S, GAP_HI_S = 30.0, 34.0

    @pytest.fixture(scope="class")
    def rec(self):
        return make_sheep_recording("sheep1", duration_s=120.0, seed=3)

    def drive(self, rec, ppg, monitor, chunk):
        tracks = rec.f0_tracks()
        n = rec.signals.n_samples
        updates = []
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            updates.append(monitor.push(
                {wl: ppg[wl][start:stop] for wl in (740, 850)},
                {wl: rec.signals.dc[wl][start:stop] for wl in (740, 850)},
                {name: t[start:stop] for name, t in tracks.items()},
            ))
        return monitor.finish(), updates

    @pytest.fixture(scope="class")
    def dropped_ppg(self, rec):
        """Raw PPG with both wavelengths stuck at zero for 4 s."""
        lo, hi = int(self.GAP_LO_S * FS), int(self.GAP_HI_S * FS)
        out = {}
        for wl in (740, 850):
            ppg = rec.signals.ppg[wl].copy()
            ppg[lo:hi] = 0.0
            out[wl] = ppg
        return out

    @pytest.mark.parametrize("chunk", [97, 250])
    def test_flags_gap_and_never_emits_nan(self, rec, dropped_ppg, chunk):
        # Bounded-latency geometry with a small FFT: samples finalize in
        # ~320-sample steps *during* streaming, so the live sliding
        # window sweeps across the stuck span mid-run and the per-push
        # updates must carry the degraded flag too.
        spec = {
            "method": "spectral-masking",
            "n_fft_seconds": 0.64, "n_harmonics": 4,
        }
        n_fft, hop = SpectralMaskingSeparator(
            SpectralMaskingSpec(n_fft_seconds=0.64, n_harmonics=4),
        ).stft_geometry(rec.sampling_hz, rec.signals.n_samples)
        overlap = n_fft + hop
        monitor = SpO2Monitor(
            spec, rec.sampling_hz,
            segment_samples=overlap + 20 * hop, overlap_samples=overlap,
            window_s=2.0,
        )
        # One draw inside the gap, three in clean territory.
        for t, sao2 in [(31.5, 0.40), (70.0, 0.45), (85.0, 0.50),
                        (100.0, 0.55)]:
            monitor.add_draw(t, sao2)
        result, updates = self.drive(rec, dropped_ppg, monitor, chunk)

        lo, hi = int(self.GAP_LO_S * FS), int(self.GAP_HI_S * FS)
        assert any(
            start <= lo and hi <= stop for start, stop in monitor.gap_spans
        ), monitor.gap_spans

        by_time = {d.time_s: d for d in result.draws}
        dirty = by_time[31.5]
        assert dirty.degraded
        # Window fully inside the zeroed run: DC is zero, the ratio is
        # unusable — reported as None, not NaN, and excluded from the fit.
        assert dirty.ratio is None and dirty.spo2 is None
        for t in (70.0, 85.0, 100.0):
            clean = by_time[t]
            assert not clean.degraded
            assert clean.ratio is not None and np.isfinite(clean.ratio)
        assert result.fit is not None
        assert len(result.fit.ratios) == 3
        assert np.all(np.isfinite(result.fit.ratios))

        # Live-window updates overlapping the gap carry the flag too.
        flagged = [u for u in updates if u.degraded]
        assert flagged
        for update in updates:
            if update.ratio is not None:
                assert np.isfinite(update.ratio)

    def test_detection_disabled_with_none(self, rec, dropped_ppg):
        n = rec.signals.n_samples
        monitor = SpO2Monitor(
            "spectral-masking", rec.sampling_hz,
            segment_samples=n, overlap_samples=n // 4,
            window_s=2.0, flag_dropouts_s=None,
        )
        monitor.add_draw(70.0, 0.45)
        monitor.add_draw(85.0, 0.50)
        monitor.add_draw(100.0, 0.55)
        result, _ = self.drive(rec, dropped_ppg, monitor, 250)
        assert monitor.gap_spans == []
        assert all(not d.degraded for d in result.draws)

    def test_clean_record_has_no_gap_spans(self, rec):
        n = rec.signals.n_samples
        monitor = SpO2Monitor(
            "spectral-masking", rec.sampling_hz,
            segment_samples=n, overlap_samples=n // 4,
            window_s=2.0,
        )
        monitor.add_draw(70.0, 0.45)
        monitor.add_draw(85.0, 0.50)
        monitor.add_draw(100.0, 0.55)
        result, updates = self.drive(
            rec, {wl: rec.signals.ppg[wl] for wl in (740, 850)},
            monitor, 250,
        )
        assert monitor.gap_spans == []
        assert all(not d.degraded for d in result.draws)
        assert all(not u.degraded for u in updates)
