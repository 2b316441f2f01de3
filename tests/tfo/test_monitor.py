"""The TFO monitoring subsystem: cohort batching and the live monitor.

Covers the three guarantees the subsystem makes:

* the batched cohort path (:func:`repro.tfo.run_in_vivo_batch`) equals
  the historical one-``separate``-per-channel loop — bitwise for the
  vectorized masking baseline, within the documented ``1e-8`` for DHF's
  stacked float64 deep-prior fits;
* the streaming :class:`repro.tfo.SpO2Monitor` reproduces the offline
  :func:`repro.tfo.fit_spo2` path exactly at every draw, for chunk
  sizes {one STFT frame, a prime, the whole record}, when its
  extractor mean is calibrated and the geometry is offline-exact; and
* in bounded-latency operation, draws whose averaging windows avoid the
  recorded cross-fade spans still match exactly.

Plus the unit behaviour of :func:`repro.tfo.ppg.ac_component` and
:class:`repro.tfo.ppg.AcExtractor`.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.service import DHFSpec, SeparationService, build_separator
from repro.tfo import (
    AcExtractor,
    SpO2Monitor,
    cohort_records,
    make_sheep_recording,
    run_comparison,
    run_in_vivo,
    run_in_vivo_batch,
    separate_fetal_both_wavelengths,
)
from repro.tfo.ppg import ac_component
from repro.tfo.spo2 import fit_spo2, modulation_ratio_at_draws

DURATION_S = 120.0


@pytest.fixture(scope="module")
def recording():
    return make_sheep_recording("sheep1", duration_s=DURATION_S, seed=3)


@pytest.fixture(scope="module")
def recordings(recording):
    return [
        recording,
        make_sheep_recording("sheep2", duration_s=DURATION_S, seed=3),
    ]


def sequential_fetal(rec, separator):
    """The historical path: one ``separate`` call per wavelength."""
    tracks = rec.f0_tracks()
    return {
        wl: separator.separate(
            ac_component(rec.signals.ppg[wl], rec.signals.dc[wl]),
            rec.sampling_hz, tracks,
        )["fetal"]
        for wl in sorted(rec.signals.ppg)
    }


class TestAcHelpers:
    def test_ac_component_removes_dc_and_mean(self):
        dc = np.full(100, 5.0)
        ac = np.sin(np.linspace(0, 20, 100)) + 0.25
        out = ac_component(dc + ac, dc)
        assert abs(out.mean()) < 1e-12
        np.testing.assert_allclose(out, ac - ac.mean(), atol=1e-12)

    def test_ac_component_length_mismatch_raises(self):
        with pytest.raises(DataError, match="DC baseline"):
            ac_component(np.ones(10), np.ones(9))

    def test_extractor_matches_offline_when_calibrated(self):
        rng = np.random.default_rng(0)
        raw = 5.0 + rng.normal(0, 0.1, 1000)
        dc = np.full(1000, 5.0)
        offline = ac_component(raw, dc)
        extractor = AcExtractor(mean=float(np.mean(raw - dc)))
        chunks = [
            extractor.push(raw[i:i + 137], dc[i:i + 137])
            for i in range(0, 1000, 137)
        ]
        np.testing.assert_array_equal(np.concatenate(chunks), offline)

    def test_extractor_running_mean_state(self):
        extractor = AcExtractor()
        extractor.push(np.array([3.0, 4.0]), np.array([1.0, 1.0]))
        assert extractor.n_seen == 2
        assert extractor.running_mean == pytest.approx(2.5)
        extractor.push(np.array([6.0]), np.array([1.0]))
        assert extractor.n_seen == 3
        assert extractor.running_mean == pytest.approx(10.0 / 3.0)

    def test_extractor_empty_chunk(self):
        extractor = AcExtractor()
        out = extractor.push(np.zeros(0), np.zeros(0))
        assert out.size == 0 and extractor.n_seen == 0

    def test_extractor_length_mismatch_raises(self):
        with pytest.raises(DataError, match="same grid"):
            AcExtractor().push(np.ones(4), np.ones(3))


class TestCohortRecords:
    def test_flattens_subjects_and_wavelengths(self, recordings):
        records, keys = cohort_records(recordings)
        assert len(records) == 4
        assert keys == [
            ("sheep1", 740), ("sheep1", 850),
            ("sheep2", 740), ("sheep2", 850),
        ]
        assert [r.name for r in records] == [
            "sheep1:740", "sheep1:850", "sheep2:740", "sheep2:850",
        ]
        for record, rec in zip(records[:2], [recordings[0]] * 2):
            assert record.sampling_hz == rec.sampling_hz
            assert set(record.f0_tracks) == {
                "respiration", "maternal", "fetal",
            }

    def test_mixed_is_zero_mean_ac(self, recording):
        records, _ = cohort_records([recording])
        expected = ac_component(
            recording.signals.ppg[740], recording.signals.dc[740]
        )
        np.testing.assert_array_equal(records[0].mixed, expected)

    def test_duplicate_subjects_rejected(self, recording):
        with pytest.raises(ConfigurationError, match="distinct"):
            cohort_records([recording, recording])


class TestBatchEquivalence:
    def test_masking_batch_is_bitwise_sequential(self, recordings):
        from repro.baselines import SpectralMaskingSeparator

        separator = SpectralMaskingSeparator()
        results = run_in_vivo_batch(
            recordings, {"Spect. Masking": "spectral-masking"},
        )
        for rec in recordings:
            expected = sequential_fetal(rec, separator)
            got = results[rec.name]["Spect. Masking"]
            for wl in (740, 850):
                np.testing.assert_array_equal(
                    got.fetal_estimates[wl], expected[wl]
                )
            ratios = modulation_ratio_at_draws(
                expected[740], expected[850],
                rec.signals.ppg[740], rec.signals.ppg[850],
                rec.sampling_hz, rec.draw_times_s,
            )
            fit = fit_spo2(ratios, rec.draw_sao2)
            np.testing.assert_array_equal(
                got.fit.spo2_estimates, fit.spo2_estimates
            )

    def test_dhf_stacked_fits_match_sequential(self):
        # float64 fits: the batched engine's documented <= 1e-8 regime.
        # A short protocol and iteration budget keep the test CI-sized;
        # equivalence is per-iteration, so the guarantee is unaffected
        # (the full-budget cohort runs in bench_figure6_spo2).
        rec = make_sheep_recording("sheep1", duration_s=90.0, seed=3)
        spec = DHFSpec.from_preset("smoke", dtype="float64", iterations=8)
        separator = build_separator(spec)
        expected = sequential_fetal(rec, separator)
        result = run_in_vivo_batch([rec], {"DHF": spec})
        got = result[rec.name]["DHF"]
        for wl in (740, 850):
            err = np.abs(got.fetal_estimates[wl] - expected[wl]).max()
            assert err <= 1e-8, (wl, err)

    def test_single_method_label_from_separator(self, recording):
        result = run_in_vivo(recording, "spectral-masking")
        assert result.method == "Spect. Masking"
        assert result.sheep == "sheep1"
        assert np.isfinite(result.correlation)

    def test_single_method_accepts_spec_dict(self, recording):
        # A {"method": ..., **fields} spec dict is one method, not a
        # label->method mapping.
        result = run_in_vivo(
            recording, {"method": "spectral-masking", "n_harmonics": 2},
        )
        assert result.method == "Spect. Masking"
        from repro.service import SpectralMaskingSpec

        by_spec = run_in_vivo(recording, SpectralMaskingSpec(n_harmonics=2))
        np.testing.assert_array_equal(
            result.fit.ratios, by_spec.fit.ratios
        )

    def test_run_comparison_orders_methods(self, recording):
        results = run_comparison(recording, {
            "A": "spectral-masking",
            "B": "spectral-masking",
        })
        assert list(results) == ["A", "B"]
        np.testing.assert_array_equal(
            results["A"].fit.ratios, results["B"].fit.ratios
        )

    def test_prebuilt_service_rejects_policy_overrides(self, recording):
        with SeparationService("spectral-masking") as service:
            with pytest.raises(ConfigurationError, match="workers"):
                run_in_vivo_batch([recording], service, workers=2)
            result = run_in_vivo_batch([recording], service)
            assert "Spect. Masking" in result[recording.name]

    def test_separate_fetal_accepts_specs(self, recording):
        from repro.baselines import SpectralMaskingSeparator

        by_name = separate_fetal_both_wavelengths(
            recording, "spectral-masking"
        )
        by_instance = separate_fetal_both_wavelengths(
            recording, SpectralMaskingSeparator()
        )
        assert set(by_name) == {740, 850}
        for wl in (740, 850):
            np.testing.assert_array_equal(by_name[wl], by_instance[wl])


def drive_monitor(monitor, rec, chunk):
    """Push a whole recording through a monitor in fixed-size chunks."""
    tracks = rec.f0_tracks()
    n = rec.signals.n_samples
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        monitor.push(
            {wl: rec.signals.ppg[wl][start:stop] for wl in (740, 850)},
            {wl: rec.signals.dc[wl][start:stop] for wl in (740, 850)},
            {name: track[start:stop] for name, track in tracks.items()},
        )
    return monitor.finish()


class TestSpO2MonitorEquivalence:
    @pytest.fixture(scope="class")
    def offline(self, recording):
        return run_in_vivo(recording, "spectral-masking")

    @pytest.fixture(scope="class")
    def ac_means(self, recording):
        return {
            wl: float(np.mean(
                recording.signals.ppg[wl] - recording.signals.dc[wl]
            ))
            for wl in (740, 850)
        }

    def exact_monitor(self, rec, ac_means, **overrides):
        """Whole-record segment: no cross-fades, offline-exact."""
        n = rec.signals.n_samples
        kwargs = dict(
            segment_samples=n, overlap_samples=n // 4, ac_mean=ac_means,
        )
        kwargs.update(overrides)
        return SpO2Monitor("spectral-masking", rec.sampling_hz, **kwargs)

    def test_draw_estimates_match_offline_across_chunk_sizes(
        self, recording, offline, ac_means,
    ):
        from repro.baselines import SpectralMaskingSeparator

        n = recording.signals.n_samples
        _, hop = SpectralMaskingSeparator().stft_geometry(
            recording.sampling_hz, n
        )
        for chunk in (hop, 997, n):  # one frame, a prime, whole record
            monitor = self.exact_monitor(recording, ac_means)
            for t, sao2 in zip(
                recording.draw_times_s, recording.draw_sao2,
            ):
                monitor.add_draw(t, sao2)
            result = drive_monitor(monitor, recording, chunk)
            assert not any(
                spans for spans in result.crossfade_spans.values()
            )
            ratios = np.array([d.ratio for d in result.draws])
            np.testing.assert_array_equal(ratios, offline.fit.ratios)
            np.testing.assert_array_equal(
                result.fit.spo2_estimates, offline.fit.spo2_estimates
            )
            assert result.fit.w0 == offline.fit.w0
            assert result.fit.w1 == offline.fit.w1
            assert result.correlation == offline.correlation

    def test_bounded_latency_matches_outside_crossfades(
        self, recording, ac_means,
    ):
        from repro.baselines import SpectralMaskingSeparator

        rec = recording
        n = rec.signals.n_samples
        n_fft, hop = SpectralMaskingSeparator().stft_geometry(
            rec.sampling_hz, n
        )
        # Offline-exact geometry: overlap covers the edge-contaminated
        # zone, the advance lands on the offline frame grid.
        overlap = n_fft + hop
        segment = overlap + 20 * hop
        window_s = 20.0
        fetal = separate_fetal_both_wavelengths(rec, "spectral-masking")
        offline_ratios = modulation_ratio_at_draws(
            fetal[740], fetal[850],
            rec.signals.ppg[740], rec.signals.ppg[850],
            rec.sampling_hz, rec.draw_times_s, window_s=window_s,
        )

        monitor = SpO2Monitor(
            "spectral-masking", rec.sampling_hz,
            segment_samples=segment, overlap_samples=overlap,
            window_s=window_s, ac_mean=ac_means,
        )
        for t, sao2 in zip(rec.draw_times_s, rec.draw_sao2):
            monitor.add_draw(t, sao2)
        result = drive_monitor(monitor, rec, 250)
        spans = result.crossfade_spans[740]
        assert spans, "bounded-latency run should record cross-fades"
        half = monitor.half_window
        clear = 0
        for draw, offline_ratio in zip(result.draws, offline_ratios):
            centre = int(round(draw.time_s * rec.sampling_hz))
            lo, hi = max(0, centre - half), min(n, centre + half)
            if all(hi <= start or lo >= stop for start, stop in spans):
                assert draw.ratio == offline_ratio, draw
                clear += 1
        assert clear >= 3, "test geometry should leave clear draw windows"

    def test_incremental_refits_as_draws_arrive(
        self, recording, ac_means,
    ):
        monitor = self.exact_monitor(recording, ac_means, window_s=20.0)
        tracks = recording.f0_tracks()
        n = recording.signals.n_samples
        draw_queue = sorted(
            zip(recording.draw_times_s, recording.draw_sao2),
            key=lambda pair: pair[0],
        )
        seen_fits = []
        reported = []
        chunk = 500
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            while draw_queue and draw_queue[0][0] * recording.sampling_hz <= stop:
                t, sao2 = draw_queue.pop(0)
                monitor.add_draw(t, sao2)
            update = monitor.push(
                {wl: recording.signals.ppg[wl][start:stop]
                 for wl in (740, 850)},
                {wl: recording.signals.dc[wl][start:stop]
                 for wl in (740, 850)},
                {name: track[start:stop] for name, track in tracks.items()},
            )
            reported.extend(draw.index for draw in update.completed)
            if monitor.fit is not None and monitor.fit not in seen_fits:
                seen_fits.append(monitor.fit)
        result = monitor.finish()
        # Every completion is reported exactly once across updates.
        assert len(reported) == len(set(reported))
        # With a small window most draws complete mid-stream, so the
        # calibration was refitted several times before the flush.
        assert result.n_refits >= 2
        completed_mid_stream = [
            d for d in result.draws if d.completed_at < n
        ]
        assert len(completed_mid_stream) >= 3
        assert all(d.ratio is not None for d in result.draws)

    def test_live_ratio_appears_once_window_fills(
        self, recording, ac_means,
    ):
        monitor = self.exact_monitor(recording, ac_means, window_s=20.0)
        tracks = recording.f0_tracks()
        n = recording.signals.n_samples
        window = 2 * monitor.half_window
        saw_none = saw_ratio = False
        chunk = 500
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            update = monitor.push(
                {wl: recording.signals.ppg[wl][start:stop]
                 for wl in (740, 850)},
                {wl: recording.signals.dc[wl][start:stop]
                 for wl in (740, 850)},
                {name: track[start:stop] for name, track in tracks.items()},
            )
            if update.n_finalized < window:
                assert update.ratio is None
                saw_none = True
            else:
                assert update.ratio is not None and update.ratio > 0
                saw_ratio = True
        monitor.finish()
        assert saw_none and saw_ratio


class TestSpO2MonitorValidation:
    def make_monitor(self, **overrides):
        kwargs = dict(
            segment_samples=4000, overlap_samples=1000,
        )
        kwargs.update(overrides)
        return SpO2Monitor("spectral-masking", 100.0, **kwargs)

    def test_missing_wavelength_raises(self):
        monitor = self.make_monitor()
        with pytest.raises(DataError, match="wavelength"):
            monitor.push(
                {740: np.zeros(10)},
                {740: np.zeros(10), 850: np.zeros(10)},
                {"fetal": np.full(10, 2.5)},
            )

    def test_misaligned_chunks_raise(self):
        monitor = self.make_monitor()
        with pytest.raises(DataError, match="aligned"):
            monitor.push(
                {740: np.zeros(10), 850: np.zeros(9)},
                {740: np.zeros(10), 850: np.zeros(9)},
                {"fetal": np.full(10, 2.5)},
            )

    def test_rejected_push_leaves_state_intact(self):
        monitor = self.make_monitor()
        good = {740: np.ones(10), 850: np.ones(10)}
        for bad_ppg, bad_dc, bad_tracks in (
            ({740: np.ones(10), 850: np.ones(9)},
             {740: np.ones(10), 850: np.ones(9)},
             {"fetal": np.full(10, 2.5)}),             # misaligned
            (good, {740: np.ones(10), 850: np.ones(7)},
             {"fetal": np.full(10, 2.5)}),             # ppg/dc mismatch
            (good, good, {"maternal": np.full(10, 1.5)}),  # no fetal
            (good, good, {"fetal": np.full(7, 2.5)}),  # short track
            (good, good, {"fetal": np.r_[np.full(9, 2.5), 0.0]}),  # f0 <= 0
            (good, good, {"fetal": np.r_[np.full(9, 2.5), np.nan]}),  # NaN f0
            ({740: np.r_[np.ones(9), np.nan], 850: np.ones(10)}, good,
             {"fetal": np.full(10, 2.5)}),             # NaN ppg sample
            (good, {740: np.ones(10), 850: np.r_[np.nan, np.ones(9)]},
             {"fetal": np.full(10, 2.5)}),             # NaN dc sample
        ):
            with pytest.raises(DataError):
                monitor.push(bad_ppg, bad_dc, bad_tracks)
        assert monitor.n_pushed == 0
        for wl in (740, 850):
            assert monitor._extractors[wl].n_seen == 0
        # A correct push still works after every rejection.
        update = monitor.push(good, good, {"fetal": np.full(10, 2.5)})
        assert update.n_pushed == 10
        # The stream's sources are fixed by the first push.
        with pytest.raises(ConfigurationError, match="sources"):
            monitor.push(good, good, {"fetal": np.full(10, 2.5),
                                      "maternal": np.full(10, 1.5)})
        monitor.close()
        with pytest.raises(RuntimeError, match="closed"):
            monitor.push(good, good, {"fetal": np.full(10, 2.5)})
        assert monitor.n_pushed == 10
        for wl in (740, 850):
            assert monitor._extractors[wl].n_seen == 10

    def test_min_draws_below_calibration_minimum_rejected(self):
        with pytest.raises(ConfigurationError, match="min_draws"):
            self.make_monitor(min_draws=2)

    def test_finish_with_out_of_record_draw_raises_and_closes(self):
        monitor = self.make_monitor()
        monitor.add_draw(1e6, 0.5)  # far beyond any pushed sample
        monitor.push(
            {740: np.ones(100), 850: np.ones(100)},
            {740: np.ones(100), 850: np.ones(100)},
            {"fetal": np.full(100, 2.5)},
        )
        with pytest.raises(DataError, match="no samples"):
            monitor.finish()
        with pytest.raises(ConfigurationError, match="finished"):
            monitor.finish()

    def test_prebuilt_service_lends_its_separator(self):
        # The service's workers govern its batch modes; the monitor runs
        # its two engines serially on the service's separator.
        with SeparationService("spectral-masking", workers=2) as service:
            with SpO2Monitor(
                service, 100.0, segment_samples=4000, overlap_samples=1000,
            ) as monitor:
                for engine in monitor._engines.values():
                    assert engine.separator is service.separator

    def test_finish_empty_raises(self):
        with pytest.raises(DataError, match="empty"):
            self.make_monitor().finish()

    def test_negative_draw_time_raises(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            self.make_monitor().add_draw(-1.0, 0.5)

    def test_push_after_finish_raises(self, recording):
        ac_means = {wl: 0.0 for wl in (740, 850)}
        n = recording.signals.n_samples
        monitor = SpO2Monitor(
            "spectral-masking", recording.sampling_hz,
            segment_samples=n, overlap_samples=n // 4, ac_mean=ac_means,
        )
        drive_monitor(monitor, recording, n)
        with pytest.raises(ConfigurationError, match="finished"):
            monitor.push(
                {740: np.zeros(1), 850: np.zeros(1)},
                {740: np.zeros(1), 850: np.zeros(1)},
                {"fetal": np.full(1, 2.5)},
            )

    def test_ac_mean_mapping_missing_wavelength_raises(self):
        with pytest.raises(ConfigurationError, match="ac_mean"):
            self.make_monitor(ac_mean={740: 0.0})

    def test_no_fit_below_min_draws(self, recording):
        monitor = SpO2Monitor(
            "spectral-masking", recording.sampling_hz,
            segment_samples=recording.signals.n_samples,
            overlap_samples=recording.signals.n_samples // 4,
        )
        monitor.add_draw(float(recording.draw_times_s[0]),
                         float(recording.draw_sao2[0]))
        result = drive_monitor(
            monitor, recording, recording.signals.n_samples
        )
        assert result.fit is None
        assert np.isnan(result.correlation)
        assert result.draws[0].ratio is not None


class TestSpO2MonitorClose:
    """A closed monitor refuses work, loudly, before its state changes."""

    @staticmethod
    def make_monitor():
        return SpO2Monitor(
            "spectral-masking", 100.0, segment_samples=4000,
            overlap_samples=1000,
        )

    @staticmethod
    def chunk(n=50):
        return (
            {740: np.ones(n), 850: np.ones(n)},
            {740: np.ones(n), 850: np.ones(n)},
            {"fetal": np.full(n, 2.5)},
        )

    def test_push_and_finish_refuse_after_close(self):
        monitor = self.make_monitor()
        monitor.push(*self.chunk())
        monitor.close()
        monitor.close()  # idempotent
        for call in (lambda: monitor.push(*self.chunk()), monitor.finish):
            with pytest.raises(RuntimeError, match="closed"):
                call()
        assert monitor.n_pushed == 50
        for wl in (740, 850):
            assert monitor._extractors[wl].n_seen == 50

    def test_context_manager_exit_closes(self):
        with self.make_monitor() as monitor:
            monitor.push(*self.chunk())
        with pytest.raises(RuntimeError, match="create a new monitor"):
            monitor.push(*self.chunk())


class TestInVivoBatchCohort:
    def test_renamed_cohort_with_shared_profiles(self, recording):
        clone = dataclasses.replace(recording, name="sheep1-b")
        results = run_in_vivo_batch(
            [recording, clone], {"Spect. Masking": "spectral-masking"},
        )
        a = results["sheep1"]["Spect. Masking"]
        b = results["sheep1-b"]["Spect. Masking"]
        np.testing.assert_array_equal(a.fit.ratios, b.fit.ratios)

    def test_empty_methods_mapping_rejected(self, recording):
        with pytest.raises(ConfigurationError, match="empty"):
            run_in_vivo_batch([recording], {})
