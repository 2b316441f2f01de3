"""Tests for the TFO in-vivo substrate: SaO2, PPG synthesis, SpO2 pipeline."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.metrics import pearson
from repro.tfo import (
    CALIBRATION_K,
    SHEEP_PROFILES,
    blood_draw_times,
    fit_spo2,
    make_sheep_recording,
    modulation_ratio_at_draws,
    oracle_in_vivo,
    ratio_from_sao2,
    sao2_from_ratio,
    sao2_trajectory,
    sheep_names,
    synthesize_tfo,
)


class TestSao2:
    def test_calibration_roundtrip(self):
        sao2 = np.linspace(0.2, 0.9, 20)
        assert np.allclose(sao2_from_ratio(ratio_from_sao2(sao2)), sao2)

    def test_ratio_monotone_decreasing_in_sao2(self):
        # Higher saturation -> lower 740/850 modulation ratio.
        r = ratio_from_sao2(np.array([0.3, 0.5, 0.7]))
        assert r[0] > r[1] > r[2]

    def test_out_of_range_raises(self):
        with pytest.raises(ConfigurationError):
            ratio_from_sao2(np.array([1.2]))

    def test_trajectory_bounds_and_episodes(self):
        profile = SHEEP_PROFILES["sheep1"]
        sao2 = sao2_trajectory(profile, 600.0, 10.0, rng=0)
        assert sao2.size == 6000
        assert np.all(sao2 >= 0.05) and np.all(sao2 <= 0.98)
        # Hypoxia episodes pull the trace below baseline.
        assert sao2.min() < profile.baseline - 0.1

    def test_draw_times_schedule(self):
        draws = blood_draw_times(2400.0)
        assert draws[0] == 60.0
        # Cycle of 2.5 / 5 / 10 minutes.
        assert np.isclose(draws[1] - draws[0], 150.0)
        assert np.isclose(draws[2] - draws[1], 300.0)
        assert np.isclose(draws[3] - draws[2], 600.0)
        assert draws[-1] <= 2400.0 - 75.0

    def test_too_short_recording_raises(self):
        with pytest.raises(ConfigurationError):
            blood_draw_times(30.0)


class TestPpgSynthesis:
    @pytest.fixture(scope="class")
    def signals(self):
        sao2 = np.full(3000, 0.5)
        return synthesize_tfo(sao2, 100.0, rng=1)

    def test_both_wavelengths(self, signals):
        assert set(signals.ppg) == {740, 850}
        assert signals.ppg[740].size == 3000

    def test_layers_present(self, signals):
        assert set(signals.layers[850]) == {
            "respiration", "maternal", "fetal",
        }

    def test_fetal_ratio_encodes_sao2(self, signals):
        # AC(740)/AC(850) for the fetal layer equals R * DC740/DC850.
        f740 = signals.layers[740]["fetal"]
        f850 = signals.layers[850]["fetal"]
        measured = np.std(f740) / np.std(f850)
        expected = float(
            signals.ratio_true.mean()
            * (signals.dc[740] / signals.dc[850]).mean()
        )
        assert abs(measured - expected) / expected < 0.05

    def test_mixture_sums_layers(self, signals):
        for wl in (740, 850):
            recon = signals.dc[wl] + sum(signals.layers[wl].values())
            # Only white noise unexplained.
            resid = signals.ppg[wl] - recon
            assert np.std(resid) < 0.002

    def test_respiration_dominates(self, signals):
        layers = signals.layers[850]
        assert np.std(layers["respiration"]) > 5 * np.std(layers["fetal"])

    def test_bad_sao2_raises(self):
        with pytest.raises(ConfigurationError):
            synthesize_tfo(np.array([0.5]), 100.0)


class TestRecording:
    def test_sheep_names(self):
        assert sheep_names() == ["sheep1", "sheep2"]

    def test_make_recording(self):
        rec = make_sheep_recording("sheep1", duration_s=400.0, seed=3)
        assert rec.duration_s == pytest.approx(400.0)
        assert rec.n_draws >= 2
        assert rec.draw_sao2.shape == rec.draw_times_s.shape
        assert set(rec.f0_tracks()) == {"respiration", "maternal", "fetal"}

    def test_unknown_sheep_raises(self):
        with pytest.raises(ConfigurationError):
            make_sheep_recording("sheep9")

    def test_deterministic(self):
        a = make_sheep_recording("sheep2", duration_s=300.0, seed=5)
        b = make_sheep_recording("sheep2", duration_s=300.0, seed=5)
        assert np.allclose(a.signals.ppg[740], b.signals.ppg[740])


class TestSpo2Pipeline:
    def test_modulation_ratio_ground_truth(self):
        rec = make_sheep_recording("sheep2", duration_s=600.0, seed=7)
        ratios = modulation_ratio_at_draws(
            rec.signals.layers[740]["fetal"], rec.signals.layers[850]["fetal"],
            rec.signals.ppg[740], rec.signals.ppg[850],
            rec.sampling_hz, rec.draw_times_s,
        )
        # Measured ratios track the driving truth closely.
        idx = (rec.draw_times_s * rec.sampling_hz).astype(int)
        truth = rec.signals.ratio_true[idx]
        assert np.abs(ratios - truth).max() < 0.15

    def test_zero_dc_window_is_a_data_error(self):
        # Draw 0's window [0, 200) sees a zeroed 740 nm raw channel: the
        # offline path refuses it like the monitor does, not with a
        # ZeroDivisionError.
        n = 1000
        fetal = np.sin(np.arange(n) * 0.3)
        raw_850 = np.full(n, 5.0)
        raw_740 = raw_850.copy()
        raw_740[:200] = 0.0
        with pytest.raises(DataError, match="draw 0 .*zero DC at 740 nm"):
            modulation_ratio_at_draws(
                fetal, fetal, raw_740, raw_850, 100.0, [1.0, 6.0],
                window_s=2.0,
            )

    def test_fit_recovers_calibration(self):
        sao2 = np.linspace(0.3, 0.8, 10)
        ratios = ratio_from_sao2(sao2)
        fit = fit_spo2(ratios, sao2)
        assert fit.correlation > 0.999
        assert np.abs(fit.spo2_estimates - sao2).max() < 1e-6

    def test_fit_needs_three_draws(self):
        with pytest.raises(DataError):
            fit_spo2([1.0, 1.1], [0.5, 0.6])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(DataError):
            fit_spo2([1.0, 1.1, 1.2], [0.5, 0.6])

    def test_oracle_high_correlation(self):
        rec = make_sheep_recording("sheep2", duration_s=600.0, seed=7)
        oracle = oracle_in_vivo(rec)
        assert oracle.correlation > 0.9

    def test_noisy_ratios_degrade_correlation(self, rng):
        sao2 = np.linspace(0.3, 0.8, 12)
        ratios = ratio_from_sao2(sao2) + rng.normal(0, 0.5, 12)
        fit = fit_spo2(ratios, sao2)
        assert fit.correlation < 0.9
