"""Tests for the deep-prior in-painting engine and the DHF orchestrator."""

import numpy as np
import pytest

from repro.core import (
    DHFSeparator,
    InpaintingConfig,
    auto_time_dilation,
    config_for_prior_kind,
    inpaint_spectrogram,
)
from repro.errors import ConfigurationError, DataError, ShapeError
from repro.metrics import sdr_db
from repro.service import DHFSpec
from repro.synth import make_mixture

TINY = InpaintingConfig(
    iterations=25, learning_rate=1e-2, base_channels=4, depth=2,
    in_channels=4, time_dilation=3,
)


@pytest.fixture
def harmonic_image(rng):
    """A vertical-harmonic-lines magnitude image plus a visibility mask."""
    n_freq, n_frames = 33, 24
    mag = np.zeros((n_freq, n_frames))
    for k in (4, 8, 12, 16):
        mag[k] = 1.0 + 0.2 * np.sin(np.arange(n_frames) / 4.0)
    mag += 0.01
    visibility = np.ones((n_freq, n_frames), dtype=bool)
    visibility[:, 8:14] = False
    return mag, visibility


class TestInpaintingEngine:
    def test_loss_decreases(self, harmonic_image):
        mag, vis = harmonic_image
        fit = inpaint_spectrogram(mag, vis, TINY, rng=0)
        assert fit.losses[-1] < fit.losses[0]
        assert fit.output.shape == mag.shape
        assert np.all(fit.output >= 0)

    def test_visible_region_fits(self, harmonic_image):
        mag, vis = harmonic_image
        cfg = InpaintingConfig(
            iterations=120, learning_rate=1e-2, base_channels=6, depth=2,
            in_channels=4, time_dilation=3,
        )
        fit = inpaint_spectrogram(mag, vis, cfg, rng=0)
        rel = np.abs(fit.output[vis] - mag[vis]).mean() / mag[vis].mean()
        assert rel < 0.25

    def test_concealed_error_tracked(self, harmonic_image):
        mag, vis = harmonic_image
        fit = inpaint_spectrogram(mag, vis, TINY, rng=0, reference=mag)
        assert fit.concealed_errors is not None
        assert fit.concealed_errors.size == TINY.iterations
        assert fit.concealed_errors[-1] < fit.concealed_errors[0]

    def test_deterministic(self, harmonic_image):
        mag, vis = harmonic_image
        a = inpaint_spectrogram(mag, vis, TINY, rng=7)
        b = inpaint_spectrogram(mag, vis, TINY, rng=7)
        assert np.allclose(a.output, b.output)

    def test_earlier_fits_leave_no_trace(self, harmonic_image):
        """Every fit starts cold from its seed: fitting another image
        in between changes nothing, bit for bit."""
        mag, vis = harmonic_image
        first = inpaint_spectrogram(mag, vis, TINY, rng=7)
        other_vis = np.ones_like(vis)
        other_vis[:, 2:6] = False
        inpaint_spectrogram(2.0 * mag, other_vis, TINY, rng=3)
        again = inpaint_spectrogram(mag, vis, TINY, rng=7)
        np.testing.assert_array_equal(first.output, again.output)
        np.testing.assert_array_equal(first.losses, again.losses)

    def test_all_concealed_raises(self, harmonic_image):
        mag, _ = harmonic_image
        with pytest.raises(DataError):
            inpaint_spectrogram(mag, np.zeros_like(mag, dtype=bool), TINY)

    def test_negative_magnitude_raises(self, harmonic_image):
        _, vis = harmonic_image
        with pytest.raises(DataError):
            inpaint_spectrogram(-np.ones(vis.shape), vis, TINY)

    def test_shape_mismatch_raises(self, harmonic_image):
        mag, vis = harmonic_image
        with pytest.raises(ShapeError):
            inpaint_spectrogram(mag, vis[:, :5], TINY)

    def test_zero_magnitude_raises(self, harmonic_image):
        _, vis = harmonic_image
        with pytest.raises(DataError):
            inpaint_spectrogram(np.zeros(vis.shape), vis, TINY)

    def test_dilation_clamped_to_frames(self, harmonic_image):
        mag, vis = harmonic_image
        big = InpaintingConfig(
            iterations=5, base_channels=4, depth=2, in_channels=4,
            time_dilation=99,
        )
        fit = inpaint_spectrogram(mag, vis, big, rng=0)  # must not crash
        assert fit.output.shape == mag.shape


class TestPriorKindConfigs:
    def test_variants(self):
        base = TINY
        conv = config_for_prior_kind("conventional", base)
        assert conv.conv_kind == "standard"
        zb = config_for_prior_kind("harmonic_baseline", base)
        assert zb.anchor == 2 and zb.freq_pooling
        spac = config_for_prior_kind("spac", base)
        assert spac.anchor == 1 and spac.time_dilation == 1
        dil = config_for_prior_kind("spac_dilated", base)
        assert dil.time_dilation == base.time_dilation

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            config_for_prior_kind("other", TINY)


class TestAutoDilation:
    def test_no_concealment_minimum(self):
        assert auto_time_dilation(np.ones((4, 10), dtype=bool)) == 5

    def test_long_runs_increase(self):
        vis = np.ones((2, 40), dtype=bool)
        vis[:, 5:25] = False  # 20-frame concealed run
        assert auto_time_dilation(vis) == 15

    def test_short_runs_small(self):
        vis = np.ones((2, 40), dtype=bool)
        vis[:, 5] = False
        assert auto_time_dilation(vis) == 5

    def test_odd_result(self):
        vis = np.ones((1, 30), dtype=bool)
        vis[:, 10:14] = False
        assert auto_time_dilation(vis) % 2 == 1


class TestDHFSpec:
    def test_from_preset(self):
        cfg = DHFSpec.from_preset("smoke")
        assert cfg.samples_per_period == 16
        fit = cfg.inpainting_config(7)
        assert (fit.iterations, fit.time_dilation) == (30, 7)

    def test_overrides(self):
        cfg = DHFSpec.from_preset("smoke", n_harmonics=3)
        assert cfg.n_harmonics == 3

    def test_invalid_values_raise(self):
        with pytest.raises(ConfigurationError):
            DHFSpec(samples_per_period=2)
        with pytest.raises(ConfigurationError):
            DHFSpec(hop_periods=10, periods_per_window=8)
        with pytest.raises(ConfigurationError):
            DHFSpec(time_dilation="sometimes")
        with pytest.raises(ConfigurationError):
            DHFSpec(phase_policy="psychic")


class TestPrepareRound:
    def test_ridge_half_width_grows_by_slope_bins(self):
        # Harmonic k's ridge half-width is bandwidth_bins +
        # bandwidth_slope_bins * (k - 1) bins of 1 / periods_per_window
        # Hz: 1.5, 2.5 and 3.5 bins here, so k's ridge spans the 2k + 1
        # bins centred on bin 8k (aligned f0 = 1 Hz = bin 8).
        fs, n = 100.0, 3000
        t = np.arange(n) / fs
        mixed = sum(np.sin(2 * np.pi * k * 1.2 * t) / k for k in (1, 2, 3))
        dhf = DHFSeparator(DHFSpec(
            periods_per_window=8, n_harmonics=3, bandwidth_bins=1.5,
            bandwidth_slope_bins=1.0,
        ))
        prep = dhf.prepare_round(mixed, fs, {"a": np.full(n, 1.2)}, "a", 0)
        expected = [8 * k + j for k in (1, 2, 3) for j in range(-k, k + 1)]
        for frame in range(prep.spec.n_frames):
            rows = np.flatnonzero(prep.masks.target_ridge[:, frame])
            assert rows.tolist() == expected, frame

    def test_reference_magnitude_is_on_the_round_grid(self):
        mixture = make_mixture("msig1", duration_s=20.0, seed=1)
        dhf = DHFSeparator(DHFSpec.from_preset("smoke"))
        prep = dhf.prepare_round(
            mixture.mixed, mixture.sampling_hz, mixture.f0_tracks,
            "maternal", 0,
        )
        reference = dhf.reference_magnitude(
            prep, mixture.sources["maternal"], mixture.sampling_hz,
            mixture.f0_tracks,
        )
        assert reference.shape == prep.spec.magnitude.shape
        # The mixture's own magnitude comes back as the round's.
        np.testing.assert_array_equal(
            dhf.reference_magnitude(
                prep, mixture.mixed, mixture.sampling_hz, mixture.f0_tracks,
            ),
            prep.spec.magnitude,
        )


@pytest.mark.slow
class TestDHFSeparation:
    def test_end_to_end_two_sources(self):
        mixture = make_mixture("msig1", duration_s=30.0, seed=42)
        dhf = DHFSeparator(DHFSpec.from_preset("smoke"))
        result = dhf.separate_detailed(
            mixture.mixed, mixture.sampling_hz, mixture.f0_tracks,
            reference_sources=mixture.sources,
        )
        assert set(result.estimates) == {"maternal", "fetal"}
        assert len(result.rounds) == 2
        # The dominant source must be extracted first and reasonably well.
        assert result.extraction_order()[0] == "maternal"
        assert sdr_db(result.estimates["maternal"],
                      mixture.sources["maternal"]) > 3.0
        # Diagnostics populated.
        for r in result.rounds:
            assert r.masked_energy_ratio is not None
            assert 0.0 <= r.masked_energy_ratio <= 1.0
            assert r.losses.size == 30
        # Estimates + residual reconstruct the mixture exactly.
        total = result.residual + sum(result.estimates.values())
        assert np.allclose(total, mixture.mixed, atol=1e-9)

    def test_round_for_unknown_raises(self):
        mixture = make_mixture("msig1", duration_s=20.0, seed=1)
        dhf = DHFSeparator(DHFSpec.from_preset("smoke"))
        result = dhf.separate_detailed(
            mixture.mixed, mixture.sampling_hz, mixture.f0_tracks
        )
        with pytest.raises(KeyError):
            result.round_for("nope")

    def test_separator_interface(self):
        mixture = make_mixture("msig2", duration_s=20.0, seed=2)
        dhf = DHFSeparator(DHFSpec.from_preset("smoke"))
        estimates = dhf.separate(
            mixture.mixed, mixture.sampling_hz, mixture.f0_tracks
        )
        assert set(estimates) == set(mixture.f0_tracks)
        for est in estimates.values():
            assert est.size == mixture.n_samples
