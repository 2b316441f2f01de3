"""Tests for REPET(-Extended), spectral masking and component assignment."""

import numpy as np
import pytest

from repro.baselines import (
    REPETSeparator,
    SpectralMaskingSeparator,
    assign_components_to_sources,
    component_source_scores,
    refine_period,
    repeating_mask,
    repeating_model,
    repet_extended_mask,
    residual_after,
)
from repro.errors import ConfigurationError
from repro.service import RepetSpec


class TestRepeatingModel:
    def test_median_of_repeats(self, rng):
        pattern = rng.random((8, 5))
        mag = np.tile(pattern, (1, 4))
        model = repeating_model(mag, 5)
        assert np.allclose(model, mag)  # perfectly repeating

    def test_outlier_suppressed(self, rng):
        pattern = rng.random((4, 3))
        mag = np.tile(pattern, (1, 5))
        corrupted = mag.copy()
        corrupted[:, 7] += 10.0  # one loud event
        model = repeating_model(corrupted, 3)
        assert np.all(model[:, 7] <= corrupted[:, 7])
        # Model stays near the clean repeating pattern.
        assert np.abs(model - mag).max() < 1e-9

    def test_mask_bounded(self, rng):
        mag = rng.random((6, 20)) + 0.01
        mask = repeating_mask(mag, 4)
        assert np.all(mask >= 0) and np.all(mask <= 1 + 1e-12)

    def test_bad_period_raises(self, rng):
        with pytest.raises(ConfigurationError):
            repeating_model(rng.random((4, 8)), 0)


class TestRefinePeriod:
    def test_finds_true_period(self, rng):
        pattern = rng.random((16, 6))
        mag = np.tile(pattern, (1, 8))
        assert refine_period(mag, expected_lag=6.5) == 6

    def test_bad_lag_raises(self, rng):
        with pytest.raises(ConfigurationError):
            refine_period(rng.random((4, 16)), expected_lag=0.0)


class TestRepetExtended:
    def test_mask_shape_and_bounds(self, rng):
        mag = rng.random((12, 40)) + 0.01
        lags = np.full(40, 5.0)
        mask = repet_extended_mask(mag, lags, segment_frames=16)
        assert mask.shape == mag.shape
        assert np.all(mask >= 0) and np.all(mask <= 1)

    def test_segment_too_small_raises(self, rng):
        with pytest.raises(ConfigurationError):
            repet_extended_mask(rng.random((4, 20)), np.full(20, 3.0), 2)


class TestSeparators:
    def test_repet_two_tone(self, two_tone):
        tracks = {
            "slow": np.full(two_tone["mix"].size, 1.1),
            "fast": np.full(two_tone["mix"].size, 2.9),
        }
        for extended in (False, True):
            sep = REPETSeparator(RepetSpec(extended=extended))
            est = sep.separate(two_tone["mix"], two_tone["fs"], tracks)
            assert set(est) == {"slow", "fast"}
            # Estimates must together cover the mixture.
            recon = est["slow"] + est["fast"]
            assert np.mean((recon - two_tone["mix"]) ** 2) < \
                0.5 * np.mean(two_tone["mix"] ** 2)

    def test_repet_names(self):
        assert REPETSeparator(RepetSpec(extended=False)).name == "REPET"
        assert REPETSeparator(RepetSpec(extended=True)).name == "REPET-Ext."

    def test_spectral_masking_two_tone(self, two_tone):
        tracks = {
            "slow": np.full(two_tone["mix"].size, 1.1),
            "fast": np.full(two_tone["mix"].size, 2.9),
        }
        est = SpectralMaskingSeparator().separate(
            two_tone["mix"], two_tone["fs"], tracks
        )
        corr_slow = np.corrcoef(est["slow"], two_tone["a"])[0, 1]
        corr_fast = np.corrcoef(est["fast"], two_tone["b"])[0, 1]
        assert corr_slow > 0.9 and corr_fast > 0.9

    def test_validation_rejects_bad_tracks(self, two_tone):
        sep = SpectralMaskingSeparator()
        with pytest.raises(Exception):
            sep.separate(two_tone["mix"], two_tone["fs"],
                         {"x": np.ones(10)})  # wrong length


class TestAssignment:
    def test_components_routed_by_frequency(self, two_tone):
        components = np.stack([two_tone["a"], two_tone["b"]])
        tracks = {
            "slow": np.full(two_tone["mix"].size, 1.1),
            "fast": np.full(two_tone["mix"].size, 2.9),
        }
        est = assign_components_to_sources(components, two_tone["fs"], tracks)
        assert np.corrcoef(est["slow"], two_tone["a"])[0, 1] > 0.99
        assert np.corrcoef(est["fast"], two_tone["b"])[0, 1] > 0.99

    def test_scores_shape(self, two_tone):
        components = np.stack([two_tone["a"], two_tone["b"]])
        tracks = {
            "slow": np.full(two_tone["mix"].size, 1.1),
            "fast": np.full(two_tone["mix"].size, 2.9),
        }
        scores = component_source_scores(components, two_tone["fs"], tracks)
        assert scores.shape == (2, 2)
        assert scores[0, 0] > scores[0, 1]

    def test_zero_component_dropped(self, two_tone):
        components = np.stack([np.zeros_like(two_tone["a"]), two_tone["b"]])
        tracks = {
            "slow": np.full(two_tone["mix"].size, 1.1),
            "fast": np.full(two_tone["mix"].size, 2.9),
        }
        est = assign_components_to_sources(components, two_tone["fs"], tracks)
        assert np.allclose(est["slow"], 0.0)

    def test_residual_after(self, two_tone):
        est = {"a": two_tone["a"], "b": two_tone["b"]}
        residual = residual_after(two_tone["mix"], est)
        assert np.allclose(residual, 0.0, atol=1e-12)
