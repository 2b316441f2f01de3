"""Tests for warm-started deep-prior fits (DHF + service integration)."""

import numpy as np
import pytest

from repro.core import DHFSeparator, InpaintingConfig
from repro.core.inpainting import inpaint_spectrogram, inpaint_spectrograms
from repro.errors import ConfigurationError
from repro.nn.batchfit import EarlyStopConfig
from repro.nn.zoo import (
    FitCache,
    PriorGeometry,
    clear_shared_fit_caches,
    shared_fit_cache,
)
from repro.service import DHFSpec
from repro.synth import make_mixture

TINY = InpaintingConfig(
    iterations=20, learning_rate=1e-2, base_channels=4, depth=2,
    in_channels=4, time_dilation=3,
)
GEOMETRY = PriorGeometry(n_freq=33, n_frames=24)


@pytest.fixture(autouse=True)
def _isolate_shared_caches():
    clear_shared_fit_caches()
    yield
    clear_shared_fit_caches()


@pytest.fixture
def harmonic_image():
    n_freq, n_frames = 33, 24
    mag = np.zeros((n_freq, n_frames))
    for k in (4, 8, 12, 16):
        mag[k] = 1.0 + 0.2 * np.sin(np.arange(n_frames) / 4.0)
    mag += 0.01
    visibility = np.ones((n_freq, n_frames), dtype=bool)
    visibility[:, 8:14] = False
    return mag, visibility


class TestCacheThreading:
    def test_empty_cache_miss_is_bitwise_cold(self, harmonic_image):
        """A lookup miss must not perturb the fit: a run with an empty
        cache is bitwise identical to a run with no cache at all."""
        mag, vis = harmonic_image
        cold = inpaint_spectrogram(mag, vis, TINY, rng=7)
        cached = inpaint_spectrogram(
            mag, vis, TINY, rng=7, cache=FitCache(), geometry=GEOMETRY,
        )
        np.testing.assert_array_equal(cold.output, cached.output)
        np.testing.assert_array_equal(cold.losses, cached.losses)

    def test_warm_start_lowers_first_loss(self, harmonic_image):
        mag, vis = harmonic_image
        cache = FitCache()
        cold = inpaint_spectrogram(
            mag, vis, TINY, rng=7, cache=cache, geometry=GEOMETRY,
        )
        warm = inpaint_spectrogram(
            mag, vis, TINY, rng=7, cache=cache, geometry=GEOMETRY,
        )
        assert warm.losses[0] < cold.losses[0]
        assert cache.stats()["hits"] == 1
        assert cache.stats()["stores"] == 2

    def test_warm_fits_are_deterministic(self, harmonic_image):
        """Same cache history + same seeds => same warm fit, bitwise."""
        mag, vis = harmonic_image
        outputs = []
        for _ in range(2):
            cache = FitCache()
            inpaint_spectrogram(
                mag, vis, TINY, rng=7, cache=cache, geometry=GEOMETRY,
            )
            warm = inpaint_spectrogram(
                mag, vis, TINY, rng=7, cache=cache, geometry=GEOMETRY,
            )
            outputs.append(warm.output)
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_default_geometry_derived_from_shape(self, harmonic_image):
        mag, vis = harmonic_image
        cache = FitCache()
        inpaint_spectrogram(mag, vis, TINY, rng=7, cache=cache)
        assert cache.keys()[0][0] == PriorGeometry(
            n_freq=mag.shape[0], n_frames=mag.shape[1],
        )

    def test_batched_warm_start(self, harmonic_image):
        mag, vis = harmonic_image
        cache = FitCache()
        early = EarlyStopConfig(patience=5, rel_tol=1e-3, min_iterations=5)
        cold = inpaint_spectrograms(
            [mag, mag * 1.1], [vis, vis], TINY, rngs=[0, 1],
            early_stop=early, cache=cache, geometry=GEOMETRY,
        )
        assert cache.stats()["stores"] == 1  # best record only
        warm = inpaint_spectrograms(
            [mag, mag * 1.1], [vis, vis], TINY, rngs=[0, 1],
            early_stop=early, cache=cache, geometry=GEOMETRY,
        )
        assert cache.stats()["hits"] == 1  # one lookup per batch
        for c, w in zip(cold, warm):
            assert w.losses[0] < c.losses[0]


class TestDHFIntegration:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="warm_start"):
            DHFSpec(warm_start="yes")
        with pytest.raises(ConfigurationError, match="zoo_path"):
            DHFSpec(warm_start=True, zoo_path=123)

    def test_separator_populates_zoo(self, tmp_path, small_mixture):
        config = DHFSpec.from_preset(
            "smoke", warm_start=True, zoo_path=str(tmp_path),
        )
        dhf = DHFSeparator(config)
        estimates = dhf.separate(
            small_mixture.mixed, small_mixture.sampling_hz,
            small_mixture.f0_tracks,
        )
        assert set(estimates) == set(small_mixture.f0_tracks)
        cache = shared_fit_cache(str(tmp_path))
        assert cache.stats()["stores"] >= 1
        assert len(cache.zoo) >= 1
        # The second run warm-starts from the first one's fits.
        dhf.separate(
            small_mixture.mixed, small_mixture.sampling_hz,
            small_mixture.f0_tracks,
        )
        assert cache.stats()["hits"] >= 1

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError, match="warm_start"):
            DHFSpec.from_preset("smoke", warm_start=1)
        with pytest.raises(ConfigurationError, match="zoo_path"):
            DHFSpec.from_preset("smoke", warm_start=True, zoo_path=None)
