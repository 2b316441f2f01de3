"""Tests for windows and the STFT/ISTFT pair."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import get_stft_plan, hamming, hann, istft, stft
from repro.errors import ConfigurationError, DataError, ShapeError


class TestWindows:
    def test_hann_endpoints_periodic(self):
        w = hann(8)
        assert w[0] == 0.0
        assert w.size == 8

    @pytest.mark.parametrize("window", [hann, hamming],
                             ids=["hann", "hamming"])
    def test_windows_bounded(self, window):
        w = window(128)
        assert np.all(w >= -1e-12) and np.all(w <= 1.0 + 1e-12)

    @pytest.mark.parametrize("length", [1, 2, 7, 64])
    @pytest.mark.parametrize("window,symmetric", [
        (hann, np.hanning), (hamming, np.hamming),
    ], ids=["hann", "hamming"])
    def test_periodic_is_symmetric_one_longer_minus_last(
        self, window, symmetric, length,
    ):
        np.testing.assert_allclose(
            window(length), symmetric(length + 1)[:-1], rtol=0, atol=1e-15,
        )

    @pytest.mark.parametrize("window", [hann, hamming],
                             ids=["hann", "hamming"])
    def test_periodic_symmetry_and_peak(self, window):
        w = window(64)
        np.testing.assert_allclose(w[1:], w[1:][::-1], rtol=0, atol=1e-15)
        assert np.argmax(w) == 32 and np.isclose(w[32], 1.0)

    @pytest.mark.parametrize("divisor", [2, 4, 8])
    def test_hann_overlap_adds_to_a_constant(self, divisor):
        """Periodic Hann is COLA at hop = length/2, length/4, ...: the
        shifted copies sum to ``divisor / 2`` wherever all overlap."""
        n = 256
        hop = n // divisor
        total = np.zeros(4 * n)
        for start in range(0, total.size - n + 1, hop):
            total[start:start + n] += hann(n)
        np.testing.assert_allclose(total[n:-n], divisor / 2, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("length", [0, -3, 2.5, True])
    @pytest.mark.parametrize("window", [hann, hamming],
                             ids=["hann", "hamming"])
    def test_bad_length_raises(self, window, length):
        with pytest.raises(ConfigurationError):
            window(length)


class TestStft:
    def test_roundtrip_exact(self, rng):
        x = rng.standard_normal(4000)
        rec = istft(stft(x, 100.0, n_fft=256, hop=64))
        assert np.abs(rec - x).max() < 1e-10

    def test_roundtrip_nonstandard_hop(self, rng):
        x = rng.standard_normal(3000)
        rec = istft(stft(x, 100.0, n_fft=200, hop=50))
        assert np.abs(rec - x).max() < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=300, max_value=2000),
           st.sampled_from([64, 128, 256]))
    def test_roundtrip_property(self, n, n_fft):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        rec = istft(stft(x, 50.0, n_fft=n_fft, hop=n_fft // 4))
        assert np.abs(rec - x).max() < 1e-8

    def test_geometry(self):
        spec = stft(np.zeros(1000), 100.0, n_fft=128, hop=32)
        assert spec.n_freq == 65
        assert np.isclose(spec.freq_resolution(), 100.0 / 128)
        assert spec.freqs()[-1] == 50.0
        assert spec.times()[0] == 0.0

    def test_pure_tone_peak_bin(self):
        fs, f0 = 100.0, 10.0
        t = np.arange(2000) / fs
        spec = stft(np.sin(2 * np.pi * f0 * t), fs, n_fft=200, hop=50)
        peak_bins = np.argmax(spec.magnitude, axis=0)
        expected = int(f0 / spec.freq_resolution())
        inner = peak_bins[2:-2]  # edges have partial windows
        assert np.all(inner == expected)

    def test_with_values_shape_check(self):
        spec = stft(np.zeros(500), 100.0, n_fft=64)
        with pytest.raises(ShapeError):
            spec.with_values(np.zeros((3, 3)))

    def test_istft_length_override(self, rng):
        x = rng.standard_normal(700)
        spec = stft(x, 100.0, n_fft=128, hop=32)
        assert istft(spec, length=500).size == 500
        assert istft(spec, length=900).size == 900

    def test_hop_larger_than_window_raises(self):
        with pytest.raises(ConfigurationError):
            stft(np.zeros(500), 100.0, n_fft=64, hop=128)

    def test_empty_signal_raises(self):
        with pytest.raises(DataError):
            stft([], 100.0, n_fft=64)

    def test_linear_in_amplitude(self, rng):
        x = rng.standard_normal(1000)
        a = stft(x, 100.0, n_fft=128).magnitude
        b = stft(3 * x, 100.0, n_fft=128).magnitude
        assert np.allclose(b, 3 * a, atol=1e-9)

    def test_copy_is_independent(self, rng):
        spec = stft(rng.standard_normal(500), 100.0, n_fft=64)
        c = spec.copy()
        c.values[:] = 0
        assert not np.allclose(spec.values, 0)

    def test_default_hop_is_a_quarter_window(self, rng):
        spec = stft(rng.standard_normal(500), 100.0, n_fft=128)
        assert spec.hop == 32
        assert spec.plan() is get_stft_plan(128, 32)

    @pytest.mark.parametrize("sampling_hz", [0.0, -100.0])
    def test_nonpositive_rate_raises(self, sampling_hz):
        with pytest.raises(ConfigurationError):
            stft(np.zeros(500), sampling_hz, n_fft=64)

    @pytest.mark.parametrize("n_fft,hop", [(0, None), (64.0, None), (64, 0)])
    def test_bad_geometry_raises(self, n_fft, hop):
        with pytest.raises(ConfigurationError):
            stft(np.zeros(500), 100.0, n_fft=n_fft, hop=hop)

    def test_frame_k_is_centred_on_sample_k_hop(self):
        x = np.zeros(1000)
        x[5 * 32] = 1.0
        spec = stft(x, 100.0, n_fft=128, hop=32)
        energy = (spec.magnitude ** 2).sum(axis=0)
        assert np.argmax(energy) == 5
        # The window peaks (at 1) on the frame's centre sample.
        np.testing.assert_allclose(spec.magnitude[:, 5], 1.0, atol=1e-12)
        assert np.isclose(spec.times()[5], 5 * 32 / 100.0)

    def test_magnitude_and_phase_rebuild_values(self, rng):
        spec = stft(rng.standard_normal((2, 600)), 100.0, n_fft=64)
        np.testing.assert_allclose(
            spec.magnitude * np.exp(1j * spec.phase), spec.values,
            rtol=0, atol=1e-12,
        )

    def test_stack_geometry_reads_the_last_two_axes(self, rng):
        spec = stft(rng.standard_normal((3, 1000)), 100.0, n_fft=128, hop=32)
        single = stft(np.zeros(1000), 100.0, n_fft=128, hop=32)
        assert (spec.n_freq, spec.n_frames) == (single.n_freq,
                                                single.n_frames)
        assert spec.values.shape == (3, 65, single.n_frames)
        assert spec.magnitude.shape == spec.phase.shape == spec.values.shape
        np.testing.assert_array_equal(spec.freqs(), single.freqs())
        np.testing.assert_array_equal(spec.times(), single.times())
        assert spec.n_samples == 1000

    def test_with_values_is_a_complex_copy(self, rng):
        spec = stft(rng.standard_normal(500), 100.0, n_fft=64)
        replacement = np.ones(spec.values.shape)
        masked = spec.with_values(replacement)
        assert masked.values.dtype == np.complex128
        replacement[:] = 0
        np.testing.assert_array_equal(masked.values, 1.0)
        assert masked.n_samples == spec.n_samples and masked.hop == spec.hop
