"""Tests for the FIR band-pass path and the beat spectrum."""

import numpy as np
import pytest

from repro.dsp import (
    bandpass_filter,
    beat_spectrum,
    convolve_same,
    design_bandpass,
    design_lowpass,
    dominant_period,
    filter_zerophase,
)
from repro.errors import ConfigurationError, ShapeError


def _response(taps, sampling_hz, n_fft=1024):
    """``(freqs_hz, |H(f)|)`` of an FIR filter."""
    return (np.fft.rfftfreq(n_fft, d=1.0 / sampling_hz),
            np.abs(np.fft.rfft(taps, n_fft)))


class TestFirDesign:
    def test_lowpass_dc_gain_unity(self):
        taps = design_lowpass(101, 10.0, 100.0)
        assert np.isclose(taps.sum(), 1.0)

    def test_lowpass_attenuates_stopband(self):
        taps = design_lowpass(201, 10.0, 100.0)
        freqs, mag = _response(taps, 100.0)
        stop = mag[freqs > 20]
        assert stop.max() < 0.01

    def test_bandpass_passes_center(self):
        taps = design_bandpass(201, 5.0, 15.0, 100.0)
        freqs, mag = _response(taps, 100.0)
        centre = mag[np.argmin(np.abs(freqs - 10.0))]
        assert centre > 0.95

    def test_bandpass_zero_low_edge_is_lowpass(self):
        a = design_bandpass(101, 0.0, 12.0, 100.0)
        b = design_lowpass(101, 12.0, 100.0)
        assert np.allclose(a, b)

    def test_even_numtaps_raises(self):
        with pytest.raises(ConfigurationError):
            design_lowpass(100, 10.0, 100.0)

    def test_bad_band_raises(self):
        with pytest.raises(ConfigurationError):
            design_bandpass(101, 12.0, 5.0, 100.0)
        with pytest.raises(ConfigurationError):
            design_bandpass(101, 5.0, 60.0, 100.0)

    def test_bandpass_with_low_edge_blocks_dc(self):
        taps = design_bandpass(201, 5.0, 15.0, 100.0)
        assert abs(taps.sum()) < 1e-12

    @pytest.mark.parametrize("cutoff_hz", [0.0, -1.0, 50.0, 60.0, np.nan])
    def test_bad_cutoff_raises(self, cutoff_hz):
        with pytest.raises(ConfigurationError):
            design_lowpass(101, cutoff_hz, 100.0)

    @pytest.mark.parametrize("sampling_hz", [0.0, -100.0, np.inf])
    def test_bad_rate_raises(self, sampling_hz):
        with pytest.raises(ConfigurationError):
            design_lowpass(101, 10.0, sampling_hz)
        with pytest.raises(ConfigurationError):
            design_bandpass(101, 0.0, 10.0, sampling_hz)


class TestFiltering:
    def test_convolve_same_matches_numpy(self, rng):
        x = rng.standard_normal(200)
        h = rng.standard_normal(21)
        assert np.allclose(
            convolve_same(x, h), np.convolve(x, h, mode="same"), atol=1e-10
        )

    def test_zerophase_no_delay(self):
        fs = 100.0
        t = np.arange(1000) / fs
        x = np.sin(2 * np.pi * 3.0 * t)
        taps = design_lowpass(101, 10.0, fs)
        y = filter_zerophase(x, taps)
        # Cross-correlation peak at zero lag = no group delay.
        inner = slice(150, 850)
        lag = np.argmax(np.correlate(y[inner], x[inner], "full")) - (
            x[inner].size - 1
        )
        assert lag == 0

    def test_bandpass_filter_separates_tones(self):
        fs = 100.0
        t = np.arange(3000) / fs
        keep = np.sin(2 * np.pi * 5.0 * t)
        kill = np.sin(2 * np.pi * 30.0 * t)
        y = bandpass_filter(keep + kill, fs, 0.0, 12.0)
        assert np.std(y[200:-200] - keep[200:-200]) < 0.05

    @pytest.mark.parametrize("n,numtaps", [(6, 11), (51, 101), (500, 101)])
    def test_zerophase_keeps_constants_up_to_the_edges(self, n, numtaps):
        # Odd reflection pads a constant with itself, so a unit-DC
        # low-pass passes it untouched once the record is at least half
        # the filter long.
        taps = design_lowpass(numtaps, 10.0, 100.0)
        y = filter_zerophase(np.full(n, 3.0), taps)
        assert y.shape == (n,)
        np.testing.assert_allclose(y, 3.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,low_hz,numtaps", [
        (12, 0.0, 5),      # the floor
        (40, 0.0, 11),     # a quarter of the record, made odd
        (3000, 0.0, 33),   # four periods of the 12 Hz edge, made odd
        (3000, 2.0, 201),  # four periods of the low edge
    ])
    def test_automatic_length_rule(self, n, low_hz, numtaps, rng):
        x = rng.standard_normal(n)
        np.testing.assert_array_equal(
            bandpass_filter(x, 100.0, low_hz, 12.0),
            bandpass_filter(x, 100.0, low_hz, 12.0, numtaps=numtaps),
        )

    def test_even_numtaps_rounds_up_to_odd(self, rng):
        x = rng.standard_normal(500)
        np.testing.assert_array_equal(
            bandpass_filter(x, 100.0, 0.0, 12.0, numtaps=100),
            bandpass_filter(x, 100.0, 0.0, 12.0, numtaps=101),
        )

    def test_bandpass_filter_takes_one_record(self):
        with pytest.raises(ShapeError):
            bandpass_filter(np.ones((2, 100)), 100.0, 0.0, 12.0)


class TestSpectrum:
    def test_beat_spectrum_detects_period(self):
        # Spectrogram with repeating pattern every 7 frames.
        rng = np.random.default_rng(0)
        pattern = rng.random((32, 7))
        mag = np.tile(pattern, (1, 10))
        beat = beat_spectrum(mag)
        assert dominant_period(beat, 3, 20) == 7

    def test_dominant_period_empty_range_raises(self):
        with pytest.raises(ConfigurationError):
            dominant_period(np.ones(10), 8, 3)

    def test_beat_spectrum_matches_direct_autocorrelation(self, rng):
        mag = rng.random((5, 30))
        power = mag ** 2
        power -= power.mean(axis=1, keepdims=True)
        direct = np.array([
            (power[:, : 30 - lag] * power[:, lag:]).sum(axis=1).mean()
            / (30 - lag)
            for lag in range(11)
        ])
        beat = beat_spectrum(mag, max_lag=10)
        assert beat.shape == (11,) and beat[0] == 1.0
        np.testing.assert_allclose(beat, direct / direct[0], rtol=0,
                                   atol=1e-12)

    def test_beat_spectrum_of_constant_is_zero(self):
        np.testing.assert_array_equal(beat_spectrum(np.ones((4, 9))),
                                      np.zeros(9))

    @pytest.mark.parametrize("max_lag", [-1, 12])
    def test_beat_spectrum_bad_lag_raises(self, max_lag):
        with pytest.raises(ConfigurationError):
            beat_spectrum(np.ones((4, 12)), max_lag=max_lag)

    def test_dominant_period_without_a_peak_takes_the_maximum(self):
        falling = np.linspace(1.0, 0.0, 12)
        assert dominant_period(falling, 2, 9) == 2
        assert dominant_period(falling[::-1], 2, 9) == 9

    def test_dominant_period_never_returns_lag_zero(self):
        beat = np.array([1.0, 0.2, 0.1, 0.6, 0.3])
        assert dominant_period(beat, min_lag=0) == 3
