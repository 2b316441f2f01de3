"""Tests for harmonic masking and cyclic phase interpolation."""

import numpy as np
import pytest

from repro.core.masking import (
    RoundMasks,
    bandwidth_for_harmonic,
    build_round_masks,
    default_bandwidth,
    f0_spread_per_frame,
    f0_track_to_frames,
    harmonic_ridge_mask,
    interference_mask,
    masked_energy_ratio,
    visibility_mask,
)
from repro.core.phase import (
    combine_magnitude_phase,
    interpolate_phase_cyclic,
    interpolate_phase_naive,
)
from repro.dsp.stft import stft
from repro.errors import ConfigurationError, ShapeError


@pytest.fixture
def tone_spec():
    """STFT of a 2 Hz tone at 32 Hz sampling."""
    fs = 32.0
    n = 32 * 40
    x = np.sin(2 * np.pi * 2.0 * np.arange(n) / fs)
    return stft(x, fs, n_fft=128, hop=32)


class TestBandwidth:
    def test_constant(self):
        assert bandwidth_for_harmonic(0.2, 3) == 0.2

    def test_callable(self):
        bw = default_bandwidth(0.1, 0.05)
        assert bandwidth_for_harmonic(bw, 1) == pytest.approx(0.1)
        assert bandwidth_for_harmonic(bw, 3) == pytest.approx(0.2)

    def test_nonpositive_raises(self):
        with pytest.raises(ConfigurationError):
            bandwidth_for_harmonic(lambda k: -1.0, 1)


class TestRidgeMask:
    def test_covers_tone(self, tone_spec):
        f0 = np.full(tone_spec.n_frames, 2.0)
        mask = harmonic_ridge_mask(tone_spec, f0, 3, 0.3)
        power = tone_spec.magnitude ** 2
        assert power[mask].sum() / power.sum() > 0.9

    def test_harmonic_rows_present(self, tone_spec):
        f0 = np.full(tone_spec.n_frames, 2.0)
        mask = harmonic_ridge_mask(tone_spec, f0, 3, 0.2)
        freqs = tone_spec.freqs()
        for k in (1, 2, 3):
            row = int(np.argmin(np.abs(freqs - 2.0 * k)))
            assert mask[row].all(), f"harmonic {k} row uncovered"

    def test_beyond_nyquist_ignored(self, tone_spec):
        f0 = np.full(tone_spec.n_frames, 10.0)
        mask = harmonic_ridge_mask(tone_spec, f0, 4, 0.2)
        # Harmonics 2..4 are above the 16 Hz Nyquist: only k=1 remains.
        freqs = tone_spec.freqs()
        assert not mask[freqs > 12.0].any()

    def test_wrong_length_raises(self, tone_spec):
        with pytest.raises(ShapeError):
            harmonic_ridge_mask(tone_spec, np.ones(3), 2, 0.2)

    def test_nonpositive_f0_raises(self, tone_spec):
        with pytest.raises(ConfigurationError):
            harmonic_ridge_mask(
                tone_spec, np.zeros(tone_spec.n_frames), 2, 0.2
            )

    def test_spread_widens(self, tone_spec):
        f0 = np.full(tone_spec.n_frames, 2.0)
        narrow = harmonic_ridge_mask(tone_spec, f0, 2, 0.2)
        wide = harmonic_ridge_mask(
            tone_spec, f0, 2, 0.2,
            f0_spread=np.full(tone_spec.n_frames, 0.3),
        )
        assert wide.sum() > narrow.sum()
        assert np.all(wide[narrow])  # superset


class TestInterferenceVisibility:
    def test_excludes_target(self, tone_spec):
        tracks = {
            "a": np.full(tone_spec.n_frames, 2.0),
            "b": np.full(tone_spec.n_frames, 3.0),
        }
        interference = interference_mask(tone_spec, tracks, "a", 2, 0.2)
        ridge_b = harmonic_ridge_mask(tone_spec, tracks["b"], 2, 0.2)
        assert np.array_equal(interference, ridge_b)

    def test_visibility_is_complement(self, tone_spec):
        tracks = {
            "a": np.full(tone_spec.n_frames, 2.0),
            "b": np.full(tone_spec.n_frames, 3.0),
        }
        vis = visibility_mask(tone_spec, tracks, "a", 2, 0.2)
        inter = interference_mask(tone_spec, tracks, "a", 2, 0.2)
        assert np.array_equal(vis, ~inter)

    def test_unknown_target_raises(self, tone_spec):
        with pytest.raises(ConfigurationError):
            interference_mask(
                tone_spec, {"a": np.ones(tone_spec.n_frames)}, "zz", 2, 0.2
            )

    def test_round_masks_properties(self, tone_spec):
        tracks = {
            "a": np.full(tone_spec.n_frames, 2.0),
            "b": np.full(tone_spec.n_frames, 2.05),  # heavy overlap
        }
        masks = build_round_masks(tone_spec, tracks, "a", 2, 0.2)
        assert isinstance(masks, RoundMasks)
        assert 0.0 < masks.concealed_fraction < 1.0
        assert masks.overlap_fraction > 0.8  # b sits on top of a


class TestF0Frames:
    def test_constant_track(self, tone_spec):
        track = np.full(32 * 40, 2.0)
        frames = f0_track_to_frames(track, 32.0, tone_spec)
        assert np.allclose(frames, 2.0)

    def test_spread_of_constant_zero(self, tone_spec):
        track = np.full(32 * 40, 2.0)
        spread = f0_spread_per_frame(track, 32.0, tone_spec)
        assert np.allclose(spread, 0.0)

    def test_spread_of_varying_positive(self, tone_spec):
        track = 2.0 + 0.5 * np.sin(np.arange(32 * 40) / 100.0)
        spread = f0_spread_per_frame(track, 32.0, tone_spec)
        assert spread.max() > 0.05

    @pytest.mark.parametrize("n_track,n_fft,hop", [
        (1200, 256, 64),    # edge frames clipped at both ends
        (1200, 64, 16),
        (1200, 65, 7),      # odd window
        (300, 256, 64),     # short track: few full windows
        (100, 256, 64),     # no window fits inside the track
        (1, 8, 4),          # a one-sample track
        (1200, 1, 1),       # empty windows
    ])
    def test_frames_equal_the_per_frame_loop(self, rng, n_track, n_fft, hop):
        # The windowed mean and max/min over full windows, plus the
        # clipped edge frames, are the per-frame loop bit for bit.
        fs = 40.0
        track = 1.5 + 0.3 * np.cumsum(rng.standard_normal(n_track)) / 30.0
        spec = stft(np.zeros(1200), fs, n_fft=n_fft, hop=hop)
        centers = spec.times() * fs
        half = n_fft // 2
        mean, spread = np.empty(spec.n_frames), np.empty(spec.n_frames)
        for i, c in enumerate(centers):
            lo, hi = max(0, int(c) - half), min(n_track, int(c) + half)
            window = track[lo:hi]
            mean[i] = window.mean() if hi > lo \
                else track[min(int(c), n_track - 1)]
            spread[i] = 0.5 * float(window.max() - window.min()) \
                if hi - lo >= 2 else 0.0
        assert np.array_equal(f0_track_to_frames(track, fs, spec), mean)
        assert np.array_equal(f0_spread_per_frame(track, fs, spec), spread)


class TestMaskedEnergyRatio:
    def test_pure_target_ratio_one(self, rng):
        mag = rng.random((8, 10))
        concealed = rng.random((8, 10)) > 0.5
        assert masked_energy_ratio(mag, mag, concealed) == pytest.approx(1.0)

    def test_no_target_ratio_zero(self, rng):
        mixed = rng.random((8, 10)) + 0.1
        concealed = np.ones((8, 10), dtype=bool)
        assert masked_energy_ratio(np.zeros((8, 10)), mixed, concealed) == 0.0

    def test_empty_mask_returns_one(self, rng):
        mag = rng.random((4, 4))
        assert masked_energy_ratio(mag, mag, np.zeros((4, 4), bool)) == 1.0

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            masked_energy_ratio(
                rng.random((4, 4)), rng.random((4, 5)),
                np.ones((4, 4), bool),
            )


class TestPhaseInterpolation:
    def test_constant_phase_recovered(self):
        # Values with constant phase 0.8 rad; conceal the middle frames.
        mag = np.ones((3, 20))
        values = mag * np.exp(1j * 0.8)
        concealed = np.zeros((3, 20), dtype=bool)
        concealed[:, 8:12] = True
        phase = interpolate_phase_cyclic(values, concealed)
        assert np.allclose(phase, 0.8, atol=1e-9)

    def test_cyclic_survives_branch_cut(self):
        # Phase near +-pi: naive angle interpolation tears, cyclic doesn't.
        angles = np.array([np.pi - 0.1, np.pi - 0.05, 0.0, -np.pi + 0.05,
                           -np.pi + 0.1])
        values = np.exp(1j * angles)[None, :]
        concealed = np.array([[False, False, True, False, False]])
        cyclic = interpolate_phase_cyclic(values, concealed)[0, 2]
        naive = interpolate_phase_naive(values, concealed)[0, 2]
        # True midpoint between pi-0.05 and -pi+0.05 is pi (mod 2pi).
        cyclic_err = abs(np.angle(np.exp(1j * (cyclic - np.pi))))
        naive_err = abs(np.angle(np.exp(1j * (naive - np.pi))))
        assert cyclic_err < 0.01
        assert naive_err > 1.0

    def test_visible_cells_untouched(self, rng):
        values = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
        concealed = rng.random((4, 10)) > 0.7
        phase = interpolate_phase_cyclic(values, concealed)
        assert np.allclose(phase[~concealed], np.angle(values)[~concealed])

    def test_insufficient_anchors_keep_phase(self, rng):
        values = np.exp(1j * rng.random((1, 5)))
        concealed = np.array([[True, True, True, True, False]])
        phase = interpolate_phase_cyclic(values, concealed)
        assert np.allclose(phase, np.angle(values))

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            interpolate_phase_cyclic(np.ones((2, 3)), np.ones((3, 2), bool))

    def test_combine_magnitude_phase(self):
        mag = np.array([[2.0]])
        phase = np.array([[np.pi / 2]])
        out = combine_magnitude_phase(mag, phase)
        assert np.isclose(out[0, 0], 2j)

    def test_combine_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            combine_magnitude_phase(np.ones((2, 2)), np.ones((2, 3)))
