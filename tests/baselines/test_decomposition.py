"""Tests for EMD, VMD and NMF decomposition baselines."""

import numpy as np
import pytest

from repro.baselines import (
    EMDSeparator,
    NMFSeparator,
    VMDSeparator,
    emd,
    envelope_mean,
    local_extrema,
    nmf_kl,
    sift_imf,
    vmd,
)
from repro.errors import ConfigurationError, DataError
from repro.service import NMFSpec, VMDSpec


class TestLocalExtrema:
    def test_simple_sine(self):
        x = np.sin(2 * np.pi * np.arange(200) / 50)
        maxima, minima = local_extrema(x)
        assert maxima.size == 4 and minima.size == 4

    def test_plateau_handled(self):
        x = np.array([0.0, 1.0, 1.0, 1.0, 0.0, -1.0, 0.0])
        maxima, minima = local_extrema(x)
        assert maxima.size >= 1 and minima.size >= 1

    def test_monotonic_has_none(self):
        maxima, minima = local_extrema(np.arange(10.0))
        assert maxima.size == 0 and minima.size == 0


class TestEmd:
    def test_completeness(self, two_tone):
        imfs = emd(two_tone["mix"], max_imfs=8)
        assert np.allclose(imfs.sum(axis=0), two_tone["mix"], atol=1e-9)

    def test_separates_two_tones(self, two_tone):
        imfs = emd(two_tone["mix"], max_imfs=6)
        # The first IMF should carry the faster tone.
        first = imfs[0]
        corr_fast = np.corrcoef(first, two_tone["b"])[0, 1]
        assert abs(corr_fast) > 0.8

    def test_monotonic_input_no_imfs(self):
        imfs = emd(np.linspace(0, 1, 100) + 0.001)
        assert imfs.shape[0] == 1  # residual only

    def test_zero_signal_raises(self):
        with pytest.raises(DataError):
            emd(np.zeros(100))

    def test_envelope_mean_none_without_extrema(self):
        assert envelope_mean(np.arange(20.0)) is None

    def test_sift_imf_returns_oscillation(self, two_tone):
        imf = sift_imf(two_tone["mix"])
        assert imf is not None
        assert abs(imf.mean()) < 0.1

    def test_separator_interface(self, two_tone):
        tracks = {
            "slow": np.full(two_tone["mix"].size, 1.1),
            "fast": np.full(two_tone["mix"].size, 2.9),
        }
        est = EMDSeparator().separate(two_tone["mix"], two_tone["fs"], tracks)
        assert set(est) == {"slow", "fast"}
        assert est["slow"].size == two_tone["mix"].size


class TestVmd:
    def test_two_tone_modes(self, two_tone):
        modes = vmd(two_tone["mix"], n_modes=2, alpha=2000.0,
                    max_iterations=200)
        assert modes.shape == (2, two_tone["mix"].size)
        # Modes sorted by centre frequency: first ~ slow tone.
        corr_slow = np.corrcoef(modes[0], two_tone["a"])[0, 1]
        corr_fast = np.corrcoef(modes[1], two_tone["b"])[0, 1]
        assert corr_slow > 0.95 and corr_fast > 0.95

    def test_reconstruction_energy(self, two_tone):
        modes = vmd(two_tone["mix"], n_modes=2, max_iterations=150)
        recon = modes.sum(axis=0)
        err = np.mean((recon - two_tone["mix"]) ** 2)
        assert err < 0.05 * np.mean(two_tone["mix"] ** 2)

    def test_bad_n_modes_raises(self, two_tone):
        with pytest.raises(ConfigurationError):
            vmd(two_tone["mix"], n_modes=0)

    def test_bad_init_omegas_raises(self, two_tone):
        with pytest.raises(ConfigurationError):
            vmd(two_tone["mix"], n_modes=2, init_omegas=np.array([0.1]))

    def test_separator_interface(self, two_tone):
        tracks = {
            "slow": np.full(two_tone["mix"].size, 1.1),
            "fast": np.full(two_tone["mix"].size, 2.9),
        }
        sep = VMDSeparator(VMDSpec(modes_per_source=2, max_iterations=100))
        est = sep.separate(two_tone["mix"], two_tone["fs"], tracks)
        corr = np.corrcoef(est["slow"], two_tone["a"])[0, 1]
        assert corr > 0.8


class TestNmf:
    def test_factors_nonnegative(self, rng):
        v = rng.random((32, 20)) + 0.01
        w, h = nmf_kl(v, 4, n_iterations=50, rng=rng)
        assert np.all(w >= 0) and np.all(h >= 0)
        assert w.shape == (32, 4) and h.shape == (4, 20)

    def test_loss_monotone_nonincreasing(self, rng):
        v = rng.random((24, 16)) + 0.01
        _, _, losses = nmf_kl(v, 3, n_iterations=40, rng=rng,
                              return_loss=True)
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-6 * np.abs(losses[:-1]) + 1e-9)

    def test_reconstructs_low_rank(self, rng):
        w_true = rng.random((16, 2))
        h_true = rng.random((2, 12))
        v = w_true @ h_true
        w, h = nmf_kl(v, 2, n_iterations=400, rng=rng)
        assert np.abs(w @ h - v).max() < 0.1

    def test_negative_input_raises(self):
        with pytest.raises(DataError):
            nmf_kl(np.array([[-1.0, 1.0]]), 1)

    def test_bad_rank_raises(self, rng):
        with pytest.raises(ConfigurationError):
            nmf_kl(rng.random((4, 4)), 0)

    def test_separator_interface(self, two_tone):
        tracks = {
            "slow": np.full(two_tone["mix"].size, 1.1),
            "fast": np.full(two_tone["mix"].size, 2.9),
        }
        sep = NMFSeparator(NMFSpec(components_per_source=3, n_iterations=80))
        est = sep.separate(two_tone["mix"], two_tone["fs"], tracks)
        assert set(est) == {"slow", "fast"}
