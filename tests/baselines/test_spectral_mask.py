"""Harmonic spectral masking's one batch path.

``separate_batch`` groups records by length and runs each group through
one stacked STFT per cache-sized chunk; ``separate`` is its one-record
case.  Grouping, chunking and input order must not change an estimate.
"""

import numpy as np
import pytest

from repro.baselines import SpectralMaskingSeparator
from repro.baselines import spectral_mask
from repro.errors import ConfigurationError, DataError
from repro.service import SpectralMaskingSpec, build_separator
from repro.synth import make_mixture


@pytest.fixture(scope="module")
def mixtures():
    """Two 12 s and two 8 s MSig1 mixtures, interleaved by length."""
    return [
        make_mixture("msig1", duration_s=duration, seed=seed)
        for seed, duration in enumerate((12.0, 8.0, 12.0, 8.0))
    ]


def _batch(separator, mixtures):
    return separator.separate_batch(
        [m.mixed for m in mixtures], mixtures[0].sampling_hz,
        [m.f0_tracks for m in mixtures],
    )


def _assert_same(estimates, expected):
    assert len(estimates) == len(expected)
    for got, want in zip(estimates, expected):
        assert list(got) == list(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])


class TestBatchPath:
    def test_mixed_lengths_keep_input_order(self, mixtures):
        sep = SpectralMaskingSeparator()
        single = [sep.separate(m.mixed, m.sampling_hz, m.f0_tracks)
                  for m in mixtures]
        estimates = _batch(sep, mixtures)
        _assert_same(estimates, single)
        for estimate, m in zip(estimates, mixtures):
            assert set(estimate) == set(m.f0_tracks)
            assert all(e.shape == m.mixed.shape for e in estimate.values())

    def test_one_stacked_stft_per_length(self, mixtures, monkeypatch):
        stacks = []
        stft = spectral_mask.stft

        def spy(x, *args, **kwargs):
            stacks.append(np.shape(x))
            return stft(x, *args, **kwargs)

        monkeypatch.setattr(spectral_mask, "stft", spy)
        _batch(SpectralMaskingSeparator(), mixtures)
        assert stacks == [(2, mixtures[0].mixed.size),
                          (2, mixtures[1].mixed.size)]

    @pytest.mark.parametrize("exclusive", [True, False])
    def test_frame_f0_once_per_source_per_record(self, mixtures, monkeypatch,
                                                 exclusive):
        calls = []
        to_frames = spectral_mask.f0_track_to_frames

        def spy(*args, **kwargs):
            calls.append(1)
            return to_frames(*args, **kwargs)

        monkeypatch.setattr(spectral_mask, "f0_track_to_frames", spy)
        _batch(build_separator("spectral-masking", exclusive=exclusive),
               mixtures)
        assert len(calls) == sum(len(m.f0_tracks) for m in mixtures)

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_chunks_do_not_change_estimates(self, mixtures, monkeypatch,
                                            chunk):
        sep = SpectralMaskingSeparator()
        whole = _batch(sep, mixtures)
        monkeypatch.setattr(spectral_mask, "cache_friendly_chunk",
                            lambda *args, **kwargs: chunk)
        _assert_same(_batch(sep, mixtures), whole)

    def test_three_sources(self, three_source_mixture):
        m = three_source_mixture
        estimates = SpectralMaskingSeparator().separate(
            m.mixed, m.sampling_hz, m.f0_tracks,
        )
        assert list(estimates) == list(m.f0_tracks)
        assert all(e.shape == m.mixed.shape for e in estimates.values())

    def test_empty_batch(self):
        assert SpectralMaskingSeparator().separate_batch([], 100.0, []) == []


class TestBatchValidation:
    def test_counts_must_match(self, mixtures):
        with pytest.raises(ConfigurationError):
            SpectralMaskingSeparator().separate_batch(
                [m.mixed for m in mixtures], 100.0,
                [m.f0_tracks for m in mixtures[:-1]],
            )

    def test_a_bad_record_fails_before_any_fft(self, mixtures, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("stft ran before every record was checked")

        monkeypatch.setattr(spectral_mask, "stft", no_fft)
        good = mixtures[0]
        short_track = {name: track[:-1]
                       for name, track in good.f0_tracks.items()}
        with pytest.raises(DataError):
            SpectralMaskingSeparator().separate_batch(
                [good.mixed, good.mixed], good.sampling_hz,
                [good.f0_tracks, short_track],
            )


class TestExclusiveMasks:
    @pytest.fixture
    def crossing(self):
        """Two sources whose f0 tracks cross, so their combs collide."""
        fs, n = 100.0, 3000
        rising = np.linspace(1.0, 3.0, n)
        steady = np.full(n, 2.0)
        t = np.arange(n) / fs
        mixed = (np.sin(2 * np.pi * np.cumsum(rising) / fs)
                 + np.sin(2 * np.pi * 2.0 * t))
        return mixed, fs, {"rising": rising, "steady": steady}

    def _masks(self, crossing, exclusive):
        mixed, fs, tracks = crossing
        sep = SpectralMaskingSeparator(
            SpectralMaskingSpec(exclusive=exclusive)
        )
        n_fft, hop = sep.stft_geometry(fs, mixed.size)
        spec = spectral_mask.stft(mixed, fs, n_fft=n_fft, hop=hop)
        return sep._build_masks(spec, tracks, fs)

    def test_leaky_masks_share_cells(self, crossing):
        masks = self._masks(crossing, exclusive=False)
        assert (masks["rising"] & masks["steady"]).any()

    def test_exclusive_masks_share_none(self, crossing):
        leaky = self._masks(crossing, exclusive=False)
        masks = self._masks(crossing, exclusive=True)
        assert not (masks["rising"] & masks["steady"]).any()
        # Each exclusive mask only gives cells up, never gains any, and
        # every contested cell stays with exactly one source.
        for name in masks:
            assert not (masks[name] & ~leaky[name]).any()
        contested = leaky["rising"] & leaky["steady"]
        assert contested.any()
        assert np.all((masks["rising"] ^ masks["steady"])[contested])
