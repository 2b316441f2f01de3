"""Tests for the abstract Separator interface contract."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.separation import Separator
from repro.service import SeparationService


class Passthrough(Separator):
    name = "passthrough"

    def separate(self, mixed, sampling_hz, f0_tracks):
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        return {name: mixed / len(f0_tracks) for name in f0_tracks}


def test_cannot_instantiate_abstract():
    with pytest.raises(TypeError):
        Separator()


def test_validate_happy_path():
    sep = Passthrough()
    out = sep.separate(np.ones(100), 10.0, {"a": np.ones(100)})
    assert set(out) == {"a"}


def test_validate_rejects_bad_sampling():
    with pytest.raises(ConfigurationError):
        Passthrough().separate(np.ones(10), 0.0, {"a": np.ones(10)})


def test_validate_rejects_empty_tracks():
    with pytest.raises(ConfigurationError):
        Passthrough().separate(np.ones(10), 1.0, {})


def test_validate_rejects_wrong_track_length():
    with pytest.raises(DataError):
        Passthrough().separate(np.ones(10), 1.0, {"a": np.ones(5)})


def test_validate_rejects_nonpositive_track():
    with pytest.raises(DataError):
        Passthrough().separate(np.ones(10), 1.0, {"a": np.zeros(10)})


def test_validate_rejects_nan_rate():
    with pytest.raises(ConfigurationError, match="sampling_hz"):
        Passthrough().separate(np.ones(10), float("nan"), {"a": np.ones(10)})


def test_spectral_masking_rejects_nan_rate():
    with SeparationService("spectral-masking") as service:
        with pytest.raises(ConfigurationError, match="sampling_hz"):
            service.separate(
                mixed=np.ones(400), sampling_hz=float("nan"),
                f0_tracks={"a": np.full(400, 1.2)},
            )


@pytest.mark.parametrize("mixed, track", [
    (np.r_[np.ones(9), np.nan], np.ones(10)),
    (np.r_[np.ones(9), np.inf], np.ones(10)),
    (np.ones(10), np.r_[np.ones(9), np.nan]),
    (np.ones(10), np.r_[np.ones(9), np.inf]),
], ids=["nan-sample", "inf-sample", "nan-f0", "inf-f0"])
def test_validate_rejects_non_finite_input(mixed, track):
    with pytest.raises(DataError):
        Passthrough().separate(mixed, 1.0, {"a": track})


def test_repr_contains_name():
    assert "passthrough" in repr(Passthrough())


class TestSeparateBatchEdges:
    """Zero-length and single-frame inputs through the batch hooks."""

    def test_empty_batch_returns_empty(self):
        assert Passthrough().separate_batch([], 10.0, []) == []

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ConfigurationError):
            Passthrough().separate_batch([np.ones(10)], 10.0, [])

    def test_zero_length_record_raises_data_error(self):
        with pytest.raises(DataError):
            Passthrough().separate_batch(
                [np.empty(0)], 10.0, [{"a": np.empty(0)}]
            )

    def test_zero_length_record_vectorized_path(self):
        # The spectral-mask vectorized batch path must raise the same
        # DataError as the per-record path, before any FFT work.
        from repro.baselines import SpectralMaskingSeparator

        sep = SpectralMaskingSeparator()
        with pytest.raises(DataError):
            sep.separate_batch(
                [np.empty(0), np.empty(0)], 10.0,
                [{"a": np.empty(0)}, {"a": np.empty(0)}],
            )

    def test_single_frame_records_separate(self):
        # Records shorter than one analysis window of the configured
        # geometry: n_fft saturates at the record length and the batch
        # hook must still return full-length estimates.
        from repro.baselines import SpectralMaskingSeparator
        from repro.service import SpectralMaskingSpec

        sep = SpectralMaskingSeparator(SpectralMaskingSpec(n_fft_seconds=2.0))
        rng = np.random.default_rng(5)
        rows = [rng.standard_normal(50) for _ in range(2)]
        tracks = [{"a": np.full(50, 1.3)} for _ in range(2)]
        out = sep.separate_batch(rows, 100.0, tracks)
        assert len(out) == 2
        for est in out:
            assert est["a"].shape == (50,)
            assert np.all(np.isfinite(est["a"]))
