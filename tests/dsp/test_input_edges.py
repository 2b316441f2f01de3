"""Zero-length and single-frame input handling across the STFT surface.

Degenerate inputs must fail with :class:`repro.errors.DataError` (not a
cryptic NumPy shape error) and single-frame-scale inputs must round-trip
exactly — uniformly for one record and a stack, through ``stft``,
``istft`` and ``istft_loop``.  The matching ``separate_batch`` cases live
in ``tests/test_separation.py``.
"""

import numpy as np
import pytest

from repro.dsp import istft, istft_loop, stft
from repro.errors import DataError, ReproError


class TestZeroLength:
    def test_stft_empty_signal(self):
        with pytest.raises(DataError):
            stft(np.empty(0), 100.0, n_fft=64)

    def test_stft_stack_of_empty_records(self):
        with pytest.raises(DataError):
            stft(np.empty((3, 0)), 100.0, n_fft=64)

    def test_stft_stack_of_no_records(self):
        with pytest.raises(DataError):
            stft(np.empty((0, 128)), 100.0, n_fft=64)

    def test_istft_zero_frames(self, rng):
        result = stft(rng.standard_normal(256), 100.0, n_fft=64)
        hollow = result.copy()
        hollow.values = np.empty((result.n_freq, 0), dtype=complex)
        with pytest.raises(DataError):
            istft(hollow)
        with pytest.raises(DataError):
            istft_loop(hollow)

    def test_istft_stack_zero_frames(self, rng):
        result = stft(rng.standard_normal((2, 256)), 100.0, n_fft=64)
        hollow = result.copy()
        hollow.values = np.empty((2, result.n_freq, 0), dtype=complex)
        with pytest.raises(DataError):
            istft(hollow)
        with pytest.raises(DataError):
            istft_loop(hollow)

    def test_all_raise_repro_errors_only(self):
        # The consistency contract: bad input never escapes as a bare
        # numpy/ValueError outside the ReproError hierarchy.
        for call in (
            lambda: stft([], 100.0, n_fft=16),
            lambda: stft([[]], 100.0, n_fft=16),
            lambda: stft(np.zeros((0, 8)), 100.0, n_fft=16),
            lambda: stft(np.zeros((2, 3, 8)), 100.0, n_fft=16),
            lambda: stft(np.zeros((2, 0, 8)), 100.0, n_fft=16),
        ):
            with pytest.raises(ReproError):
                call()


class TestSingleFrame:
    @pytest.mark.parametrize("n", [1, 2, 16, 31])
    def test_single_frame_round_trip(self, n, rng):
        # All these lengths produce exactly one frame at n_fft=64, hop=32
        # (via the centring pad); the round trip must still be exact.
        x = rng.standard_normal(n)
        result = stft(x, 100.0, n_fft=64, hop=32)
        assert result.n_frames == 1
        y = istft(result)
        assert y.size == n
        assert np.abs(y - x).max() <= 1e-10

    @pytest.mark.parametrize("n", [1, 16, 31])
    def test_single_frame_stack_round_trip(self, n, rng):
        xs = rng.standard_normal((3, n))
        result = stft(xs, 100.0, n_fft=64, hop=32)
        assert result.n_frames == 1
        ys = istft(result)
        assert ys.shape == xs.shape
        assert np.abs(ys - xs).max() <= 1e-10

    def test_single_sample(self, rng):
        x = rng.standard_normal(1)
        y = istft(stft(x, 100.0, n_fft=16, hop=4))
        assert y.size == 1
        assert abs(y[0] - x[0]) <= 1e-10
