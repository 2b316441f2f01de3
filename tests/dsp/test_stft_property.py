"""Property-based STFT round-trip tests (seeded randomized sweep).

WOLA analysis/synthesis is algebraically exact wherever the summed
squared window clears the normalizer floor, so ``istft(stft(x)) == x``
must hold to float precision for *any* geometry with non-vanishing
overlap — including awkward signal lengths (shorter than one frame,
exact hop multiples, off-by-one) and any input dtype the validators
coerce, for one record and for a stack alike.  A seeded random sweep
hunts that whole space; failures print the offending configuration for
replay.
"""

import numpy as np
import pytest

from repro.dsp import istft, stft

TOL = 1e-10


def _random_config(rng):
    """One random (n_fft, hop, n, dtype) configuration.

    ``hop`` stays within ``n_fft // 2``: the centred frame grid only
    covers every sample (a prerequisite of perfect reconstruction) when
    the hop does not exceed the centring pad.
    """
    n_fft = int(rng.integers(4, 257))
    hop = int(rng.integers(1, max(2, n_fft // 2 + 1)))
    n = int(rng.integers(1, 1200))
    dtype = rng.choice([np.float64, np.float32, np.int16])
    return n_fft, hop, n, dtype


def _make_signal(rng, n, dtype):
    x = rng.standard_normal(n) * 3.0
    if dtype == np.int16:
        return (x * 1000).astype(np.int16)
    return x.astype(dtype)


class TestRoundTripSweep:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_record_round_trip(self, seed):
        rng = np.random.default_rng(20240 + seed)
        for _ in range(12):
            n_fft, hop, n, dtype = _random_config(rng)
            x = _make_signal(rng, n, dtype)
            expected = np.asarray(x, dtype=np.float64)
            result = stft(x, 100.0, n_fft=n_fft, hop=hop)
            y = istft(result)
            err = np.abs(y - expected).max()
            scale = max(1.0, np.abs(expected).max())
            assert err <= TOL * scale, (
                f"round trip failed: n_fft={n_fft}, hop={hop}, "
                f"n={n}, dtype={dtype}: err={err:.2e}"
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_stack_round_trip(self, seed):
        rng = np.random.default_rng(77000 + seed)
        for _ in range(6):
            n_fft, hop, n, dtype = _random_config(rng)
            b = int(rng.integers(1, 6))
            xs = np.stack([_make_signal(rng, n, dtype) for _ in range(b)])
            expected = np.asarray(xs, dtype=np.float64)
            ys = istft(stft(xs, 100.0, n_fft=n_fft, hop=hop))
            err = np.abs(ys - expected).max()
            scale = max(1.0, np.abs(expected).max())
            assert err <= TOL * scale, (
                f"stack round trip failed: n_fft={n_fft}, hop={hop}, "
                f"n={n}, b={b}, dtype={dtype}: err={err:.2e}"
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_stack_rows_equal_single_records_bitwise(self, seed):
        # Row i of a stack's analysis and synthesis is the one-record
        # result for row i, bit for bit.
        rng = np.random.default_rng(31000 + seed)
        n_fft, hop, n, _ = _random_config(rng)
        xs = rng.standard_normal((3, n))
        stacked = stft(xs, 100.0, n_fft=n_fft, hop=hop)
        ys = istft(stacked)
        for i in range(3):
            single = stft(xs[i], 100.0, n_fft=n_fft, hop=hop)
            np.testing.assert_array_equal(stacked.values[i], single.values)
            np.testing.assert_array_equal(ys[i], istft(single))


class TestAwkwardLengths:
    """Deterministic edge lengths the random sweep might miss."""

    GEOMETRIES = [(64, 16), (63, 9), (32, 16)]

    def _lengths(self, n_fft, hop):
        return sorted({
            1, 2,                          # (far) shorter than one frame
            n_fft - 1, n_fft, n_fft + 1,   # around exactly one window
            hop, hop + 1,                  # around one hop
            3 * hop, 3 * hop + 1,          # exact multiple and off-by-one
            5 * n_fft, 5 * n_fft - 1,      # multi-frame
        })

    @pytest.mark.parametrize("n_fft,hop", GEOMETRIES)
    def test_round_trip(self, n_fft, hop, rng):
        for n in self._lengths(n_fft, hop):
            x = rng.standard_normal(n)
            y = istft(stft(x, 50.0, n_fft=n_fft, hop=hop))
            assert y.size == n
            assert np.abs(y - x).max() <= TOL, (n_fft, hop, n)

    @pytest.mark.parametrize("n_fft,hop", GEOMETRIES)
    def test_stack_round_trip(self, n_fft, hop, rng):
        for n in self._lengths(n_fft, hop):
            xs = rng.standard_normal((2, n))
            ys = istft(stft(xs, 50.0, n_fft=n_fft, hop=hop))
            assert ys.shape == xs.shape
            assert np.abs(ys - xs).max() <= TOL, (n_fft, hop, n)

    def test_length_override_pads_and_trims(self, rng):
        x = rng.standard_normal(200)
        result = stft(x, 100.0, n_fft=32, hop=8)
        assert istft(result, length=150).size == 150
        padded = istft(result, length=400)
        assert padded.size == 400
        assert np.abs(padded[:200] - x).max() <= TOL


class TestDtypes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_inputs_are_coerced(self, dtype, rng):
        x = (rng.standard_normal(300) * 100).astype(dtype)
        result = stft(x, 100.0, n_fft=64, hop=16)
        assert result.values.dtype == np.complex128
        y = istft(result)
        assert y.dtype == np.float64
        assert np.abs(y - np.asarray(x, dtype=np.float64)).max() <= TOL * 100
