"""Equivalence tests: vectorized STFT/iSTFT vs the frame-loop reference.

The vectorized synthesis (grouped overlap-add through a cached plan) must
match :func:`repro.dsp.istft_loop` — the historical per-frame
implementation — to float-summation-order precision, across window/hop
combinations including non-divisible hops.  The batched variants must
match the single-record path record by record.
"""

import numpy as np
import pytest

from repro.dsp import (
    BatchStft,
    StftPlan,
    cache_friendly_chunk,
    clear_plan_cache,
    get_stft_plan,
    istft,
    istft_batch,
    istft_loop,
    overlap_add,
    stft,
    stft_batch,
)
from repro.dsp.plan import NORMALIZER_FLOOR
from repro.errors import ConfigurationError, ShapeError

FS = 100.0

GEOMETRIES = [
    # (n_fft, hop) — divisible, non-divisible, hop == n_fft, hop 1 short
    (64, 16),
    (64, 8),
    (64, 64),
    (100, 30),   # hop does not divide n_fft
    (96, 36),    # hop does not divide n_fft
    (128, 32),
    (33, 7),     # odd n_fft, ragged hop
]


def _signal(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    return (
        np.sin(2 * np.pi * 1.3 * t)
        + 0.5 * np.sin(2 * np.pi * 3.7 * t + 0.4)
        + 0.1 * rng.standard_normal(n)
    )


class TestLoopEquivalence:
    @pytest.mark.parametrize("n_fft,hop", GEOMETRIES)
    @pytest.mark.parametrize("window", ["hann", "hamming", "blackman",
                                        "rectangular"])
    def test_istft_matches_loop(self, n_fft, hop, window):
        x = _signal(801, seed=n_fft + hop)
        spec = stft(x, FS, n_fft=n_fft, hop=hop, window=window)
        fast = istft(spec)
        slow = istft_loop(spec)
        assert fast.shape == slow.shape
        np.testing.assert_allclose(fast, slow, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("n_fft,hop", GEOMETRIES)
    def test_istft_matches_loop_on_modified_values(self, n_fft, hop):
        """Masked coefficients (the DHF case), not just round-trips."""
        x = _signal(512, seed=3)
        spec = stft(x, FS, n_fft=n_fft, hop=hop)
        rng = np.random.default_rng(7)
        mask = rng.random(spec.values.shape) > 0.4
        masked = spec.with_values(spec.values * mask)
        np.testing.assert_allclose(
            istft(masked), istft_loop(masked), atol=1e-12, rtol=0
        )

    @pytest.mark.parametrize("n_fft,hop", [(64, 16), (100, 30), (128, 32)])
    @pytest.mark.parametrize("window", ["hann", "hamming"])
    def test_perfect_reconstruction(self, n_fft, hop, window):
        x = _signal(700, seed=n_fft)
        spec = stft(x, FS, n_fft=n_fft, hop=hop, window=window)
        np.testing.assert_allclose(istft(spec), x, atol=1e-10, rtol=0)

    def test_custom_length_and_padding(self):
        x = _signal(300)
        spec = stft(x, FS, n_fft=64, hop=16)
        short = istft(spec, length=200)
        long = istft(spec, length=400)
        np.testing.assert_allclose(short, x[:200], atol=1e-10)
        assert long.size == 400
        np.testing.assert_allclose(long, istft_loop(spec, length=400),
                                   atol=1e-12)


class TestBatchedStft:
    def test_batch_matches_single_record(self):
        X = np.stack([_signal(400, seed=s) for s in range(5)])
        batch = stft_batch(X, FS, n_fft=64, hop=16)
        assert isinstance(batch, BatchStft)
        assert len(batch) == 5
        for b in range(5):
            single = stft(X[b], FS, n_fft=64, hop=16)
            np.testing.assert_allclose(
                batch.record(b).values, single.values, atol=1e-12
            )

    def test_istft_batch_matches_single(self):
        X = np.stack([_signal(400, seed=s) for s in range(4)])
        batch = stft_batch(X, FS, n_fft=100, hop=30)
        signals = istft_batch(batch)
        for b in range(4):
            np.testing.assert_allclose(
                signals[b], istft(batch.record(b)), atol=1e-12
            )
            np.testing.assert_allclose(signals[b], X[b], atol=1e-10)

    def test_istft_batch_with_replacement_values(self):
        X = np.stack([_signal(256, seed=s) for s in range(3)])
        batch = stft_batch(X, FS, n_fft=64, hop=16)
        rng = np.random.default_rng(1)
        masks = rng.random(batch.values.shape) > 0.5
        signals = istft_batch(batch, batch.values * masks)
        for b in range(3):
            single = batch.record(b).with_values(
                batch.record(b).values * masks[b].T
            )
            np.testing.assert_allclose(signals[b], istft(single), atol=1e-12)

    def test_replacement_batch_may_be_smaller(self):
        """One analysis can drive many syntheses (per-source masking)."""
        X = np.stack([_signal(256, seed=s) for s in range(4)])
        batch = stft_batch(X, FS, n_fft=64, hop=16)
        out = istft_batch(batch, batch.values[:2])
        assert out.shape == (2, 256)

    def test_batch_requires_2d(self):
        with pytest.raises(ShapeError):
            stft_batch(_signal(128), FS, n_fft=32)
        batch = stft_batch(np.ones((2, 128)), FS, n_fft=32)
        with pytest.raises(ShapeError):
            istft_batch(batch, np.ones((2, 3)))

    def test_istft_batch_rejects_wrong_frame_count(self):
        batch = stft_batch(np.ones((2, 128)), FS, n_fft=32)
        with pytest.raises(ShapeError):
            istft_batch(batch, batch.values[:, : batch.n_frames // 2])


class TestPlan:
    def test_plan_cache_reuses_instances(self):
        clear_plan_cache()
        a = get_stft_plan(64, 16)
        b = get_stft_plan(64, 16)
        c = get_stft_plan(64, 32)
        assert a is b
        assert a is not c

    def test_normalizer_cached_per_frame_count(self):
        plan = StftPlan(64, 16)
        n1 = plan.ola_normalizer(20)
        n2 = plan.ola_normalizer(20)
        assert n1 is n2
        assert not n1.flags.writeable

    def test_normalizer_matches_loop_accumulation(self):
        plan = StftPlan(100, 30)
        n_frames = 17
        norm = plan.ola_normalizer(n_frames)
        ref = np.zeros(plan.total_length(n_frames))
        for k in range(n_frames):
            ref[k * 30: k * 30 + 100] += plan.window_sq
        ref = np.where(ref > 1e-12, ref, 1.0)
        np.testing.assert_allclose(norm, ref, atol=1e-12)

    @pytest.mark.parametrize("n_fft,hop", GEOMETRIES)
    def test_normalizer_floors_uncovered_positions(self, n_fft, hop):
        # The periodic Hann window is 0 at each frame start, so every
        # geometry has positions with no coverage (hop == n_fft has one
        # per frame); exactly those divide by 1, the rest by the raw sum.
        plan = StftPlan(n_fft, hop, "hann")
        for n_frames in (1, 2, 7, 40):
            raw = np.zeros(plan.total_length(n_frames))
            for k in range(n_frames):
                raw[k * hop: k * hop + n_fft] += plan.window_sq
            uncovered = raw <= NORMALIZER_FLOOR
            assert uncovered.any()
            norm = plan.ola_normalizer(n_frames)
            assert norm.shape == raw.shape
            assert not norm.flags.writeable
            assert np.all(norm[uncovered] == 1.0)
            np.testing.assert_allclose(
                norm[~uncovered], raw[~uncovered], rtol=1e-12, atol=0,
            )

    def test_overlap_add_matches_naive(self):
        rng = np.random.default_rng(5)
        frames = rng.standard_normal((3, 11, 40))
        hop = 13  # does not divide 40
        total = 10 * hop + 40
        got = overlap_add(frames, hop, total)
        ref = np.zeros((3, total))
        for k in range(11):
            ref[:, k * hop: k * hop + 40] += frames[:, k]
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_overlap_add_short_total_trims(self):
        frames = np.ones((2, 5, 8))
        out = overlap_add(frames, 4, 10)
        assert out.shape == (2, 10)

    def test_overlap_add_rejects_bad_hop(self):
        with pytest.raises(ConfigurationError):
            overlap_add(np.ones((2, 4)), 8, 16)  # hop > n_fft

    def test_frame_signal_batch_matches_single(self):
        plan = StftPlan(32, 8)
        X = np.arange(200, dtype=float).reshape(2, 100)
        batched = plan.frame_signal(X)
        for b in range(2):
            np.testing.assert_array_equal(
                batched[b], plan.frame_signal(X[b])
            )

    def test_cache_friendly_chunk_positive(self):
        assert cache_friendly_chunk(100, 64) >= 1
        assert cache_friendly_chunk(10 ** 9, 10 ** 9) == 1
