"""Equivalence tests: vectorized STFT/iSTFT vs the frame-loop reference.

The vectorized synthesis (grouped overlap-add through a cached plan) must
match :func:`repro.dsp.istft_loop` — the per-frame reference
implementation — to float-summation-order precision, across hops
including non-divisible ones.  A stack of records must match the
single-record path record by record.
"""

import numpy as np
import pytest

from repro.dsp import (
    StftPlan,
    cache_friendly_chunk,
    clear_plan_cache,
    get_stft_plan,
    istft,
    istft_loop,
    overlap_add,
    stft,
)
from repro.dsp import plan as plan_module
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
    def test_istft_matches_loop(self, n_fft, hop):
        x = _signal(801, seed=n_fft + hop)
        spec = stft(x, FS, n_fft=n_fft, hop=hop)
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

    @pytest.mark.parametrize("n_fft,hop", GEOMETRIES)
    def test_stack_istft_matches_loop(self, n_fft, hop):
        """The loop reference also takes a stack; both paths agree."""
        X = np.stack([_signal(333, seed=n_fft + s) for s in range(3)])
        spec = stft(X, FS, n_fft=n_fft, hop=hop)
        rng = np.random.default_rng(hop)
        masked = spec.with_values(
            spec.values * (rng.random(spec.values.shape) > 0.3)
        )
        fast = istft(masked)
        assert fast.shape == X.shape
        np.testing.assert_allclose(fast, istft_loop(masked), atol=1e-12,
                                   rtol=0)

    @pytest.mark.parametrize("n_fft,hop", [(64, 16), (100, 30), (128, 32)])
    def test_perfect_reconstruction(self, n_fft, hop):
        x = _signal(700, seed=n_fft)
        spec = stft(x, FS, n_fft=n_fft, hop=hop)
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


class TestStackedStft:
    def test_stack_matches_single_record(self):
        X = np.stack([_signal(400, seed=s) for s in range(5)])
        spec = stft(X, FS, n_fft=64, hop=16)
        assert spec.values.shape == (5, spec.n_freq, spec.n_frames)
        assert spec.n_samples == 400
        for b in range(5):
            single = stft(X[b], FS, n_fft=64, hop=16)
            assert (single.n_freq, single.n_frames) == (spec.n_freq,
                                                        spec.n_frames)
            np.testing.assert_array_equal(spec.values[b], single.values)

    def test_istft_of_stack_matches_single(self):
        X = np.stack([_signal(400, seed=s) for s in range(4)])
        spec = stft(X, FS, n_fft=100, hop=30)
        signals = istft(spec)
        assert signals.shape == X.shape
        for b in range(4):
            single = stft(X[b], FS, n_fft=100, hop=30)
            np.testing.assert_array_equal(signals[b], istft(single))
            np.testing.assert_allclose(signals[b], X[b], atol=1e-10)

    def test_istft_of_stack_with_replacement_values(self):
        X = np.stack([_signal(256, seed=s) for s in range(3)])
        spec = stft(X, FS, n_fft=64, hop=16)
        rng = np.random.default_rng(1)
        masks = rng.random(spec.values.shape) > 0.5
        signals = istft(spec.with_values(spec.values * masks))
        for b in range(3):
            single = stft(X[b], FS, n_fft=64, hop=16)
            masked = single.with_values(single.values * masks[b])
            np.testing.assert_allclose(signals[b], istft(masked), atol=1e-12)
            np.testing.assert_allclose(
                signals[b], istft_loop(masked), atol=1e-12
            )

    def test_with_values_accepts_another_leading_shape(self):
        """One analysis can drive many syntheses (per-source masking)."""
        X = np.stack([_signal(256, seed=s) for s in range(4)])
        spec = stft(X, FS, n_fft=64, hop=16)
        assert istft(spec.with_values(spec.values[:2])).shape == (2, 256)
        assert istft(spec.with_values(spec.values[1])).shape == (256,)
        grid = np.broadcast_to(spec.values, (3,) + spec.values.shape)
        assert istft(spec.with_values(grid)).shape == (3, 4, 256)
        single = stft(X[0], FS, n_fft=64, hop=16)
        assert istft(single.with_values(spec.values)).shape == (4, 256)

    def test_with_values_refuses_another_geometry(self):
        spec = stft(np.ones((2, 128)), FS, n_fft=32)
        with pytest.raises(ShapeError):
            spec.with_values(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            spec.with_values(spec.values[..., : spec.n_frames // 2])
        with pytest.raises(ShapeError):
            spec.with_values(spec.values[:, :-1, :])
        with pytest.raises(ShapeError):
            spec.with_values(spec.values[0, 0])

    def test_stack_must_be_at_most_2d(self):
        with pytest.raises(ShapeError):
            stft(np.ones((2, 2, 128)), FS, n_fft=32)
        with pytest.raises(ShapeError):
            stft(1.0, FS, n_fft=32)


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
        plan = StftPlan(n_fft, hop)
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

    @pytest.mark.parametrize("n_lanes,records", [(0, 128), (1, 128),
                                                 (4, 32)])
    def test_cache_friendly_chunk_splits_one_mebibyte(self, n_lanes,
                                                      records):
        # 16 frames x 64 samples x 8 bytes = 8 KiB per record and lane.
        assert cache_friendly_chunk(16, 64, n_lanes=n_lanes) == records

    def test_default_hop_plan_is_the_stft_plan(self):
        spec = stft(_signal(300), FS, n_fft=64)
        assert get_stft_plan(64) is spec.plan() is get_stft_plan(64, 16)

    def test_cleared_cache_builds_a_new_plan(self):
        before = get_stft_plan(48, 12)
        clear_plan_cache()
        after = get_stft_plan(48, 12)
        assert after is not before
        assert (after.n_fft, after.hop) == (48, 12)
        np.testing.assert_array_equal(after.window, before.window)

    def test_plan_cache_is_bounded(self):
        clear_plan_cache()
        first = get_stft_plan(16, 1)
        for hop in range(2, plan_module._PLAN_CACHE_MAX + 6):
            get_stft_plan(16 + hop, hop)
        assert len(plan_module._PLAN_CACHE) == plan_module._PLAN_CACHE_MAX
        assert get_stft_plan(16, 1) is not first  # oldest went first
        clear_plan_cache()

    def test_normalizers_per_plan_are_bounded(self):
        plan = StftPlan(32, 8)
        for n_frames in range(1, 20):
            plan.ola_normalizer(n_frames)
        kept = plan._normalizers
        assert len(kept) == plan_module._NORMALIZERS_PER_PLAN
        assert min(kept) == 20 - plan_module._NORMALIZERS_PER_PLAN

    @pytest.mark.parametrize("n_fft,hop", [(0, 1), (64, 0), (64, 65),
                                           (64, 16.0)])
    def test_plan_rejects_bad_geometry(self, n_fft, hop):
        with pytest.raises(ConfigurationError):
            StftPlan(n_fft, hop)

    @pytest.mark.parametrize("divisor", [4, 8])
    def test_normalizer_is_flat_where_frames_fully_overlap(self, divisor):
        """Hann squared overlap-adds to 3/8 of the overlap factor once
        at least three frames overlap, so interior samples all divide by
        the same number."""
        n_fft, n_frames = 256, 40
        hop = n_fft // divisor
        norm = StftPlan(n_fft, hop).ola_normalizer(n_frames)
        interior = norm[n_fft:(n_frames - 1) * hop]
        np.testing.assert_allclose(interior, 0.375 * divisor, rtol=0,
                                   atol=1e-12)

    def test_frame_signal_centres_frame_k_on_sample_k_hop(self):
        plan = StftPlan(32, 8)
        x = np.arange(1.0, 101.0)
        frames = plan.frame_signal(x)
        assert frames.shape == (plan.n_frames(100), 32)
        assert not frames.flags.writeable
        np.testing.assert_array_equal(frames[:, plan.pad],
                                      x[::8][: frames.shape[0]])
        np.testing.assert_array_equal(frames[0, : plan.pad], 0.0)

    def test_frame_signal_rejects_3d(self):
        with pytest.raises(ShapeError):
            StftPlan(32, 8).frame_signal(np.zeros((2, 2, 50)))

    def test_overlap_add_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            overlap_add(np.ones(8), 4, 16)
        with pytest.raises(ConfigurationError):
            overlap_add(np.ones((2, 8)), 4, -1)
