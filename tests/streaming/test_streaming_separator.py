"""StreamingSeparator: offline equivalence, chunk invariance, bookkeeping.

The headline contract: with a segment advance aligned to the wrapped
separator's STFT hop and an overlap covering the segment edge zone, the
streamed output equals the offline ``separate`` **exactly** outside the
recorded cross-fade spans — for every chunk size (single frame, primes,
the whole record at once).
"""

import numpy as np
import pytest

from repro.baselines import SpectralMaskingSeparator
from repro.errors import ConfigurationError, DataError, ShapeError
from repro.separation import Separator
from repro.streaming import StreamingSeparator, crossfade_ramp, stream_record

FS = 100.0
SEGMENT = 1024
OVERLAP = 256

#: Chunk sizes for the chunking sweeps: single samples, a small prime, a
#: larger prime, and the whole 3000-sample record in one push.
CHUNKS = [1, 7, 131, 3000]

#: ``(n_fft_seconds, hop_fraction)`` masker settings and the ``(n_fft,
#: hop)`` they give at ``FS``: quarter and half hop, an odd window with a
#: ragged hop, hop == n_fft (no frame overlap), and a hop that does not
#: divide a power of two.
MASKER_GEOMETRIES = [
    pytest.param(0.64, 0.25, (64, 16), id="64-16"),
    pytest.param(0.64, 0.5, (64, 32), id="64-32"),
    pytest.param(0.65, 0.27, (65, 17), id="65-17"),
    pytest.param(0.64, 1.0, (64, 64), id="64-64"),
    pytest.param(1.0, 0.2, (100, 20), id="100-20"),
]

#: ``(segment_samples, overlap_samples)`` engine geometries for the
#: 3000-sample record: a generic split, a one-sample advance, a record
#: ending exactly on a segment boundary, a record shorter than one
#: segment, and the smallest legal segment.
ENGINE_GEOMETRIES = [
    pytest.param(500, 100, id="generic"),
    pytest.param(100, 99, id="advance-1"),
    pytest.param(1000, 500, id="ends-on-boundary"),
    pytest.param(4000, 1000, id="one-short-segment"),
    pytest.param(2, 1, id="minimal"),
]


class Halver(Separator):
    """Trivial frame-local separator: every source gets mixed / n."""

    name = "halver"

    def separate(self, mixed, sampling_hz, f0_tracks):
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        return {name: mixed / len(f0_tracks) for name in f0_tracks}


@pytest.fixture(scope="module")
def record():
    n = 3000
    t = np.arange(n) / FS
    mixed = (
        np.sin(2 * np.pi * 1.1 * t)
        + 0.5 * np.sin(2 * np.pi * 2.9 * t + 0.7)
        + 0.01 * np.sin(2 * np.pi * 0.3 * t)
    )
    tracks = {"a": np.full(n, 1.1), "b": np.full(n, 2.9)}
    return mixed, tracks


@pytest.fixture(scope="module")
def masker():
    return SpectralMaskingSeparator(n_fft_seconds=0.64, n_harmonics=4)


class TestOfflineEquivalence:
    def _keep_mask(self, engine, n):
        keep = np.ones(n, dtype=bool)
        for s, e in engine.crossfade_spans:
            keep[s:e] = False
        return keep

    def test_chunk_sizes_match_offline(self, record, masker):
        mixed, tracks = record
        n = mixed.size
        n_fft, hop = masker.stft_geometry(FS, SEGMENT)
        offline = masker.separate(mixed, FS, tracks)
        # One STFT frame, a prime, and the whole record at once.
        for chunk in (hop, 131, n):
            est, engine = stream_record(
                masker, mixed, FS, tracks,
                segment_samples=SEGMENT, overlap_samples=OVERLAP,
                chunk_samples=chunk,
            )
            keep = self._keep_mask(engine, n)
            assert keep.sum() > n // 2  # fades must not cover everything
            for name in tracks:
                assert est[name].size == n
                err = np.abs(est[name] - offline[name])[keep].max()
                assert err <= 1e-8, (chunk, name, err)

    def test_chunking_invariance_is_exact(self, record, masker):
        # Different chunkings must produce bitwise-identical streams:
        # the same segments run on the same data regardless of arrival.
        mixed, tracks = record
        outs = []
        for chunk in (16, 131, mixed.size):
            est, _ = stream_record(
                masker, mixed, FS, tracks,
                segment_samples=SEGMENT, overlap_samples=OVERLAP,
                chunk_samples=chunk,
            )
            outs.append(est)
        for name in tracks:
            assert np.array_equal(outs[0][name], outs[1][name])
            assert np.array_equal(outs[0][name], outs[2][name])

    def test_record_shorter_than_one_segment(self, record, masker):
        # Whole record inside the first segment: streaming equals the
        # offline call everywhere (no cross-fade at all).
        mixed, tracks = record
        short = mixed[:700]
        stracks = {k: v[:700] for k, v in tracks.items()}
        offline = masker.separate(short, FS, stracks)
        est, engine = stream_record(
            masker, short, FS, stracks,
            segment_samples=1024, overlap_samples=256, chunk_samples=97,
        )
        assert engine.crossfade_spans == []
        assert engine.segments_run == [(0, 700)]
        for name in stracks:
            assert np.abs(est[name] - offline[name]).max() <= 1e-10

    def test_record_end_on_segment_boundary(self, masker):
        # n == segment end exactly: flush must not run a spurious extra
        # segment, and output still matches offline outside the fades.
        n = SEGMENT + 2 * (SEGMENT - OVERLAP)  # ends exactly at segment 3
        t = np.arange(n) / FS
        mixed = np.sin(2 * np.pi * 1.1 * t) + 0.4 * np.sin(2 * np.pi * 2.9 * t)
        tracks = {"a": np.full(n, 1.1), "b": np.full(n, 2.9)}
        offline = masker.separate(mixed, FS, tracks)
        est, engine = stream_record(
            masker, mixed, FS, tracks,
            segment_samples=SEGMENT, overlap_samples=OVERLAP,
            chunk_samples=100,
        )
        assert engine.segments_run[-1][1] == n
        assert len(engine.segments_run) == 3
        keep = self._keep_mask(engine, n)
        for name in tracks:
            assert est[name].size == n
            assert np.abs(est[name] - offline[name])[keep].max() <= 1e-8

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("n_fft_seconds,hop_fraction,expected",
                             MASKER_GEOMETRIES)
    def test_stft_geometries_match_offline(
        self, record, n_fft_seconds, hop_fraction, expected, chunk,
    ):
        # The offline-exact recipe (advance a multiple of the hop,
        # overlap >= n_fft + hop) holds for every STFT geometry and
        # every way of cutting the record into pushes.
        mixed, tracks = record
        n = mixed.size
        sep = SpectralMaskingSeparator(
            n_fft_seconds=n_fft_seconds, hop_fraction=hop_fraction,
            n_harmonics=4,
        )
        n_fft, hop = sep.stft_geometry(FS, n)
        assert (n_fft, hop) == expected
        overlap = n_fft + hop
        offline = sep.separate(mixed, FS, tracks)
        est, engine = stream_record(
            sep, mixed, FS, tracks,
            segment_samples=overlap + 20 * hop, overlap_samples=overlap,
            chunk_samples=chunk,
        )
        assert engine.n_emitted == n
        assert len(engine.crossfade_spans) >= 1
        keep = self._keep_mask(engine, n)
        assert keep.sum() > n // 2
        for name in tracks:
            assert est[name].size == n
            err = np.abs(est[name] - offline[name])[keep].max()
            assert err <= 1e-8, (name, err)


class TestIdentityEquivalence:
    def test_exact_everywhere_for_local_separator(self, record):
        # Cross-fading two identical signals reproduces the signal, so a
        # separator with no edge effects matches offline *everywhere*.
        mixed, tracks = record
        sep = Halver()
        offline = sep.separate(mixed, FS, tracks)
        est, _ = stream_record(
            sep, mixed, FS, tracks,
            segment_samples=500, overlap_samples=100, chunk_samples=37,
        )
        for name in tracks:
            assert np.abs(est[name] - offline[name]).max() <= 1e-12

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("segment,overlap", ENGINE_GEOMETRIES)
    def test_any_geometry_and_chunking(self, record, segment, overlap, chunk):
        # Push by hand to check the latency bound after every push, then
        # check the stitched stream against the offline call everywhere.
        mixed, tracks = record
        sep = Halver()
        offline = sep.separate(mixed, FS, tracks)
        engine = StreamingSeparator(sep, FS, segment, overlap)
        parts = {name: [] for name in tracks}
        emitted = 0
        for start in range(0, mixed.size, chunk):
            stop = min(mixed.size, start + chunk)
            out = engine.push(
                mixed[start:stop],
                {k: v[start:stop] for k, v in tracks.items()},
            )
            assert engine.n_pushed - engine.n_emitted <= segment
            for name in tracks:
                # Each push returns exactly the newly finalized samples.
                assert out[name].size == engine.n_emitted - emitted
                parts[name].append(out[name])
            emitted = engine.n_emitted
        for name, tail in engine.flush().items():
            parts[name].append(tail)
        assert engine.n_emitted == mixed.size
        assert engine.segments_run[0][0] == 0
        assert engine.segments_run[-1][1] == mixed.size
        starts = [s for s, _ in engine.segments_run]
        advance = segment - overlap
        assert all(b - a == advance for a, b in zip(starts, starts[1:]))
        # No spurious extra segment when the record ends on a boundary.
        assert len(starts) == 1 + -(-max(0, mixed.size - segment) // advance)
        for name in tracks:
            est = np.concatenate(parts[name])
            assert est.size == mixed.size
            assert np.abs(est - offline[name]).max() <= 1e-12


class TestBookkeeping:
    def test_latency_bound(self, record):
        mixed, tracks = record
        engine = StreamingSeparator(Halver(), FS, 500, 100)
        for start in range(0, mixed.size, 50):
            stop = min(mixed.size, start + 50)
            engine.push(
                mixed[start:stop],
                {k: v[start:stop] for k, v in tracks.items()},
            )
            assert engine.n_pushed - engine.n_emitted <= engine.max_latency_samples
        engine.flush()
        assert engine.n_emitted == mixed.size

    def test_emitted_totals_per_source(self, record):
        mixed, tracks = record
        est, engine = stream_record(
            Halver(), mixed, FS, tracks,
            segment_samples=400, overlap_samples=80, chunk_samples=61,
        )
        assert engine.n_emitted == mixed.size
        for name in tracks:
            assert est[name].size == mixed.size

    def test_crossfade_ramp_partition_of_unity(self):
        ramp = crossfade_ramp(100)
        assert np.all(ramp > 0) and np.all(ramp < 1)
        # fade-out of one segment + fade-in of the next sums to 1
        assert np.abs((ramp + (1.0 - ramp)) - 1.0).max() == 0.0
        # symmetric: reversing the fade-in gives the fade-out
        assert np.abs(ramp[::-1] - (1.0 - ramp)).max() <= 1e-15


class TestValidation:
    def test_overlap_must_be_smaller_than_segment(self):
        with pytest.raises(ConfigurationError):
            StreamingSeparator(Halver(), FS, 100, 100)

    def test_requires_separator(self):
        with pytest.raises(ConfigurationError):
            StreamingSeparator(object(), FS, 100, 10)

    def test_track_chunk_length_mismatch(self):
        engine = StreamingSeparator(Halver(), FS, 100, 10)
        with pytest.raises(DataError):
            engine.push(np.ones(5), {"a": np.ones(4)})

    def test_track_sources_must_stay_fixed(self):
        engine = StreamingSeparator(Halver(), FS, 100, 10)
        engine.push(np.ones(5), {"a": np.ones(5)})
        with pytest.raises(ConfigurationError):
            engine.push(np.ones(5), {"b": np.ones(5)})

    def test_nonpositive_track_rejected(self):
        engine = StreamingSeparator(Halver(), FS, 100, 10)
        with pytest.raises(DataError):
            engine.push(np.ones(5), {"a": np.zeros(5)})

    def test_check_push_rejects_like_push_and_changes_nothing(self):
        engine = StreamingSeparator(Halver(), FS, 100, 10)
        samples, chunks = engine.check_push([1, 2], {"a": [3, 4]})
        assert samples.dtype == chunks["a"].dtype == np.float64
        assert engine.source_names == [] and engine.n_pushed == 0
        engine.push(np.ones(5), {"a": np.ones(5)})
        for bad_samples, bad_tracks, error in (
            (np.ones(5), {"b": np.ones(5)}, ConfigurationError),
            (np.ones(5), {"a": np.ones(4)}, DataError),
            (np.ones(5), {"a": np.r_[np.ones(4), 0.0]}, DataError),
            (np.r_[np.ones(4), np.nan], {"a": np.ones(5)}, DataError),
            (np.ones(5), {"a": np.r_[np.ones(4), np.nan]}, DataError),
            (np.ones(5), {"a": np.r_[np.ones(4), np.inf]}, DataError),
        ):
            with pytest.raises(error):
                engine.check_push(bad_samples, bad_tracks)
        assert engine.n_pushed == 5 and engine.source_names == ["a"]

    def test_non_finite_push_changes_nothing(self):
        engine = StreamingSeparator(Halver(), FS, 100, 10)
        engine.push(np.ones(5), {"a": np.ones(5)})
        before = (engine.n_pushed, engine._signal.copy(),
                  engine._tracks["a"].copy())
        with pytest.raises(DataError, match="samples"):
            engine.push(np.r_[np.ones(4), np.nan], {"a": np.ones(5)})
        with pytest.raises(DataError, match="f0 track for 'a'"):
            engine.push(np.ones(5), {"a": np.r_[np.nan, np.ones(4)]})
        assert engine.n_pushed == before[0]
        assert np.array_equal(engine._signal, before[1])
        assert np.array_equal(engine._tracks["a"], before[2])

    def test_nan_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="sampling_hz"):
            StreamingSeparator(Halver(), float("nan"), 100, 10)

    def test_push_after_flush_raises(self):
        engine = StreamingSeparator(Halver(), FS, 100, 10)
        engine.push(np.ones(5), {"a": np.ones(5)})
        engine.flush()
        with pytest.raises(ConfigurationError):
            engine.push(np.ones(5), {"a": np.ones(5)})
        with pytest.raises(ConfigurationError):
            engine.flush()

    def test_flush_empty_stream_raises(self):
        engine = StreamingSeparator(Halver(), FS, 100, 10)
        with pytest.raises(DataError):
            engine.flush()

    def test_empty_pushes_are_fine(self, record):
        mixed, tracks = record
        engine = StreamingSeparator(Halver(), FS, 100, 10)
        out = engine.push(np.empty(0), {"a": np.empty(0)})
        assert set(out) == {"a"} and out["a"].shape == (0,)
        assert engine.n_pushed == 0
        engine.push(mixed[:150], {"a": tracks["a"][:150]})
        out = engine.push(np.empty(0), {"a": np.empty(0)})
        assert out["a"].size == 0
        assert engine.n_pushed == 150

    def test_rejects_multichannel_samples(self):
        engine = StreamingSeparator(Halver(), FS, 100, 10)
        with pytest.raises(ShapeError):
            engine.push(np.zeros((3, 4)), {"a": np.ones((3, 4))})
        assert engine.n_pushed == 0

    def test_requires_a_source(self):
        engine = StreamingSeparator(Halver(), FS, 100, 10)
        with pytest.raises(ConfigurationError):
            engine.push(np.ones(5), {})

    def test_nonpositive_sampling_rate_rejected(self):
        for rate in (0.0, -100.0):
            with pytest.raises(ConfigurationError):
                StreamingSeparator(Halver(), rate, 100, 10)

    def test_wrong_length_estimate_raises(self):
        class Truncating(Separator):
            name = "truncating"

            def separate(self, mixed, sampling_hz, f0_tracks):
                return {name: mixed[:-1] for name in f0_tracks}

        engine = StreamingSeparator(Truncating(), FS, 100, 10)
        with pytest.raises(DataError, match="expected 100 samples"):
            engine.push(np.ones(100), {"a": np.ones(100)})

    def test_missing_source_estimate_raises(self):
        class Forgetful(Separator):
            name = "forgetful"

            def separate(self, mixed, sampling_hz, f0_tracks):
                return {"a": mixed}

        engine = StreamingSeparator(Forgetful(), FS, 100, 10)
        engine.push(np.ones(50), {"a": np.ones(50), "b": np.ones(50)})
        with pytest.raises(DataError, match="missing for source 'b'"):
            engine.flush()
