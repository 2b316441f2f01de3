"""stream_batch: a record set streamed and scored like separate_batch."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import SpectralMaskingSeparator
from repro.errors import ConfigurationError
from repro.pipeline import SeparationRecord
from repro.service import SeparationService, SpectralMaskingSpec
from repro.streaming import stream_record

FS = 100.0


def _stream(separator, records, segment_samples, overlap_samples,
            chunk_samples, **service_kwargs):
    """A record set through one service's ``stream_batch``."""
    with SeparationService(separator, **service_kwargs) as service:
        return service.stream_batch(
            records, segment_samples, overlap_samples, chunk_samples,
        ).batch


def _subject_data(seed, n=2000):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    mixed = (
        np.sin(2 * np.pi * 1.1 * t + rng.uniform(0, 6))
        + 0.5 * np.sin(2 * np.pi * 2.9 * t + rng.uniform(0, 6))
        + 0.01 * rng.standard_normal(n)
    )
    tracks = {"a": np.full(n, 1.1), "b": np.full(n, 2.9)}
    return mixed, tracks


@pytest.fixture(scope="module")
def masker():
    return SpectralMaskingSeparator(
        SpectralMaskingSpec(n_fft_seconds=0.64, n_harmonics=4)
    )


class TestStreamBatch:
    def _records(self, n_records=2):
        records = []
        for i in range(n_records):
            mixed, tracks = _subject_data(100 + i)
            references = {  # fake references: score plumbing only
                "a": np.sin(2 * np.pi * 1.1 * np.arange(2000) / FS),
                "b": 0.5 * np.sin(2 * np.pi * 2.9 * np.arange(2000) / FS),
            }
            records.append(SeparationRecord(
                mixed=mixed, sampling_hz=FS, f0_tracks=tracks,
                name=f"rec{i}", references=references,
            ))
        return records

    def test_scored_batch_result(self, masker):
        records = self._records()
        batch = _stream(
            masker, records, segment_samples=1024, overlap_samples=256,
            chunk_samples=200,
        )
        assert len(batch) == 2
        assert batch.separator_name == masker.name
        for result in batch:
            assert set(result.estimates) == {"a", "b"}
            for source in ("a", "b"):
                assert result.estimates[source].size == 2000
                sdr, err = result.scores[source]
                assert np.isfinite(sdr) and err >= 0
        summary = batch.summary()
        assert set(summary) == {"a", "b"}

    def test_matches_offline_pipeline_scores_closely(self, masker):
        # Streaming alters only the cross-fade regions, so per-source
        # SDR must track the offline batch tightly.
        records = self._records()
        with SeparationService(masker) as service:
            offline = service.separate_batch(records).batch
        streamed = _stream(
            masker, records, segment_samples=1024, overlap_samples=256,
            chunk_samples=500,
        )
        for off_r, str_r in zip(offline, streamed):
            for source in ("a", "b"):
                off_sdr = off_r.scores[source][0]
                str_sdr = str_r.scores[source][0]
                assert abs(off_sdr - str_sdr) < 0.5, (source, off_sdr, str_sdr)

    def test_empty_records(self, masker):
        batch = _stream(masker, [], 1024, 256, 100)
        assert len(batch) == 0

    def test_mixed_rates_rejected(self, masker):
        records = self._records()
        records[1].sampling_hz = 50.0
        with pytest.raises(ConfigurationError):
            _stream(masker, records, 1024, 256, 100)

    def test_duplicate_names_rejected(self, masker):
        records = self._records()
        records[1].name = records[0].name
        with pytest.raises(ConfigurationError):
            _stream(masker, records, 1024, 256, 100)

    def test_each_record_equals_stream_record(self, masker):
        # stream_batch is stream_record mapped over the records, in
        # order: each result equals a direct stream of that record alone.
        records = self._records(n_records=3)
        batch = _stream(
            masker, records, segment_samples=1024, overlap_samples=256,
            chunk_samples=150,
        )
        assert [r.record.name for r in batch] == ["rec0", "rec1", "rec2"]
        for result, record in zip(batch, records):
            direct, _ = stream_record(
                masker, record.mixed, FS, record.f0_tracks,
                segment_samples=1024, overlap_samples=256, chunk_samples=150,
            )
            for source in ("a", "b"):
                assert np.array_equal(result.estimates[source], direct[source])

    def test_nonpositive_chunk_rejected(self, masker):
        for chunk in (0, -5):
            with pytest.raises(ConfigurationError, match="chunk_samples"):
                _stream(masker, self._records(), 1024, 256, chunk)

    def test_postprocess_applied_and_scoring_optional(self, masker):
        # Records without references are separated but not scored.
        records = [
            dataclasses.replace(record, references=None)
            for record in self._records()
        ]
        seen = []

        def double(estimate, record):
            seen.append(record.name)
            return 2.0 * estimate

        raw = _stream(masker, records, 1024, 256, 200)
        doubled = _stream(masker, records, 1024, 256, 200, postprocess=double)
        assert sorted(seen) == ["rec0", "rec0", "rec1", "rec1"]
        for plain, post in zip(raw, doubled):
            assert plain.scores == {} and post.scores == {}
            for source in ("a", "b"):
                assert np.array_equal(
                    post.estimates[source], 2.0 * plain.estimates[source]
                )
