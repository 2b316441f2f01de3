"""Tests for record sets: records, the serial batch rule, scoring.

Record sets run through :meth:`repro.service.SeparationService.
separate_batch`; :func:`_batch` opens one service per call.
"""

import numpy as np
import pytest

from repro.baselines import SpectralMaskingSeparator
from repro.errors import ConfigurationError, DataError, ShapeError
from repro.metrics import average_mse, average_sdr_db, mse, sdr_db
from repro.pipeline import (
    BatchResult,
    SeparationRecord,
    records_from_arrays,
)
from repro.pipeline.batch import separate_records
from repro.separation import Separator
from repro.service import SeparationService
from repro.synth import make_mixture

FS = 100.0


def _batch(separator, records, **service_kwargs):
    """A record set through one service's ``separate_batch``."""
    with SeparationService(separator, **service_kwargs) as service:
        return service.separate_batch(records).batch


class ScaleSeparator(Separator):
    """Deterministic toy separator: source k gets mixed / (k + 1)."""

    name = "scale"

    def separate(self, mixed, sampling_hz, f0_tracks):
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        return {
            name: mixed / (k + 1.0)
            for k, name in enumerate(f0_tracks)
        }


def _records(n_records, n_samples=400, sources=("a", "b"), with_refs=True,
             seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_records):
        mixed = rng.standard_normal(n_samples)
        tracks = {
            name: np.full(n_samples, 1.0 + 0.5 * k)
            for k, name in enumerate(sources)
        }
        refs = None
        if with_refs:
            refs = {
                name: mixed / (k + 1.0) + 0.01 * rng.standard_normal(n_samples)
                for k, name in enumerate(sources)
            }
        records.append(SeparationRecord(
            mixed=mixed, sampling_hz=FS, f0_tracks=tracks,
            name=f"rec{i}", references=refs,
        ))
    return records


class TestSeparationRecord:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SeparationRecord(np.ones(10), -1.0, {"a": np.ones(10)})
        with pytest.raises(ConfigurationError):
            SeparationRecord(np.ones(10), FS, {})

    @pytest.mark.parametrize("mixed, rate, track, error", [
        (np.r_[np.ones(9), np.nan], FS, np.ones(10), DataError),
        (np.ones(10), float("nan"), np.ones(10), ConfigurationError),
        (np.ones(10), FS, np.ones(4), DataError),
        (np.ones(10), FS, np.zeros(10), DataError),
        (np.ones(10), FS, np.r_[np.ones(9), np.nan], DataError),
    ], ids=["nan-sample", "nan-rate", "short-f0", "zero-f0", "nan-f0"])
    def test_rejects_what_separators_reject(self, mixed, rate, track, error):
        with pytest.raises(error):
            SeparationRecord(mixed, rate, {"a": track})

    @pytest.mark.parametrize("reference, error", [
        (np.r_[np.ones(9), np.nan], DataError),
        (np.r_[np.ones(9), np.inf], DataError),
        (np.ones(7), ShapeError),
        (np.ones(11), ShapeError),
        (np.ones((2, 10)), ShapeError),
        (np.ones(0), DataError),
    ], ids=["nan", "inf", "short", "long", "2-d", "empty"])
    def test_references_follow_the_mixed_rule(self, reference, error):
        with pytest.raises(error, match="reference 'a'"):
            SeparationRecord(
                np.ones(10), FS, {"a": np.ones(10)},
                references={"a": reference},
            )

    def test_records_from_arrays_shared_tracks(self):
        mixed = np.random.default_rng(0).standard_normal((3, 50))
        tracks = {"a": np.ones(50)}
        records = records_from_arrays(mixed, FS, tracks)
        assert [r.name for r in records] == ["record0", "record1", "record2"]
        assert all(r.f0_tracks is tracks for r in records)

    def test_records_from_arrays_mismatched_tracks(self):
        mixed = np.ones((2, 50))
        with pytest.raises(ConfigurationError):
            records_from_arrays(mixed, FS, [{"a": np.ones(50)}])

    def test_records_from_arrays_mismatched_names(self):
        mixed = np.ones((2, 50))
        with pytest.raises(ConfigurationError):
            records_from_arrays(mixed, FS, {"a": np.ones(50)},
                                names=["only_one"])


class TestPipelineExecution:
    def test_empty_batch(self):
        result = _batch(ScaleSeparator(), [])
        assert isinstance(result, BatchResult)
        assert len(result) == 0
        assert result.summary() == {}
        assert result.case_scores() == {}

    def test_single_record(self):
        records = _records(1)
        result = _batch(ScaleSeparator(), records)
        assert len(result) == 1
        np.testing.assert_allclose(
            result.results[0].estimates["a"], records[0].mixed
        )
        np.testing.assert_allclose(
            result.results[0].estimates["b"], records[0].mixed / 2.0
        )

    def test_batch_matches_sequential(self):
        records = _records(6)
        sep = ScaleSeparator()
        sequential = [
            sep.separate(r.mixed, r.sampling_hz, r.f0_tracks)
            for r in records
        ]
        batch = _batch(sep, records)
        for seq, res in zip(sequential, batch.results):
            for source in seq:
                np.testing.assert_array_equal(seq[source],
                                              res.estimates[source])

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_workers_match_serial_even_when_more_than_records(self, workers):
        records = _records(4)
        sep = ScaleSeparator()
        serial = _batch(sep, records)
        pooled = _batch(sep, records, workers=workers)
        assert len(pooled) == len(serial) == 4
        for a, b in zip(serial.results, pooled.results):
            assert a.name == b.name
            for source in a.estimates:
                np.testing.assert_array_equal(a.estimates[source],
                                              b.estimates[source])

    def test_process_fanout(self):
        # module-level separator class → picklable
        pooled = _batch(
            SpectralMaskingSeparator(), _mixture_records(2), workers=2,
        )
        assert len(pooled) == 2

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SeparationService(ScaleSeparator(), workers=-1)
        with pytest.raises(ConfigurationError):
            SeparationService(object())

    def test_missing_estimate_raises(self):
        class Lossy(ScaleSeparator):
            def separate(self, mixed, sampling_hz, f0_tracks):
                out = super().separate(mixed, sampling_hz, f0_tracks)
                out.pop("b")
                return out

        with pytest.raises(DataError):
            _batch(Lossy(), _records(2))

    def test_mixed_sampling_rates_grouped(self):
        r1 = _records(2, seed=1)
        r2 = _records(1, seed=2)
        for r in r2:
            r.sampling_hz = 50.0
        batch = _batch(ScaleSeparator(), r1 + r2)
        assert [r.name for r in batch.results] == ["rec0", "rec1", "rec0"]

    def test_serial_rule_is_one_batch_call_per_rate(self):
        # 50 Hz, FS, 50 Hz, FS: two separate_batch calls (one per rate,
        # in first-seen order), each with its whole rate group, and the
        # estimates come back in input order.
        calls = []

        class Recording(ScaleSeparator):
            def separate_batch(self, mixed_batch, sampling_hz, tracks):
                calls.append((sampling_hz, len(mixed_batch)))
                return super().separate_batch(mixed_batch, sampling_hz, tracks)

        records = _records(4, seed=3)
        for r in records[::2]:
            r.sampling_hz = 50.0
        estimates = separate_records(Recording(), records)
        assert calls == [(50.0, 2), (FS, 2)]
        for record, estimate in zip(records, estimates):
            np.testing.assert_array_equal(estimate["a"], record.mixed)
        assert separate_records(Recording(), []) == []
        assert len(calls) == 2


class TestScoringAndAggregation:
    def test_scores_match_direct_metrics(self):
        records = _records(3)
        batch = _batch(ScaleSeparator(), records)
        for r in batch.results:
            for k, source in enumerate(r.record.source_names()):
                est = r.estimates[source]
                ref = r.record.references[source]
                assert r.scores[source][0] == pytest.approx(sdr_db(est, ref))
                assert r.scores[source][1] == pytest.approx(mse(est, ref))

    def test_summary_uses_paper_rules(self):
        batch = _batch(ScaleSeparator(), _records(4))
        by_source = batch.scores_by_source()
        summary = batch.summary()
        for source, scores in by_source.items():
            sdrs = np.array([s[0] for s in scores])
            mses = np.array([s[1] for s in scores])
            assert summary[source][0] == pytest.approx(average_sdr_db(sdrs))
            assert summary[source][1] == pytest.approx(average_mse(mses))

    def test_no_references_no_scores(self):
        batch = _batch(ScaleSeparator(), _records(2, with_refs=False))
        assert all(r.scores == {} for r in batch.results)
        assert batch.summary() == {}

    def test_postprocess_applied_before_scoring(self):
        records = _records(2)
        batch = _batch(
            ScaleSeparator(), records,
            postprocess=lambda est, record: est * 0.0,
        )
        for r in batch.results:
            np.testing.assert_array_equal(r.estimates["a"],
                                          np.zeros_like(r.estimates["a"]))

    def test_case_scores_keys(self):
        batch = _batch(ScaleSeparator(), _records(2))
        keys = set(batch.case_scores())
        assert keys == {("rec0", 0), ("rec0", 1), ("rec1", 0), ("rec1", 1)}

    def test_case_scores_unnamed_records_not_dropped(self):
        records = _records(2)
        for r in records:
            r.name = ""
        batch = _batch(ScaleSeparator(), records)
        assert set(batch.case_scores()) == {
            ("record0", 0), ("record0", 1), ("record1", 0), ("record1", 1)
        }

    def test_case_scores_fallback_avoids_explicit_name(self):
        records = _records(2)
        records[0].name = "record1"  # collides with index-1 fallback
        records[1].name = ""
        batch = _batch(ScaleSeparator(), records)
        keys = {k[0] for k in batch.case_scores()}
        assert keys == {"record1", "record1_"}

    def test_case_scores_duplicate_names_raise(self):
        records = _records(2)
        for r in records:
            r.name = "same"
        batch = _batch(ScaleSeparator(), records)
        with pytest.raises(DataError):
            batch.case_scores()


def _mixture_records(n, duration_s=15.0):
    records = []
    for i in range(n):
        m = make_mixture("msig1", duration_s=duration_s, seed=100 + i)
        records.append(SeparationRecord(
            mixed=m.mixed, sampling_hz=m.sampling_hz,
            f0_tracks=m.f0_tracks, name=f"mix{i}", references=m.sources,
        ))
    return records


class TestVectorizedSpectralMasking:
    """The baselines' vectorized batch path must equal per-record output."""

    def test_batch_equals_sequential(self):
        records = _mixture_records(3)
        sep = SpectralMaskingSeparator()
        sequential = [
            sep.separate(r.mixed, r.sampling_hz, r.f0_tracks)
            for r in records
        ]
        batched = sep.separate_batch(
            [r.mixed for r in records],
            records[0].sampling_hz,
            [r.f0_tracks for r in records],
        )
        for seq, bat in zip(sequential, batched):
            assert set(seq) == set(bat)
            for source in seq:
                np.testing.assert_allclose(bat[source], seq[source],
                                           atol=1e-10)

    def test_unequal_lengths_fall_back(self):
        records = _mixture_records(2)
        short = make_mixture("msig1", duration_s=10.0, seed=5)
        sep = SpectralMaskingSeparator()
        batched = sep.separate_batch(
            [records[0].mixed, short.mixed],
            FS,
            [records[0].f0_tracks, short.f0_tracks],
        )
        assert len(batched) == 2
        direct = sep.separate(short.mixed, FS, short.f0_tracks)
        for source in direct:
            np.testing.assert_allclose(batched[1][source], direct[source],
                                       atol=1e-10)
