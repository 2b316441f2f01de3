"""Tests for the SeparationService facade (repro.service.facade)."""

import numpy as np
import pytest

from repro.config import SCORING_BAND_HZ
from repro.dsp.filters import bandpass_filter
from repro.errors import ConfigurationError, DataError
from repro.pipeline import SeparationRecord, finalize_record
from repro.separation import Separator
from repro.service import (
    SeparationOutcome,
    SeparationService,
    SpectralMaskingSpec,
    as_record,
    build_separator,
)
from repro.streaming import stream_record
from repro.synth import make_mixture

SPEC = SpectralMaskingSpec(n_fft_seconds=2.0)


class MiscountingSeparator(Separator):
    """A ``separate_batch`` hook returning ``surplus`` estimates too many
    (too few when negative); module level, so workers can unpickle it."""

    name = "miscounting"

    def __init__(self, surplus: int):
        self.surplus = surplus

    def separate(self, mixed, sampling_hz, f0_tracks):
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        return {name: mixed.copy() for name in f0_tracks}

    def separate_batch(self, mixed_batch, sampling_hz, f0_tracks_batch):
        estimates = super().separate_batch(
            mixed_batch, sampling_hz, f0_tracks_batch
        )
        if self.surplus < 0:
            return estimates[: self.surplus]
        return estimates + estimates[: self.surplus]


@pytest.fixture(scope="module")
def mixtures():
    return [
        make_mixture("msig1", duration_s=12.0, seed=7),
        make_mixture("msig2", duration_s=12.0, seed=8),
    ]


@pytest.fixture(scope="module")
def records(mixtures):
    return [
        SeparationRecord(
            mixed=m.mixed, sampling_hz=m.sampling_hz,
            f0_tracks=m.f0_tracks, name=f"rec{i}", references=m.sources,
        )
        for i, m in enumerate(mixtures)
    ]


class TestOfflineMode:
    def test_identical_to_direct_separator(self, records):
        direct = build_separator(SPEC).separate(
            records[0].mixed, records[0].sampling_hz, records[0].f0_tracks
        )
        with SeparationService(SPEC) as service:
            outcome = service.separate(records[0])
        assert outcome.mode == "offline"
        assert outcome.spec == SPEC
        for source, estimate in direct.items():
            np.testing.assert_array_equal(outcome.estimates[source], estimate)

    def test_scores_when_references_present(self, records):
        outcome = SeparationService(SPEC).separate(records[0])
        assert set(outcome.scores) == set(records[0].f0_tracks)
        for sdr, err in outcome.scores.values():
            assert np.isfinite(sdr) and err >= 0

    def test_raw_field_call(self, mixtures):
        m = mixtures[0]
        outcome = SeparationService(SPEC).separate(
            mixed=m.mixed, sampling_hz=m.sampling_hz, f0_tracks=m.f0_tracks,
        )
        assert set(outcome.estimates) == set(m.f0_tracks)

    def test_detailed_dhf_outcome_carries_rounds(self):
        from repro.service import DHFSpec

        m = make_mixture("msig1", duration_s=8.0, seed=3)
        service = SeparationService(DHFSpec.from_preset("smoke"))
        outcome = service.separate(
            mixed=m.mixed, sampling_hz=m.sampling_hz,
            f0_tracks=m.f0_tracks, detailed=True,
        )
        assert outcome.detail is not None
        assert len(outcome.detail.rounds) == len(m.f0_tracks)

    def test_prebuilt_separator_escape_hatch(self, records):
        sep = build_separator(SPEC)
        service = SeparationService(sep)
        assert service.spec == sep.spec
        outcome = service.separate(records[0])
        assert outcome.separator_name == sep.name
        assert outcome.spec == sep.spec


class TestBatchMode:
    def test_identical_to_direct_batch_hook(self, records):
        separator = build_separator(SPEC)
        raw = separator.separate_batch(
            [r.mixed for r in records], records[0].sampling_hz,
            [r.f0_tracks for r in records],
        )
        direct = [
            finalize_record(separator.name, record, estimates)
            for record, estimates in zip(records, raw)
        ]
        with SeparationService(SPEC) as service:
            outcome = service.separate_batch(records)
        assert outcome.mode == "batch"
        assert len(outcome.batch) == len(direct)
        for ours, ref in zip(outcome.batch.results, direct):
            for source in ref.estimates:
                np.testing.assert_array_equal(
                    ours.estimates[source], ref.estimates[source]
                )
            assert ours.scores == ref.scores

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "sharded"])
    @pytest.mark.parametrize("surplus", [-1, 1], ids=["short", "long"])
    def test_wrong_estimate_count_names_the_separator(
        self, records, workers, surplus
    ):
        separator = MiscountingSeparator(surplus)
        with SeparationService(separator, workers=workers) as service:
            with pytest.raises(DataError, match="'miscounting' returned"):
                service.separate_batch(records)

    def test_serial_service_never_builds_an_engine(self, records):
        with SeparationService(SPEC, workers=1) as service:
            service.separate_batch(records)
            assert service._engine is None

    def test_postprocess_applies_everywhere(self, records):
        low, high = SCORING_BAND_HZ

        def to_band(est, record):
            return bandpass_filter(est, record.sampling_hz, low, high)

        with SeparationService(SPEC, postprocess=to_band) as service:
            single = service.separate(records[0])
            batch = service.separate_batch(records)
        source = records[0].source_names()[0]
        np.testing.assert_array_equal(
            single.estimates[source],
            batch.batch.results[0].estimates[source],
        )


class TestStreamMode:
    def test_identical_to_direct_streaming_engine(self, records):
        record = records[0]
        segment, overlap, chunk = 600, 300, 100
        direct, _ = stream_record(
            build_separator(SPEC), record.mixed, record.sampling_hz,
            record.f0_tracks, segment_samples=segment,
            overlap_samples=overlap, chunk_samples=chunk,
        )
        with SeparationService(SPEC) as service:
            outcome = service.stream(
                record, chunk_samples=chunk, segment_samples=segment,
                overlap_samples=overlap,
            )
        assert outcome.mode == "stream"
        for source, estimate in direct.items():
            np.testing.assert_array_equal(outcome.estimates[source], estimate)

    def test_default_geometry_degenerates_to_offline(self, records):
        record = records[0]
        direct = build_separator(SPEC).separate(
            record.mixed, record.sampling_hz, record.f0_tracks
        )
        outcome = SeparationService(SPEC).stream(record)
        for source, estimate in direct.items():
            assert np.abs(outcome.estimates[source] - estimate).max() <= 1e-12

    def test_stream_batch_matches_stream_record(self, records):
        segment, overlap, chunk = 600, 300, 100
        separator = build_separator(SPEC)
        direct = [
            finalize_record(separator.name, record, stream_record(
                separator, record.mixed, record.sampling_hz,
                record.f0_tracks, segment_samples=segment,
                overlap_samples=overlap, chunk_samples=chunk,
            )[0])
            for record in records
        ]
        with SeparationService(SPEC) as service:
            outcome = service.stream_batch(
                records, segment_samples=segment, overlap_samples=overlap,
                chunk_samples=chunk,
            )
        assert len(outcome.batch) == len(direct)
        for ours, ref in zip(outcome.batch.results, direct):
            for source in ref.estimates:
                np.testing.assert_array_equal(
                    ours.estimates[source], ref.estimates[source]
                )
            assert ours.scores == ref.scores

    def test_stream_batch_scores_every_record(self, records):
        with SeparationService(SPEC) as service:
            outcome = service.stream_batch(
                records, segment_samples=600, overlap_samples=300,
                chunk_samples=100,
            )
        assert outcome.mode == "stream"
        assert [r.record.name for r in outcome.batch] == ["rec0", "rec1"]
        for result in outcome.batch:
            for source in result.record.source_names():
                assert result.estimates[source].size == result.record.n_samples
                sdr, err = result.scores[source]
                assert np.isfinite(sdr) and err >= 0

    def test_stream_batch_of_no_records(self):
        with SeparationService(SPEC) as service:
            outcome = service.stream_batch(
                [], segment_samples=600, overlap_samples=300,
                chunk_samples=100,
            )
        assert outcome.mode == "stream"
        assert len(outcome.batch) == 0


class TestDHFAllModes:
    """Acceptance: one DHFSpec, service vs direct paths, all modes."""

    def test_service_matches_direct_paths_to_1e12(self):
        from repro.service import DHFSpec

        spec = DHFSpec.from_preset("smoke")
        m = make_mixture("msig1", duration_s=8.0, seed=5)
        record = SeparationRecord(
            mixed=m.mixed, sampling_hz=m.sampling_hz,
            f0_tracks=m.f0_tracks, name="dhf-accept",
        )
        segment, overlap, chunk = record.n_samples, 200, 100

        direct_offline = build_separator(spec).separate(
            record.mixed, record.sampling_hz, record.f0_tracks
        )
        (direct_batch,) = build_separator(spec).separate_batch(
            [record.mixed], record.sampling_hz, [record.f0_tracks]
        )
        direct_stream, _ = stream_record(
            build_separator(spec), record.mixed, record.sampling_hz,
            record.f0_tracks, segment_samples=segment,
            overlap_samples=overlap, chunk_samples=chunk,
        )

        with SeparationService(spec) as service:
            offline = service.separate(record)
            batch = service.separate_batch([record])
            stream = service.stream(
                record, chunk_samples=chunk, segment_samples=segment,
                overlap_samples=overlap,
            )

        for source in record.source_names():
            for got, ref, mode in (
                (offline.estimates[source], direct_offline[source],
                 "offline"),
                (batch.batch.results[0].estimates[source],
                 direct_batch[source], "batch"),
                (stream.estimates[source], direct_stream[source], "stream"),
            ):
                err = float(np.abs(got - ref).max())
                assert err <= 1e-12, f"{mode}/{source}: {err:.2e}"


class TestOutcomeAndInputs:
    def test_outcome_needs_exactly_one_result(self, records):
        with pytest.raises(ConfigurationError):
            SeparationOutcome(
                separator_name="x", spec=None, mode="offline",
            )
        with pytest.raises(ConfigurationError):
            SeparationOutcome(
                separator_name="x", spec=None, mode="nope",
                record=object(),
            )

    def test_batch_outcome_rejects_single_record_accessors(self, records):
        outcome = SeparationService(SPEC).separate_batch(records)
        with pytest.raises(ConfigurationError):
            outcome.estimates
        with pytest.raises(ConfigurationError):
            outcome.scores
        summary = outcome.summary()
        assert set(summary) == {"maternal", "fetal"}

    def test_single_outcome_summary(self, records):
        outcome = SeparationService(SPEC).separate(records[0])
        summary = outcome.summary()
        assert set(summary) == set(records[0].f0_tracks)

    def test_as_record_coercions(self, mixtures):
        m = mixtures[0]
        record = as_record({
            "mixed": m.mixed, "sampling_hz": m.sampling_hz,
            "f0_tracks": m.f0_tracks,
        })
        assert isinstance(record, SeparationRecord)
        same = as_record(record)
        assert same is record
        with pytest.raises(ConfigurationError):
            as_record(3.14)
        with pytest.raises(ConfigurationError):
            as_record(mixed=m.mixed)
        # A ready record plus field kwargs would silently drop the
        # fields; it must raise instead.
        with pytest.raises(ConfigurationError, match="not both"):
            as_record(record, references=m.sources)

    def test_service_validates_arguments(self):
        with pytest.raises(ConfigurationError):
            SeparationService(SPEC, workers=-1)
        with pytest.raises(ConfigurationError):
            SeparationService(SPEC, executor="fork")

    def test_stream_rejects_explicit_zero_geometry(self, records):
        # Explicit zeros must hit the engine's validation, not be
        # silently replaced by the defaults.
        service = SeparationService(SPEC)
        with pytest.raises(ConfigurationError):
            service.stream(records[0], overlap_samples=0)
        with pytest.raises(ConfigurationError):
            service.stream(records[0], segment_samples=0)
        with pytest.raises(ConfigurationError):
            service.stream(records[0], chunk_samples=0)


class TestUseAfterClose:
    """Satellite hardening: a closed service refuses work, loudly."""

    def test_every_mode_refuses_after_close(self, records):
        service = SeparationService(SPEC)
        service.separate(records[0])  # warm and healthy before close
        service.close()
        assert service.closed is True
        for call in (
            lambda: service.separate(records[0]),
            lambda: service.separate_batch(records),
            lambda: service.stream(records[0], segment_samples=1024,
                                   overlap_samples=256),
            lambda: service.stream_batch(records, segment_samples=1024,
                                         overlap_samples=256,
                                         chunk_samples=256),
        ):
            with pytest.raises(RuntimeError, match="closed"):
                call()

    def test_close_is_idempotent(self, records):
        service = SeparationService(SPEC, workers=2)
        service.separate_batch(records)
        engine = service._engine
        service.close()
        service.close()  # no-op, no error
        assert service.closed is True
        assert engine.closed and service._engine is None

    def test_context_manager_exit_closes(self, records):
        with SeparationService(SPEC) as service:
            assert service.closed is False
        with pytest.raises(RuntimeError, match="create a new service"):
            service.separate(records[0])
