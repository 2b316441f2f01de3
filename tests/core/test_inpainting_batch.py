"""Property tests for the stacked in-painting API and its edge cases.

The contracts pinned here are the ones the fit engine documents
(docs/architecture.md, "Deep-prior fitting engine"):

* seeded determinism — same rngs, same results, one record or a stack;
* stack-vs-one-record equivalence at a fixed iteration count (float64
  fits agree to ``<= 1e-8`` max absolute output deviation);
* early stopping rolls each record back to its recorded loss minimum, so
  no recorded loss after ``stop_iteration`` is below it, and the DHF
  config's early stop reaches every path (offline, batch, stream,
  monitor);
* degenerate inputs (all-visible and all-concealed masks, zero-length or
  single-frame spectrograms) raise :class:`repro.errors.DataError`
  instead of silently fitting noise.
"""

import numpy as np
import pytest

from repro.core import (
    DHFSeparator,
    EarlyStopConfig,
    InpaintingConfig,
    inpaint_spectrogram,
    inpaint_spectrograms,
)
from repro.errors import ConfigurationError, DataError, ShapeError
from repro.service import DHFSpec
from repro.streaming import stream_record
from repro.synth import make_mixture
from repro.tfo import SpO2Monitor

#: float64 keeps a record's one-record and stacked trajectories
#: numerically locked for the whole fit (float32 fits decorrelate after
#: ~50 iterations; see the architecture docs).
TINY64 = InpaintingConfig(
    iterations=30, learning_rate=1e-2, base_channels=4, depth=2,
    in_channels=4, time_dilation=3, dtype=np.float64,
)

#: Documented stack-vs-one-record output tolerance for float64 fits.
BATCH_ATOL = 1e-8


def harmonic_batch(n_records, n_freq=33, n_frames=24, seed=0):
    """Synthetic harmonic-ridge magnitudes with concealed time bands."""
    rng = np.random.default_rng(seed)
    magnitudes, visibilities = [], []
    for _ in range(n_records):
        magnitude = np.full((n_freq, n_frames), 0.01)
        for harmonic in (4, 8, 12, 16):
            magnitude[harmonic] += 1.0 + 0.2 * np.sin(
                np.arange(n_frames) / rng.uniform(3, 5)
            )
        visibility = np.ones((n_freq, n_frames), dtype=bool)
        start = int(rng.integers(6, 12))
        visibility[:, start: start + 6] = False
        magnitudes.append(magnitude)
        visibilities.append(visibility)
    return magnitudes, visibilities


class TestSeededDeterminism:
    def test_batched_runs_identical(self):
        magnitudes, visibilities = harmonic_batch(3)
        first = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[5, 6, 7]
        )
        second = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[5, 6, 7]
        )
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.output, b.output)
            np.testing.assert_array_equal(a.losses, b.losses)

    def test_earlier_batches_leave_no_trace(self):
        magnitudes, visibilities = harmonic_batch(2)
        first = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[5, 6]
        )
        others, other_visibilities = harmonic_batch(3, seed=4)
        inpaint_spectrograms(others, other_visibilities, TINY64,
                             rngs=[5, 6, 7])
        again = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[5, 6]
        )
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.output, b.output)
            np.testing.assert_array_equal(a.losses, b.losses)

    def test_different_seeds_differ(self):
        magnitudes, visibilities = harmonic_batch(2)
        a, b = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[1, 2]
        )
        assert np.abs(a.output - b.output).max() > 0


class TestBatchedSequentialEquivalence:
    def test_outputs_match_within_documented_tolerance(self):
        magnitudes, visibilities = harmonic_batch(4)
        sequential = [
            inpaint_spectrogram(mag, vis, TINY64, rng=20 + k)
            for k, (mag, vis) in enumerate(zip(magnitudes, visibilities))
        ]
        batched = inpaint_spectrograms(
            magnitudes, visibilities, TINY64,
            rngs=[20 + k for k in range(4)],
        )
        for seq, bat in zip(sequential, batched):
            assert np.abs(seq.output - bat.output).max() <= BATCH_ATOL
            assert np.abs(seq.losses - bat.losses).max() <= BATCH_ATOL
            assert seq.losses.size == bat.losses.size == TINY64.iterations
            assert bat.stop_iteration is None

    def test_concealed_error_tracking_matches(self):
        magnitudes, visibilities = harmonic_batch(2)
        sequential = [
            inpaint_spectrogram(mag, vis, TINY64, rng=k, reference=mag)
            for k, (mag, vis) in enumerate(zip(magnitudes, visibilities))
        ]
        batched = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[0, 1],
            references=magnitudes,
        )
        for seq, bat in zip(sequential, batched):
            assert bat.concealed_errors is not None
            np.testing.assert_allclose(
                bat.concealed_errors, seq.concealed_errors, atol=BATCH_ATOL
            )


class TestEarlyStoppingMonotonicity:
    def test_loss_never_below_recorded_stop(self):
        magnitudes, visibilities = harmonic_batch(3)
        early = EarlyStopConfig(patience=2, rel_tol=0.5, min_iterations=1)
        results = inpaint_spectrograms(
            magnitudes, visibilities, TINY64, rngs=[1, 2, 3],
            early_stop=early,
        )
        for fit in results:
            assert fit.stop_iteration is not None
            assert fit.losses.size < TINY64.iterations
            assert fit.stop_iteration == int(np.argmin(fit.losses))
            tail = fit.losses[fit.stop_iteration:]
            assert tail.min() >= fit.losses[fit.stop_iteration]

    def test_disabled_early_stop_runs_full_budget(self):
        magnitudes, visibilities = harmonic_batch(1, seed=9)
        # A 1-record batch still exercises the stacked engine directly.
        fit = inpaint_spectrograms(magnitudes, visibilities, TINY64,
                                   rngs=[0])[0]
        assert fit.losses.size == TINY64.iterations
        assert fit.stop_iteration is None


class TestEdgeCases:
    @pytest.fixture
    def record(self):
        magnitudes, visibilities = harmonic_batch(1)
        return magnitudes[0], visibilities[0]

    def test_all_visible_raises(self, record):
        magnitude, _ = record
        all_visible = np.ones_like(magnitude, dtype=bool)
        with pytest.raises(DataError, match="nothing to in-paint"):
            inpaint_spectrogram(magnitude, all_visible, TINY64)
        with pytest.raises(DataError, match="nothing to in-paint"):
            inpaint_spectrograms([magnitude], [all_visible], TINY64)

    def test_all_concealed_raises(self, record):
        magnitude, _ = record
        concealed = np.zeros_like(magnitude, dtype=bool)
        with pytest.raises(DataError, match="conceals everything"):
            inpaint_spectrogram(magnitude, concealed, TINY64)
        with pytest.raises(DataError, match="conceals everything"):
            inpaint_spectrograms([magnitude], [concealed], TINY64)

    @pytest.mark.parametrize("n_frames", [0, 1])
    def test_degenerate_frame_axis_raises(self, n_frames):
        magnitude = np.ones((8, n_frames))
        visibility = np.ones((8, n_frames), dtype=bool)
        with pytest.raises(DataError):
            inpaint_spectrogram(magnitude, visibility, TINY64)
        with pytest.raises(DataError):
            inpaint_spectrograms([magnitude], [visibility], TINY64)

    def test_empty_batch_raises(self):
        with pytest.raises(ConfigurationError):
            inpaint_spectrograms([], [], TINY64)

    def test_mismatched_batch_shapes_raise(self, record):
        magnitude, visibility = record
        other = magnitude[:, :12]
        with pytest.raises(ShapeError, match="group records"):
            inpaint_spectrograms(
                [magnitude, other], [visibility, visibility[:, :12]], TINY64
            )

    def test_mismatched_lengths_raise(self, record):
        magnitude, visibility = record
        with pytest.raises(ShapeError):
            inpaint_spectrograms([magnitude], [visibility, visibility],
                                 TINY64)
        with pytest.raises(ShapeError):
            inpaint_spectrograms([magnitude], [visibility], TINY64,
                                 rngs=[1, 2])
        with pytest.raises(ShapeError):
            inpaint_spectrograms([magnitude], [visibility], TINY64,
                                 references=[magnitude, magnitude])


class TestDHFBatchedSeparation:
    """DHF routing: sibling records share batched fits, semantics hold."""

    @pytest.fixture(scope="class")
    def mixtures(self):
        return [
            make_mixture("msig1", duration_s=10.0, seed=s) for s in (1, 2)
        ]

    def test_batch_matches_sequential_records(self, mixtures):
        dhf = DHFSeparator(DHFSpec.from_preset("smoke"))
        fs = mixtures[0].sampling_hz
        mixed = [m.mixed for m in mixtures]
        tracks = [m.f0_tracks for m in mixtures]
        sequential = [dhf.separate(x, fs, t) for x, t in zip(mixed, tracks)]
        batched = dhf.separate_batch(mixed, fs, tracks)
        for seq, bat in zip(sequential, batched):
            assert set(seq) == set(bat)
            for source in seq:
                scale = max(np.abs(seq[source]).max(), 1e-12)
                err = np.abs(seq[source] - bat[source]).max() / scale
                # float32 fits at smoke scale: trajectories match to a
                # far tighter tolerance than any scoring difference.
                assert err <= 1e-5, f"{source}: {err:.2e}"

    def test_single_record_batch_is_bitwise_sequential(self, mixtures):
        dhf = DHFSeparator(DHFSpec.from_preset("smoke"))
        m = mixtures[0]
        direct = dhf.separate(m.mixed, m.sampling_hz, m.f0_tracks)
        batch = dhf.separate_batch([m.mixed], m.sampling_hz, [m.f0_tracks])
        for source in direct:
            np.testing.assert_array_equal(batch[0][source], direct[source])

    def test_repeat_separation_starts_cold(self, mixtures):
        """One separator, reused: its estimates for a record do not
        depend on what it separated before."""
        dhf = DHFSeparator(DHFSpec.from_preset("smoke"))
        first, other = mixtures
        before = dhf.separate(first.mixed, first.sampling_hz,
                              first.f0_tracks)
        dhf.separate(other.mixed, other.sampling_hz, other.f0_tracks)
        after = dhf.separate(first.mixed, first.sampling_hz,
                             first.f0_tracks)
        assert set(before) == set(after)
        for source in before:
            np.testing.assert_array_equal(before[source], after[source])

    def test_detailed_batch_carries_diagnostics(self, mixtures):
        dhf = DHFSeparator(DHFSpec.from_preset("smoke"))
        fs = mixtures[0].sampling_hz
        results = dhf.separate_batch_detailed(
            [m.mixed for m in mixtures], fs,
            [m.f0_tracks for m in mixtures],
            reference_sources_batch=[m.sources for m in mixtures],
        )
        assert len(results) == len(mixtures)
        for result, mixture in zip(results, mixtures):
            assert set(result.estimates) == set(mixture.f0_tracks)
            assert len(result.rounds) == len(mixture.f0_tracks)
            for round_result in result.rounds:
                assert round_result.masked_energy_ratio is not None
            total = result.residual + sum(result.estimates.values())
            np.testing.assert_allclose(total, mixture.mixed, atol=1e-9)

    def test_config_knobs_validated(self):
        with pytest.raises(ConfigurationError):
            DHFSpec(early_stop_patience=-1)
        with pytest.raises(ConfigurationError):
            DHFSpec(early_stop_patience=5, early_stop_rel_tol=2.0)
        cfg = DHFSpec(early_stop_patience=5)
        assert cfg.early_stop() == EarlyStopConfig(patience=5, rel_tol=1e-3)
        assert DHFSpec().early_stop() is None


class TestEarlyStopOnEveryPath:
    """``early_stop_patience`` means the same on every DHF path.

    A criterion demanding a 50% loss drop per iteration stops every fit
    soon after ``min_iterations``, well inside the smoke budget.
    """

    CONFIG = DHFSpec.from_preset(
        "smoke", early_stop_patience=1, early_stop_rel_tol=0.5,
    )

    @pytest.fixture(scope="class")
    def mixtures(self):
        return [
            make_mixture("msig1", duration_s=10.0, seed=s) for s in (1, 2)
        ]

    @pytest.fixture
    def fit_calls(self, monkeypatch):
        """Spy on DHF's fit entry point: ``(early_stop, results)`` per call."""
        import repro.core.dhf as dhf_module

        calls = []
        real = dhf_module.inpaint_spectrograms

        def spy(*args, **kwargs):
            results = real(*args, **kwargs)
            calls.append((kwargs.get("early_stop"), results))
            return results

        monkeypatch.setattr(dhf_module, "inpaint_spectrograms", spy)
        return calls

    def assert_fits_stopped_early(self, calls):
        assert calls, "no deep-prior fit went through inpaint_spectrograms"
        for early_stop, results in calls:
            assert early_stop == self.CONFIG.early_stop()
            for fit in results:
                assert fit.stop_iteration is not None

    def test_separate_and_batch_run_equal_iterations(self, mixtures):
        dhf = DHFSeparator(self.CONFIG)
        m = mixtures[0]
        single = dhf.separate_detailed(m.mixed, m.sampling_hz, m.f0_tracks)
        # Same tracks, so every round of the two records shares one
        # geometry and runs as one stacked fit.
        batch = dhf.separate_batch_detailed(
            [m.mixed, 1.1 * m.mixed], m.sampling_hz,
            [m.f0_tracks, m.f0_tracks],
        )[0]
        counts = [r.losses.size for r in single.rounds]
        assert counts == [r.losses.size for r in batch.rounds]
        assert max(counts) < self.CONFIG.iterations

    def test_separate(self, mixtures, fit_calls):
        m = mixtures[0]
        DHFSeparator(self.CONFIG).separate(m.mixed, m.sampling_hz, m.f0_tracks)
        self.assert_fits_stopped_early(fit_calls)

    def test_streaming_segments(self, mixtures, fit_calls):
        m = mixtures[0]
        n = m.mixed.size
        stream_record(
            DHFSeparator(self.CONFIG), m.mixed, m.sampling_hz, m.f0_tracks,
            segment_samples=n, overlap_samples=n // 4, chunk_samples=n // 3,
        )
        self.assert_fits_stopped_early(fit_calls)

    def test_spo2_monitor(self, mixtures, fit_calls):
        m = mixtures[0]
        n = m.mixed.size
        dc = np.full(n, 10.0)
        with SpO2Monitor(DHFSeparator(self.CONFIG), m.sampling_hz,
                         segment_samples=n, overlap_samples=n // 4) as monitor:
            monitor.push({740: m.mixed + dc, 850: m.mixed + dc},
                         {740: dc, 850: dc}, m.f0_tracks)
        self.assert_fits_stopped_early(fit_calls)
