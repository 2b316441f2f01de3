"""Tests for the experiment runners (smoke scale).

The heavy end-to-end experiments are exercised by the benchmark harness;
here we verify the runner plumbing — score bookkeeping, aggregation,
rendering, paper-reference tables — on the smallest configurations.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentContext,
    PAPER_TABLE2,
    PAPER_TABLE2_AVERAGE,
    TABLE2_METHOD_ORDER,
    display_method_name,
    run_figure4,
    run_table1,
    run_table2,
    table2_specs,
)
from repro.experiments.table2 import Table2Result
from repro.service import build_separator


@pytest.fixture(scope="module")
def smoke():
    return ExperimentContext.from_name("smoke", seed=3)


class TestPaperReference:
    def test_table2_complete(self):
        # 12 separated sources x 7 methods, exactly as printed.
        assert len(PAPER_TABLE2) == 12
        for case, methods in PAPER_TABLE2.items():
            assert set(methods) == set(TABLE2_METHOD_ORDER), case

    def test_average_row_consistent(self):
        # The printed Average row should match recomputing it from the
        # printed per-case values with the paper's own rules (sanity of
        # our transcription; tolerance for print rounding).
        from repro.metrics import average_mse, average_sdr_db

        for method in TABLE2_METHOD_ORDER:
            sdrs = [PAPER_TABLE2[c][method][0] for c in PAPER_TABLE2]
            mses = [PAPER_TABLE2[c][method][1] for c in PAPER_TABLE2]
            avg_sdr = average_sdr_db(np.asarray(sdrs))
            ref_sdr = PAPER_TABLE2_AVERAGE[method][0]
            assert abs(avg_sdr - ref_sdr) < 1.0, method
            avg_mse = average_mse(np.asarray(mses))
            ref_mse = PAPER_TABLE2_AVERAGE[method][1]
            assert 0.3 < avg_mse / ref_mse < 3.0, method


class TestBuilders:
    def test_build_all_separators(self, smoke):
        methods = table2_specs(smoke.preset)
        assert list(methods) == list(TABLE2_METHOD_ORDER)

    def test_build_subset_preserves_order(self, smoke):
        methods = table2_specs(smoke.preset, include=("DHF", "EMD"))
        assert list(methods) == ["EMD", "DHF"]

    def test_include_accepts_registry_names(self, smoke):
        methods = table2_specs(
            smoke.preset, include=("spectral-masking", "emd"),
        )
        assert list(methods) == ["EMD", "Spect. Masking"]

    def test_include_unknown_name_suggests(self, smoke):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="did you mean"):
            table2_specs(smoke.preset, include=("Spect Masking",))

    @pytest.mark.parametrize("label", TABLE2_METHOD_ORDER)
    def test_every_label_builds_its_named_separator(self, smoke, label):
        spec = table2_specs(smoke.preset)[label]
        assert build_separator(spec).name == label

    def test_table2_specs_scale_dhf_only(self, smoke):
        specs = table2_specs(smoke.preset)
        assert list(specs) == list(TABLE2_METHOD_ORDER)
        assert specs["DHF"].samples_per_period == \
            smoke.preset.alignment.samples_per_period
        assert specs["EMD"].max_imfs == 10

    def test_display_method_name_round_trip(self):
        assert display_method_name("spectral-masking") == "Spect. Masking"
        assert display_method_name("REPET-Ext.") == "REPET-Ext."
        assert display_method_name("dhf") == "DHF"


class TestTable1Runner:
    def test_runs_and_renders(self, smoke):
        result = run_table1(smoke)
        text = result.render()
        assert "msig1" in text and "msig5" in text
        assert "respiration" in text
        for rows in result.measured_rows.values():
            for stats in rows.values():
                assert stats["rms"] > 0


class TestTable2Runner:
    def test_two_fast_methods(self, smoke):
        result = run_table2(
            smoke, mixtures=["msig1"],
            line_up=table2_specs(
                smoke.preset, include=("EMD", "Spect. Masking"),
            ),
        )
        assert set(result.scores) == {"EMD", "Spect. Masking"}
        assert len(result.scores["EMD"]) == 2
        averages = result.averages()
        assert all(np.isfinite(v[0]) for v in averages.values())
        text = result.render()
        assert "Average" in text

    def test_runs_from_method_names_and_custom_specs(self, smoke):
        from repro.service import SpectralMaskingSpec

        result = run_table2(
            smoke, mixtures=["msig1"],
            line_up={"custom": SpectralMaskingSpec(n_harmonics=4)},
        )
        assert set(result.scores) == {"custom"}
        assert len(result.scores["custom"]) == 2
        assert "custom" in result.render()

    def test_service_runs_names_and_specs_alike(self, smoke):
        from repro.experiments.common import records_from_mixtures
        from repro.service import SeparationService, SpectralMaskingSpec

        records, _ = records_from_mixtures(["msig1"], smoke)
        with SeparationService("spectral-masking") as service:
            by_name = service.separate_batch(records).batch
        with SeparationService(SpectralMaskingSpec()) as service:
            by_spec = service.separate_batch(records).batch
        assert by_name.separator_name == by_spec.separator_name
        source = records[0].source_names()[0]
        np.testing.assert_array_equal(
            by_name.results[0].estimates[source],
            by_spec.results[0].estimates[source],
        )

    def test_best_previous_excludes_dhf(self):
        result = Table2Result(
            scores={
                "DHF": {("m", 0): (20.0, 1e-5)},
                "EMD": {("m", 0): (1.0, 1e-3)},
                "VMD": {("m", 0): (5.0, 1e-4)},
            },
            source_labels={("m", 0): "s"},
            preset_name="test",
        )
        name, sdr = result.best_previous(("m", 0))
        assert name == "VMD" and sdr == 5.0
        claims = result.headline_claims()
        assert claims["sdr_improvement_db"] == pytest.approx(15.0)
        assert claims["mse_reduction_pct"] == pytest.approx(90.0)


class TestFigure4Runner:
    def test_runs_and_exports(self, smoke, tmp_path):
        result = run_figure4(smoke)
        assert set(result.stats) == {
            "msig1", "msig2", "msig3", "msig4", "msig5",
        }
        text = result.render()
        assert "ridge" in text or "peak" in text
        path = result.export_npz(str(tmp_path / "fig4.npz"))
        archive = np.load(path)
        assert "msig1_magnitude" in archive


class TestFigure3Runner:
    def test_fits_dhf_own_round_at_fast(self, monkeypatch):
        """Fig. 3 in-paints the spectrogram DHF prepares for the round.

        At ``fast`` DHF's hop is the preset's one 24-sample period, not
        48 samples.
        """
        import repro.experiments.figure3 as figure3
        from repro.config import get_preset
        from repro.core.alignment import unwarp
        from repro.dsp.stft import stft
        from repro.synth import make_mixture

        class Captured(Exception):
            pass

        shapes = []

        def capture(magnitude, visibility, config, **kwargs):
            shapes.append(magnitude.shape)
            raise Captured

        monkeypatch.setattr(figure3, "inpaint_spectrogram", capture)
        preset = get_preset("fast").scaled(signal_duration_s=12.0)
        with pytest.raises(Captured):
            figure3.run_figure3(ExperimentContext(preset=preset, seed=3))

        mixture = make_mixture("msig1", duration_s=12.0, seed=3)
        spp = preset.alignment.samples_per_period
        alignment = unwarp(
            mixture.mixed, mixture.sampling_hz,
            mixture.f0_tracks["maternal"], spp,
        )

        def shape(hop):
            return stft(
                alignment.samples, alignment.sampling_hz,
                n_fft=spp * preset.alignment.periods_per_window, hop=hop,
            ).magnitude.shape

        assert shape(24) != shape(48)
        assert shapes == [shape(24)]
