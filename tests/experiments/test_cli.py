"""Tests for the experiments CLI."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import (
    RUNNERS,
    build_parser,
    main,
    parse_spec_argument,
    render_methods,
)
from repro.service import SpectralMaskingSpec, available_separators


def test_parser_artefacts_complete():
    parser = build_parser()
    args = parser.parse_args(["table1", "--preset", "smoke"])
    assert args.artefact == "table1"
    assert args.preset == "smoke"


def test_all_paper_artefacts_registered():
    expected = {"table1", "table2", "figure3", "figure4", "figure5",
                "figure6", "figure7", "monitor"}
    assert expected <= set(RUNNERS)


def test_unknown_artefact_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure99"])


def test_main_runs_table1(capsys, tmp_path):
    out_file = tmp_path / "t1.txt"
    code = main(["table1", "--preset", "smoke", "--seed", "1",
                 "--output", str(out_file)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "Table 1" in captured
    assert out_file.read_text().strip()


def test_main_runs_figure4(capsys):
    assert main(["figure4", "--preset", "smoke"]) == 0
    assert "Fig. 4" in capsys.readouterr().out


class TestMethodsCommand:
    def test_lists_every_registered_separator(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in available_separators():
            assert name in out
        # Spec fields and defaults are part of the listing.
        assert "n_fft_seconds=12.0" in out
        assert "DHFSpec" in out

    def test_render_methods_mentions_aliases(self):
        text = render_methods()
        assert "Spect. Masking" in text
        assert "REPET-Ext." in text


class TestMethodAndSpecFlags:
    def test_method_flag_runs_single_method(self, capsys):
        assert main([
            "table2", "--preset", "smoke", "--method", "spectral-masking",
        ]) == 0
        out = capsys.readouterr().out
        assert "Spect. Masking" in out
        assert "EMD" not in out

    def test_method_flag_rejects_unknown_with_suggestion(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            main(["table2", "--preset", "smoke", "--method", "dfh"])

    def test_method_flag_requires_table2(self):
        with pytest.raises(ConfigurationError, match="table2"):
            main(["table1", "--preset", "smoke", "--method", "emd"])

    def test_spec_flag_inline_json(self, capsys):
        spec = {"method": "spectral-masking", "n_harmonics": 4}
        assert main([
            "table2", "--preset", "smoke", "--spec", json.dumps(spec),
        ]) == 0
        out = capsys.readouterr().out
        assert "Spect. Masking (spec)" in out

    def test_spec_flag_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"method": "emd", "max_imfs": 4}))
        spec = parse_spec_argument(f"@{path}")
        assert spec.max_imfs == 4

    def test_spec_flag_rejects_bad_json(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            parse_spec_argument("{not json")
        with pytest.raises(ConfigurationError, match="object"):
            parse_spec_argument('["emd"]')

    def test_spec_flag_missing_file_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="cannot be read"):
            parse_spec_argument("@/nonexistent/spec.json")

    def test_spec_equivalent_to_spec_object(self):
        spec = parse_spec_argument(
            '{"method": "spectral-masking", "hop_fraction": 0.5}'
        )
        assert spec == SpectralMaskingSpec(hop_fraction=0.5)

    def test_figure6_method_flag_runs_subset(self, capsys):
        assert main([
            "figure6", "--preset", "smoke", "--method", "spectral-masking",
        ]) == 0
        out = capsys.readouterr().out
        assert "Spect. Masking" in out
        # No DHF table row (the title always names both methods).
        assert "| DHF" not in out

    def test_figure6_spec_flag(self, capsys):
        spec = {"method": "spectral-masking", "n_harmonics": 2}
        assert main([
            "figure6", "--preset", "smoke", "--method", "spectral-masking",
            "--spec", json.dumps(spec),
        ]) == 0
        out = capsys.readouterr().out
        assert "Spect. Masking (spec)" in out

    def test_zoo_flag_is_a_usage_error(self, capsys, tmp_path):
        # DHF fits always start cold, so there is no --zoo flag:
        # argparse refuses it before any artefact runs.
        with pytest.raises(SystemExit) as exit_info:
            main(["table2", "--preset", "smoke", "--method", "dhf",
                  "--zoo", str(tmp_path / "zoo")])
        assert exit_info.value.code == 2
        assert "--zoo" in capsys.readouterr().err


class TestMonitorArtefact:
    def test_main_runs_monitor(self, capsys):
        assert main(["monitor", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Streaming fetal-SpO2 monitor" in out
        assert "latency" in out

    def test_monitor_method_flag(self, capsys):
        assert main([
            "monitor", "--preset", "smoke", "--method", "spectral-masking",
        ]) == 0
        assert "Spect. Masking" in capsys.readouterr().out

    def test_monitor_rejects_multiple_methods(self):
        with pytest.raises(ConfigurationError, match="single"):
            main([
                "monitor", "--preset", "smoke",
                "--method", "spectral-masking", "--method", "dhf",
            ])

    def test_monitor_spec_flag(self, capsys):
        spec = json.dumps({"method": "spectral-masking", "n_harmonics": 2})
        assert main(["monitor", "--preset", "smoke", "--spec", spec]) == 0
        assert "Spect. Masking" in capsys.readouterr().out


class TestScoreboardArtefact:
    def test_main_runs_scoreboard(self, capsys):
        assert main([
            "scoreboard", "--preset", "smoke",
            "--method", "spectral-masking",
        ]) == 0
        out = capsys.readouterr().out
        assert "Robustness scoreboard" in out
        assert "dropout@0.35" in out and "compression@0.7" in out
        assert "#1 Spect. Masking" in out

    def test_scoreboard_registered_with_method_selection(self):
        assert "scoreboard" in RUNNERS
        parser = build_parser()
        args = parser.parse_args(["scoreboard", "--preset", "smoke"])
        assert args.artefact == "scoreboard"

    def test_scoreboard_spec_flag(self, capsys):
        spec = json.dumps({"method": "spectral-masking", "n_harmonics": 2})
        assert main([
            "scoreboard", "--preset", "smoke",
            "--method", "spectral-masking", "--spec", spec,
        ]) == 0
        out = capsys.readouterr().out
        assert "Spect. Masking (spec)" in out

    def test_scoreboard_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "scoreboard.txt"
        assert main([
            "scoreboard", "--preset", "smoke",
            "--method", "spectral-masking", "--output", str(out_file),
        ]) == 0
        capsys.readouterr()
        assert "Robustness scoreboard" in out_file.read_text()
