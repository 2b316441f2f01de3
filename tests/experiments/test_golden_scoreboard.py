"""Golden regression fixture for the robustness scoreboard.

Pins the full scoreboard artefact — every grid cell's per-source
SDR/MSE plus the robustness aggregates — for a fast single-method
configuration at the smoke preset.  A change anywhere in the chain
(degradation realisation, mixture labels, grid routing, scoring band)
moves a pinned number and fails here with a per-cell diff.

Regenerate intentionally with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_golden_scoreboard.py -q

and commit the updated JSON alongside the change that moved the numbers.
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext, run_scoreboard, table2_specs
from repro.scenarios import Scoreboard

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "scoreboard_smoke.json"

#: Fixture configuration; changing any of these invalidates the fixture.
PRESET = "smoke"
SEED = 3
METHODS = ("spectral-masking",)
#: Display label the Table 2 line-up gives the method above.
METHOD_LABELS = ["Spect. Masking"]
MIXTURES = ["msig1", "xmsig4"]

SDR_ATOL_DB = 1e-3
MSE_RTOL = 1e-3

_REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))


@pytest.fixture(scope="module")
def scoreboard_result():
    context = ExperimentContext.from_name(PRESET, seed=SEED)
    return run_scoreboard(
        context, line_up=table2_specs(context.preset, include=METHODS),
        mixtures=list(MIXTURES),
    )


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden fixture missing: {GOLDEN_PATH}. Generate it with "
            f"REPRO_REGEN_GOLDEN=1 and commit the file."
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.skipif(not _REGEN, reason="set REPRO_REGEN_GOLDEN=1 to regenerate")
def test_regenerate_golden(scoreboard_result):
    GOLDEN_DIR.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(scoreboard_result.to_dict(), indent=2, sort_keys=True)
        + "\n"
    )
    pytest.skip(f"golden fixture rewritten at {GOLDEN_PATH}")


@pytest.mark.skipif(_REGEN, reason="regenerating, comparison suspended")
class TestGoldenScoreboard:
    def test_config_matches(self):
        golden = _load_golden()
        assert golden["config"]["preset"] == PRESET
        assert golden["config"]["seed"] == SEED
        assert golden["mixtures"] == MIXTURES
        assert golden["methods"] == METHOD_LABELS

    def test_cell_coverage(self, scoreboard_result):
        golden = _load_golden()
        got = scoreboard_result.to_dict()

        def keys(data):
            return {
                (c["method"], c["scenario"], c["mixture"])
                for c in data["cells"]
            }

        assert keys(got) == keys(golden), (
            "grid coverage changed; regenerate the fixture if intended"
        )

    def test_cells_match_golden(self, scoreboard_result):
        golden = _load_golden()
        got = scoreboard_result.to_dict()
        by_key = {
            (c["method"], c["scenario"], c["mixture"]): c
            for c in got["cells"]
        }
        drift = []
        for ref in golden["cells"]:
            key = (ref["method"], ref["scenario"], ref["mixture"])
            cell = by_key[key]
            assert set(cell["scores"]) == set(ref["scores"]), key
            for label, (ref_sdr, ref_mse) in ref["scores"].items():
                sdr, mse = cell["scores"][label]
                if abs(sdr - ref_sdr) > SDR_ATOL_DB:
                    drift.append(
                        f"{key} {label}: SDR {sdr:.6f} vs {ref_sdr:.6f}"
                    )
                if abs(mse - ref_mse) / max(abs(ref_mse), 1e-300) > MSE_RTOL:
                    drift.append(
                        f"{key} {label}: MSE {mse:.6e} vs {ref_mse:.6e}"
                    )
        assert not drift, (
            "scoreboard cells drifted from the golden fixture:\n  "
            + "\n  ".join(drift)
        )

    def test_robustness_matches_golden(self, scoreboard_result):
        golden = _load_golden()
        got = scoreboard_result.to_dict()
        for method, stats in golden["robustness"].items():
            for key, ref in stats.items():
                assert abs(got["robustness"][method][key] - ref) \
                    <= SDR_ATOL_DB, (method, key)

    def test_zero_severity_cells_equal_clean_table2_path(
        self, scoreboard_result,
    ):
        # The artefact's own invariant: sweeping any family at severity
        # 0 reproduces the clean Table 2 scoring path bitwise.
        board = scoreboard_result.board
        zero_names = [
            s.name for s in board.scenarios
            if s.total_severity == 0 and s.name != board.scenarios[0].name
        ]
        assert zero_names, "default sweep must include severity 0"
        for method in board.methods:
            for mixture in board.mixtures:
                clean = board.clean_cell(method, mixture)
                for name in zero_names:
                    cell = board.cell(method, name, mixture)
                    assert cell.scores == clean.scores, (method, name)

    def test_golden_round_trips_through_scoreboard(self):
        golden = _load_golden()
        board = Scoreboard.from_dict(golden)
        assert board.robustness() == golden["robustness"]
