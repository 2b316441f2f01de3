"""Scenario chaining, record degradation, and the scoreboard grid."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.pipeline import SeparationRecord
from repro.scenarios import (
    GridCell,
    NoiseSpec,
    Scenario,
    ScenarioGrid,
    Scoreboard,
    SensorDropoutSpec,
    as_scenario,
    run_scenario_grid,
    severity_sweep,
)

FS = 100.0


@pytest.fixture(scope="module")
def board():
    """One small grid, shared (read-only) across the scoreboard tests."""
    grid = ScenarioGrid(
        methods=["spectral-masking", "repet"],
        scenarios=["dropout", {"kind": "noise", "severity": 0.4}],
        mixtures=("msig1", "xmsig4"),
        duration_s=10.0,
        seed=7,
    )
    return grid, grid.run()


# ---------------------------------------------------------------------- #
# Scenario
# ---------------------------------------------------------------------- #
def test_scenario_resolves_degradation_forms():
    scenario = Scenario(
        name="mixed-bag",
        degradations=("dropout", {"kind": "noise", "severity": 0.2},
                      NoiseSpec(severity=0.1, seed=4)),
    )
    assert [d.kind for d in scenario.degradations] == [
        "dropout", "noise", "noise",
    ]
    assert scenario.total_severity == pytest.approx(0.8)


def test_scenario_validation():
    with pytest.raises(ConfigurationError, match="name"):
        Scenario(name="")
    with pytest.raises(ConfigurationError, match="sequence"):
        Scenario(name="x", degradations="dropout")
    with pytest.raises(ConfigurationError, match="field"):
        Scenario.from_dict({"name": "x", "degradatoins": []})


def test_scenario_from_dict_needs_a_mapping():
    with pytest.raises(ConfigurationError, match="must be a mapping"):
        Scenario.from_dict("x")


def test_scenario_json_roundtrip():
    scenario = Scenario(
        name="storm",
        degradations=(
            SensorDropoutSpec(severity=0.3, mode="hold"),
            NoiseSpec(severity=0.2, seed=11),
        ),
    )
    data = json.loads(json.dumps(scenario.to_dict()))
    rebuilt = Scenario.from_dict(data)
    assert rebuilt == scenario


def test_scenario_apply_chains_in_order(two_tone):
    drop = SensorDropoutSpec(severity=0.5, gaps=((5.0, 2.0),))
    noise = NoiseSpec(severity=0.3, seed=2)
    chained = Scenario(name="both", degradations=(drop, noise))
    manual = noise.apply(drop.apply(two_tone["mix"], FS), FS)
    np.testing.assert_array_equal(chained.apply(two_tone["mix"], FS), manual)


def test_clean_scenario_apply_is_identity_copy(two_tone):
    out = Scenario(name="clean").apply(two_tone["mix"], FS)
    np.testing.assert_array_equal(out, two_tone["mix"])
    assert out is not two_tone["mix"]


def test_degrade_record_touches_only_mixed(two_tone):
    record = SeparationRecord(
        mixed=two_tone["mix"], sampling_hz=FS,
        f0_tracks={"a": np.full(two_tone["mix"].size, 1.1)},
        name="rec", references={"a": two_tone["a"]},
    )
    scenario = as_scenario(SensorDropoutSpec(severity=0.4))
    degraded = scenario.degrade_record(record)
    assert degraded.name == record.name
    assert degraded.references is record.references
    assert degraded.f0_tracks is record.f0_tracks
    assert np.any(degraded.mixed != record.mixed)
    # Zero-severity chain: bitwise-equal mixed channel.
    clean = Scenario(name="clean").degrade_record(record)
    np.testing.assert_array_equal(clean.mixed, record.mixed)


def test_as_scenario_coercions():
    assert as_scenario("clean").degradations == ()
    single = as_scenario("dropout")
    assert single.name == "dropout@0.5"
    from_spec = as_scenario(NoiseSpec(severity=0.25))
    assert from_spec.name == "noise@0.25"
    from_map = as_scenario({"kind": "noise", "severity": 0.1})
    assert from_map.name == "noise@0.1"
    nested = as_scenario({"name": "x", "degradations": [{"kind": "noise"}]})
    assert nested.degradations[0].kind == "noise"
    with pytest.raises(ConfigurationError, match="scenario"):
        as_scenario(42)


def test_severity_sweep_names_and_shared_knobs():
    base = SensorDropoutSpec(severity=0.9, mode="hold", seed=6)
    sweep = severity_sweep(base, [0.0, 0.25, 0.5])
    assert [s.name for s in sweep] == [
        "dropout@0", "dropout@0.25", "dropout@0.5",
    ]
    for scenario in sweep:
        (spec,) = scenario.degradations
        assert spec.mode == "hold" and spec.seed == 6
    with pytest.raises(ConfigurationError, match="at least one"):
        severity_sweep(base, [])


# ---------------------------------------------------------------------- #
# Grid construction
# ---------------------------------------------------------------------- #
def test_grid_rejects_bad_configuration():
    with pytest.raises(ConfigurationError, match="mode"):
        ScenarioGrid(methods=["repet"], mode="offline")
    with pytest.raises(ConfigurationError, match="at least one mixture"):
        ScenarioGrid(methods=["repet"], mixtures=())
    with pytest.raises(ConfigurationError, match="at least one method"):
        ScenarioGrid(methods=[])
    with pytest.raises(ConfigurationError, match="duplicate method"):
        ScenarioGrid(methods=["repet", "repet"])
    with pytest.raises(ConfigurationError, match="duplicate scenario"):
        ScenarioGrid(methods=["repet"], scenarios=["dropout", "dropout"])


def test_grid_prepends_clean_baseline():
    grid = ScenarioGrid(methods=["repet"], scenarios=["dropout"])
    assert grid.scenarios[0].name == "clean"
    assert grid.scenarios[0].total_severity == 0
    # A zero-severity sweep entry already anchors the baseline: no
    # extra clean scenario is inserted.
    sweep = severity_sweep("noise", [0.0, 0.5])
    anchored = ScenarioGrid(methods=["repet"], scenarios=sweep)
    assert [s.name for s in anchored.scenarios] == ["noise@0", "noise@0.5"]


# ---------------------------------------------------------------------- #
# Scoreboard (one shared small run)
# ---------------------------------------------------------------------- #
def test_grid_full_coverage(board):
    grid, result = board
    assert len(result.cells) == 2 * 3 * 2  # methods x (clean+2) x mixtures
    for method in result.methods:
        for scenario in result.scenarios:
            for mixture in result.mixtures:
                cell = result.cell(method, scenario.name, mixture)
                assert cell.scores  # every cell scored every source
    with pytest.raises(DataError, match="no cell"):
        result.cell("repet", "nope", "msig1")


def test_grid_nsource_mixture_scores_all_sources(board):
    _, result = board
    cell = result.cell("repet", "clean", "xmsig4")
    assert set(cell.scores) == {"respiration", "maternal", "fetal",
                                "movement"}


def test_zero_severity_cells_match_clean(board):
    _, result = board
    for method in result.methods:
        for mixture in result.mixtures:
            clean = result.clean_cell(method, mixture)
            assert clean.scenario == "clean"
            assert clean.total_severity == 0


def test_deltas_and_robustness(board):
    _, result = board
    degraded = result.cell("spectral-masking", "dropout@0.5", "msig1")
    deltas = result.deltas(degraded)
    clean = result.clean_cell("spectral-masking", "msig1")
    for label, (drop, ratio) in deltas.items():
        assert drop == pytest.approx(
            clean.scores[label][0] - degraded.scores[label][0]
        )
        assert ratio >= 0
    robustness = result.robustness()
    assert set(robustness) == {"spectral-masking", "repet"}
    rankings = result.rankings()
    assert len(rankings) == 2
    assert rankings[0][1] <= rankings[1][1]


def test_scoreboard_json_roundtrip(board):
    _, result = board
    data = json.loads(json.dumps(result.to_dict()))
    rebuilt = Scoreboard.from_dict(data)
    assert rebuilt.to_dict() == result.to_dict()
    assert rebuilt.robustness() == result.robustness()


def test_scoreboard_render(board):
    _, result = board
    text = result.render()
    assert "Robustness scoreboard" in text
    assert "dropout@0.5" in text and "noise@0.4" in text
    assert "#1 " in text and "#2 " in text


def test_scoreboard_rejects_duplicate_cells(board):
    _, result = board
    with pytest.raises(DataError, match="duplicate"):
        Scoreboard(
            cells=result.cells + [result.cells[0]],
            methods=result.methods,
            scenarios=result.scenarios,
            mixtures=result.mixtures,
            mode=result.mode,
        )


def test_grid_determinism(board):
    grid, result = board
    again = grid.run()
    assert again.to_dict() == result.to_dict()


def test_stream_mode_matches_batch_on_single_segment():
    kwargs = dict(
        methods=["spectral-masking"],
        scenarios=[SensorDropoutSpec(severity=0.3, seed=2)],
        mixtures=("msig1",),
        duration_s=8.0,
        seed=5,
    )
    batch = run_scenario_grid(mode="batch", **kwargs)
    stream = run_scenario_grid(mode="stream", **kwargs)
    for cell in batch.cells:
        twin = stream.cell(cell.method, cell.scenario, cell.mixture)
        for label, (sdr, mse) in cell.scores.items():
            assert twin.scores[label][0] == pytest.approx(sdr, abs=1e-6)
            assert twin.scores[label][1] == pytest.approx(mse, rel=1e-6)


def test_grid_worker_pool_matches_serial(board):
    grid, result = board
    pooled = ScenarioGrid(
        methods=["spectral-masking", "repet"],
        scenarios=["dropout", {"kind": "noise", "severity": 0.4}],
        mixtures=("msig1", "xmsig4"),
        duration_s=10.0,
        seed=7,
        workers=2,
    ).run()
    assert pooled.to_dict()["cells"] == result.to_dict()["cells"]
