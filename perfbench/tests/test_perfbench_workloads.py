"""The benchmark's own tests: a tiny-size run of each workload.

Each workload runs through the real command line (``perfbench/run.py
--size tiny``) once untraced and once traced, and the tests check that
every metric is emitted with its unit, that the traced run reports the
per-layer metrics its workload exercises, and that the seed changes the
inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.common import (  # noqa: E402
    COHORT_LAYERS, END_TO_END, PER_LAYER, WORKLOAD_LAYERS,
)
from perfbench.run import WORKLOADS  # noqa: E402


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = _result(_run(workload, trace=0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == END_TO_END
    for name, entry in metrics.items():
        assert np.isfinite(entry["value"]) and entry["value"] != 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_its_per_layer_metrics(workload):
    metrics = _result(_run(workload, trace=1))["metrics"]
    expected = dict(PER_LAYER)
    if workload == "cohort-sharded":
        expected.update(COHORT_LAYERS)
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name in WORKLOAD_LAYERS[workload]:
        assert metrics[name]["value"] > 0, name


def test_seed_changes_the_inputs():
    from perfbench import cohort, gateway, offline

    a, b = offline.make_inputs(1, tiny=True), offline.make_inputs(2, tiny=True)
    assert not np.array_equal(a[0].mixed, b[0].mixed)
    again = offline.make_inputs(1, tiny=True)
    assert np.array_equal(a[0].mixed, again[0].mixed)

    a, b = cohort.make_inputs(1, tiny=True), cohort.make_inputs(2, tiny=True)
    assert not np.array_equal(a[0].signals.ppg[740], b[0].signals.ppg[740])

    a, b = gateway.Inputs(1, tiny=True), gateway.Inputs(2, tiny=True)
    assert not np.array_equal(a.jobs[0][0].mixed, b.jobs[0][0].mixed)
    assert not np.array_equal(a.feed.signals.ppg[740],
                              b.feed.signals.ppg[740])


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("offline-table1", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
