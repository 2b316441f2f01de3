"""Scenario-grid benchmark: robustness scoreboard throughput.

Fans a method line-up across every built-in degradation family (sensor
dropout, motion wander, additive noise, codec compression) at several
severities and over clean *and* N>2-source mixtures, all through one
:class:`repro.service.SeparationService` per method (``--workers``
process shards for batch cells) — exactly the path
``python -m repro.experiments.cli scoreboard`` takes.

Correctness is asserted on every run, smoke or full:

* full coverage — one cell per method x scenario x mixture, none dropped;
* zero-severity cells score *bitwise equal* to the clean baseline (the
  degradation layer never perturbs the pipeline when severity is 0);
* the degradations bite — every method's mean SDR drop over the degraded
  scenarios is strictly positive;
* the robustness ranking covers every method.

The reported figure of merit is cells/second through the grid.

Run:  PYTHONPATH=src python benchmarks/bench_scenarios.py [--smoke]
"""

from __future__ import annotations

import argparse
import time

from repro.scenarios import (
    ScenarioGrid,
    available_degradations,
    default_degradation,
    severity_sweep,
)

METHODS = ("spectral-masking", "repet")
MIXTURES = ("msig1", "msig3", "xmsig4")
SEVERITIES = (0.0, 0.35, 0.7)


def build_grid(
    duration_s: float,
    severities,
    mixtures,
    workers: int,
    mode: str,
) -> ScenarioGrid:
    scenarios = [
        scenario
        for kind in available_degradations()
        for scenario in severity_sweep(default_degradation(kind), severities)
    ]
    return ScenarioGrid(
        methods=list(METHODS),
        scenarios=scenarios,
        mixtures=mixtures,
        mode=mode,
        duration_s=duration_s,
        workers=workers,
    )


def run_grid(grid: ScenarioGrid):
    start = time.perf_counter()
    board = grid.run()
    return time.perf_counter() - start, board


def check_board(grid: ScenarioGrid, board) -> None:
    expected = (
        len(grid.methods) * len(grid.scenarios) * len(grid.mixtures)
    )
    assert len(board.cells) == expected, (
        f"coverage hole: {len(board.cells)} cells, expected {expected}"
    )

    for cell in board.cells:
        if cell.total_severity != 0.0 or cell.scenario == "clean":
            continue
        clean = board.clean_cell(cell.method, cell.mixture)
        assert cell.scores == clean.scores, (
            f"zero-severity cell {cell.method}/{cell.scenario}/"
            f"{cell.mixture} differs from clean baseline"
        )

    robustness = board.robustness()
    for method, stats in robustness.items():
        assert stats["mean_sdr_drop_db"] > 0.0, (
            f"{method}: degraded scenarios scored no worse than clean "
            f"(drop {stats['mean_sdr_drop_db']:.3f} dB) — the grid is "
            "not exercising the degradation layer"
        )

    ranked = {name for name, _ in board.rankings()}
    assert ranked == set(board.methods), (
        f"ranking covers {sorted(ranked)}, expected {board.methods}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=30.0,
                        help="mixture length in seconds (default 30)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes per method's service "
                             "(default 2)")
    parser.add_argument("--mode", choices=("batch", "stream"),
                        default="batch",
                        help="service execution path (default batch)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (same assertions)")
    args = parser.parse_args(argv)

    severities = SEVERITIES
    mixtures = MIXTURES
    if args.smoke:
        args.duration = min(args.duration, 10.0)
        severities = (0.0, 0.5)
        mixtures = ("msig1", "xmsig4")

    grid = build_grid(
        args.duration, severities, mixtures, args.workers, args.mode,
    )
    n_cells = len(grid.methods) * len(grid.scenarios) * len(grid.mixtures)
    print(
        f"bench_scenarios: {len(grid.methods)} methods x "
        f"{len(grid.scenarios)} scenarios x {len(grid.mixtures)} mixtures "
        f"= {n_cells} cells ({args.duration:.0f} s records, "
        f"mode={args.mode}, workers={args.workers})"
    )

    # Warm run (STFT plan caches, FFT planner), then the measured run.
    run_grid(grid)
    elapsed, board = run_grid(grid)
    check_board(grid, board)

    print(f"  grid wall time : {elapsed * 1e3:8.2f} ms")
    print(f"  throughput     : {n_cells / elapsed:8.1f} cells/s")
    for line in board.render().splitlines():
        print(f"  {line}")
    print("bench_scenarios: OK")
    return 0


def test_bench_scenarios(benchmark):
    """pytest-benchmark entry point (explicit path collection only)."""
    grid = build_grid(
        10.0, (0.0, 0.5), ("msig1", "xmsig4"), workers=2, mode="batch",
    )
    elapsed, board = benchmark.pedantic(run_grid, args=(grid,),
                                        rounds=1, iterations=1)
    check_board(grid, board)


if __name__ == "__main__":
    raise SystemExit(main())
