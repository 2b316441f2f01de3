#!/usr/bin/env bash
# CI-style smoke run: the tier-1 test suite (which collects the separator
# conformance suite), the docs consistency check, and the --smoke variant
# of every benchmark script.  Referenced from README.md, `make smoke` and
# `make ci`.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== docs-check =="
python scripts/check_docs.py

echo "== bench_pipeline --smoke =="
python benchmarks/bench_pipeline.py --smoke

echo "== bench_streaming --smoke =="
python benchmarks/bench_streaming.py --smoke

echo "== bench_figure6_spo2 --smoke =="
python benchmarks/bench_figure6_spo2.py --smoke

echo "== bench_scenarios --smoke =="
python benchmarks/bench_scenarios.py --smoke

echo "== bench_warmstart --smoke =="
python benchmarks/bench_warmstart.py --smoke

echo "== bench_gateway --smoke =="
python benchmarks/bench_gateway.py --smoke

echo "== bench_sharding --smoke =="
python benchmarks/bench_sharding.py --smoke

echo "== bench_substrates --smoke =="
python benchmarks/bench_substrates.py --smoke

echo "smoke: OK"
