# Convenience targets for the DHF reproduction.  Every target is a thin
# wrapper over a plain command (shown by `make help`), so nothing here is
# required — see README.md "Tests and benchmarks".

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: help test conformance bench bench-streaming bench-figure6 bench-scenarios bench-warmstart bench-sharding bench-substrates gateway-smoke scoreboard-smoke bench-all docs-check smoke ci

help:
	@echo "make test            - tier-1 test suite (pytest -x -q)"
	@echo "make conformance     - separator conformance suite (every registered"
	@echo "                       method x offline/batch/stream, smoke preset)"
	@echo "make bench           - batched-pipeline speedup benchmark (asserts >= 3x)"
	@echo "make bench-streaming - streaming latency/throughput benchmark"
	@echo "make bench-figure6   - batched in-vivo cohort benchmark (asserts >= 2x)"
	@echo "make bench-scenarios - degradation scenario-grid benchmark (coverage +"
	@echo "                       zero-severity==clean asserted)"
	@echo "make bench-warmstart - prior-zoo warm-start benchmark (asserts >= 1.5x"
	@echo "                       fewer iterations at equal quality)"
	@echo "make bench-sharding  - sharded process fan-out benchmark (asserts >= 2x"
	@echo "                       vs the per-record loop, 1e-8 parity, zero"
	@echo "                       per-record separator pickling)"
	@echo "make bench-substrates- cross-backend DHF fit comparison (asserts"
	@echo "                       numpy-f32 >= 1.3x over the float64 reference"
	@echo "                       at documented parity tolerance)"
	@echo "make gateway-smoke   - HTTP gateway benchmark, smoke preset (job"
	@echo "                       lifecycle + concurrent monitor feeds, bitwise-checked)"
	@echo "make scoreboard-smoke- robustness scoreboard artefact, smoke preset"
	@echo "make bench-all       - all paper-artefact benchmarks (pytest-benchmark)"
	@echo "make docs-check      - docs exist + documented names import + registry documented"
	@echo "make smoke           - CI-style smoke: tests + docs-check + bench --smoke suite"
	@echo "make ci              - full gate: full-scale bench gates + smoke script"

test:
	$(PYTHON) -m pytest -x -q

conformance:
	REPRO_PRESET=smoke $(PYTHON) -m pytest tests/service/test_conformance.py -q

bench:
	$(PYTHON) benchmarks/bench_pipeline.py

bench-streaming:
	$(PYTHON) benchmarks/bench_streaming.py

bench-figure6:
	$(PYTHON) benchmarks/bench_figure6_spo2.py

bench-scenarios:
	$(PYTHON) benchmarks/bench_scenarios.py

bench-warmstart:
	$(PYTHON) benchmarks/bench_warmstart.py

bench-sharding:
	$(PYTHON) benchmarks/bench_sharding.py

bench-substrates:
	$(PYTHON) benchmarks/bench_substrates.py

gateway-smoke:
	$(PYTHON) benchmarks/bench_gateway.py --smoke

scoreboard-smoke:
	$(PYTHON) -m repro.experiments.cli scoreboard --preset smoke

bench-all:
	$(PYTHON) -m pytest benchmarks/bench_pipeline.py $(wildcard benchmarks/bench_*.py) -q -s

docs-check:
	$(PYTHON) scripts/check_docs.py

smoke:
	bash scripts/smoke.sh

# scripts/smoke.sh runs the tier-1 suite once (which collects the
# conformance suite), the docs check once, and every bench --smoke
# variant, gateway-smoke's command included; ci adds only the
# full-scale gates on top.  bench-warmstart gates the prior-zoo
# warm-start targets (>= 1.5x fewer iterations at equal quality),
# bench-sharding the process fan-out path (>= 2x vs the per-record loop
# with 1e-8 parity and zero per-record separator pickling), and
# bench-substrates the array-backend substrate (per-backend parity
# against the float64 fit, numpy-f32 >= 1.3x faster on the DHF fit
# loop).  scoreboard-smoke regenerates the robustness artefact over the
# full separator line-up.
ci: bench-warmstart bench-sharding bench-substrates scoreboard-smoke
	bash scripts/smoke.sh
