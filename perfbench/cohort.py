"""``cohort-sharded``: the in-vivo cohort on a persistent process pool.

``repro.tfo.run_in_vivo_batch`` over ``sheep1`` and ``sheep2`` at
740/850 nm (120 s each, the shortest record with a defined SpO2 fit) on
one ``SeparationService(DHFSpec.from_preset("smoke"), workers=2,
executor="process")`` kept across passes.  ``plan_shards`` gives each
worker one subject's wavelength pair, so every round is a K=2 stacked
fit.  Closed loop: whole cohort passes until the run's time is up.

No thread-count variable is set: the pool runs as users get it, BLAS
threads and all.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from perfbench.common import (
    SETUP_REPEATS, Context, Outcome, median,
)
from perfbench.host import HostCounters, host_layers
from perfbench.layers import (
    DHF_LAYERS, install_dhf, install_shard, install_tfo,
)
from perfbench.spans import wrapper_cost_s

SUBJECTS = ("sheep1", "sheep2")
WORKERS = 2


def _spec(tiny: bool):
    from repro.service import DHFSpec

    return DHFSpec.from_preset("smoke", iterations=3) if tiny \
        else DHFSpec.from_preset("smoke")


def make_inputs(seed: int, tiny: bool, duration_s: float = 120.0) -> List:
    """The two subjects, rendered from the workload seed."""
    from repro.tfo import make_sheep_recording

    return [
        make_sheep_recording(
            name, duration_s=duration_s,
            sampling_hz=20.0 if tiny else 100.0, seed=1000 * seed + i,
        )
        for i, name in enumerate(SUBJECTS)
    ]


def warm_record(seed: int = 0):
    """A short fixed two-source mixture that warms a service cheaply."""
    from repro.pipeline.batch import SeparationRecord
    from repro.synth import make_mixture

    mixture = make_mixture("msig1", duration_s=5.0, seed=seed)
    return SeparationRecord(
        mixed=mixture.mixed, sampling_hz=mixture.sampling_hz,
        f0_tracks=mixture.f0_tracks, name=f"warm-{seed}",
    )


def _setup(spec, warm_records) -> tuple:
    """Start the service and its pool, warmed by a tiny batch."""
    from repro.service import SeparationService

    start = time.perf_counter()
    service = SeparationService(spec, workers=WORKERS, executor="process")
    service.separate_batch(warm_records)
    return time.perf_counter() - start, service


def _fetal_sdr(recordings, results) -> List[float]:
    from repro.metrics import sdr_db

    out = []
    for rec in recordings:
        (result,) = results[rec.name].values()
        for wavelength, estimate in result.fetal_estimates.items():
            truth = rec.signals.layers[wavelength]["fetal"]
            out.append(sdr_db(estimate, truth))
    return out


def run(ctx: Context) -> Outcome:
    from repro.tfo.monitor import run_in_vivo_batch

    recordings = make_inputs(ctx.seed, ctx.tiny)
    # One short record per worker: starts the pool without a full fit.
    warm = [warm_record(i) for i in range(WORKERS)]
    spec = _spec(ctx.tiny)
    n_records = 2 * len(recordings)

    if ctx.traced:
        # Before any pool forks, so workers inherit the wrappers.
        install_dhf(ctx.tracer)
        install_shard(ctx.tracer)
        install_tfo(ctx.tracer)

    setups: List[float] = []
    service = None
    problems: List[str] = []
    durations: List[float] = []
    attempted = failed = 0
    corr_err: Dict[str, float] = {}
    sdr: List[float] = []
    try:
        for _ in range(SETUP_REPEATS):
            if service is not None:
                service.close()
            elapsed, service = _setup(spec, warm)
            setups.append(elapsed)

        if ctx.traced:
            ctx.tracer.counters.clear()  # drop the set-up's counts
        host = HostCounters()
        host.start()
        since = start = time.perf_counter()
        while not durations or time.perf_counter() - start < ctx.seconds:
            attempted += n_records
            t0 = time.perf_counter()
            try:
                results = run_in_vivo_batch(recordings, service)
            except Exception as exc:  # counted, reported, not fatal
                failed += n_records
                problems.append(f"cohort pass: {exc!r}")
                if len(problems) > 3:
                    break
                continue
            durations.append(time.perf_counter() - t0)
            for rec in recordings:
                (result,) = results[rec.name].values()
                r = result.fit.correlation
                if not np.isfinite(r):
                    problems.append(f"{rec.name}: SpO2 fit undefined")
                corr_err.setdefault(rec.name, 1.0 - r)
                for estimate in result.fetal_estimates.values():
                    if not np.all(np.isfinite(estimate)):
                        problems.append(f"{rec.name}: non-finite estimate")
            if not sdr:
                sdr = _fetal_sdr(recordings, results)
        wall = time.perf_counter() - start
        counters = host.stop()
    finally:
        if service is not None:
            service.close()
        if ctx.traced:
            ctx.tracer.restore()

    outcome = Outcome(correct=False, attempted=attempted, failed=failed,
                      problems=problems)
    if not durations:
        problems.append("no cohort pass completed")
        return outcome
    outcome.end_to_end = {
        "setup_s": median(setups),
        "records_per_s": n_records * len(durations) / wall,
        "record_p50_s": median(durations),
        "op_p50_ms": median([1e3 * d for d in durations]),
        "sdr_db": float(np.mean(sdr)),
        "peak_rss_mb": counters["peak_rss_mb"],
    }
    if ctx.traced:
        outcome.per_layer = _layers(ctx, since, n_records * len(durations))
        # Estimated: spans recorded (in every process) times the measured
        # cost of one wrapper, as a share of the measured window.
        n_spans = sum(1 for span in ctx.tracer.spans if span[2] >= since)
        outcome.per_layer["trace.overhead_pct"] = \
            100.0 * n_spans * wrapper_cost_s() / counters["wall_s"]
        outcome.per_layer["tfo.spo2_corr_err"] = float(
            np.mean(list(corr_err.values())))
        outcome.per_layer.update(host_layers(counters))
    outcome.samples = {"setup": setups, "pass": durations}
    outcome.correct = not problems and failed == 0
    return outcome


def _layers(ctx: Context, since: float, n_records: int) -> Dict[str, float]:
    tracer = ctx.tracer
    selfs = tracer.self_times(since)
    per = max(1, n_records)
    out = {
        f"{name}.s": selfs.get(name, 0.0) / per
        for name in ("pipeline.shard.plan", "pipeline.shard.pack",
                     "pipeline.shard.wait", "pipeline.shard.reassemble",
                     "tfo.spo2", *DHF_LAYERS)
    }
    # Worker-side spans shipped back with each shard's result (the DHF
    # stages and nn pieces above run in the workers too).
    out["pipeline.shard.worker.s"] = sum(
        tracer.durations("pipeline.shard.worker", since)) / per
    out["nn.batchfit.s"] = selfs.get("nn.batchfit", 0.0) / per
    calls = tracer.counters.get("pipeline.shard.calls", 0.0)
    shards = tracer.counters.get("pipeline.shard.shards", 0.0)
    if calls:
        out["pipeline.shard.shards"] = shards / calls
        out["pipeline.shard.bytes"] = \
            tracer.counters.get("pipeline.shard.bytes", 0.0) / calls
    if shards:
        out["pipeline.shard.records_per_shard"] = \
            tracer.counters.get("pipeline.shard.records", 0.0) / shards
    return out
