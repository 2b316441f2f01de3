"""``offline-table1``: one interactive caller separating Table-1 mixtures.

Closed loop with one caller: ``SeparationService(DHFSpec.from_preset(
"smoke")).separate()`` on ``msig1``..``msig5`` (60 s each), one record
at a time, in a fixed order.  Whole passes over the five mixtures run
until the run's time is up, so every run weighs the mixtures equally.
The sequential deep-prior fit dominates; the shard engine and HTTP do
no work.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from perfbench.cohort import warm_record
from perfbench.common import (
    SETUP_REPEATS, Context, Outcome, check_repeatable, median,
)
from perfbench.host import HostCounters, host_layers
from perfbench.layers import DHF_LAYERS, install_dhf

MIXTURES = ("msig1", "msig2", "msig3", "msig4", "msig5")


def _spec(tiny: bool):
    from repro.service import DHFSpec

    return DHFSpec.from_preset("smoke", iterations=3) if tiny \
        else DHFSpec.from_preset("smoke")


def _record(name: str, duration_s: float, seed: int):
    """One Table-1 mixture: canonical sources, noise drawn from ``seed``.

    The sources and their f0 tracks are the mixture's own (seeded by its
    name), so every seed asks for the same work; the seed re-draws the
    sensor noise, so it changes the inputs.
    """
    from repro.pipeline.batch import SeparationRecord
    from repro.synth import make_mixture
    from repro.synth.noise import white_noise

    mixture = make_mixture(name, duration_s=duration_s)
    noise = white_noise(mixture.n_samples, mixture.spec.noise_std,
                        rng=np.random.default_rng(seed))
    return SeparationRecord(
        mixed=mixture.mixed - mixture.noise + noise,
        sampling_hz=mixture.sampling_hz,
        f0_tracks=mixture.f0_tracks, name=name,
        references=mixture.sources,
    )


def make_inputs(seed: int, tiny: bool) -> List:
    """The Table-1 mixtures with sensor noise drawn from the seed."""
    names = MIXTURES[:1] if tiny else MIXTURES
    duration = 20.0 if tiny else 60.0
    return [
        _record(name, duration, seed=1000 * seed + i)
        for i, name in enumerate(names)
    ]


def _setup(spec, warm) -> tuple:
    """Start a service and warm it with a tiny record; returns (s, svc)."""
    from repro.service import SeparationService

    start = time.perf_counter()
    service = SeparationService(spec)
    service.separate(warm)
    return time.perf_counter() - start, service


def _separate(service, record) -> tuple:
    start = time.perf_counter()
    outcome = service.separate(record)
    return time.perf_counter() - start, outcome.record


def _check(result) -> List[str]:
    problems = []
    for source, estimate in result.estimates.items():
        if not np.all(np.isfinite(estimate)):
            problems.append(f"{result.record.name}/{source}: non-finite estimate")
    return problems


def run(ctx: Context) -> Outcome:
    records = make_inputs(ctx.seed, ctx.tiny)
    warm = warm_record()
    spec = _spec(ctx.tiny)

    setups = []
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        elapsed, service = _setup(spec, warm)
        setups.append(elapsed)

    problems: List[str] = []
    durations: List[float] = []
    first_pass: Dict[str, object] = {}
    attempted = failed = 0
    # Traced runs alternate untraced and traced passes over the same
    # records: per-layer numbers come from the traced passes, tracing
    # overhead from the pairs.
    paired: Dict[bool, List[float]] = {False: [], True: []}
    traced_since = None
    n_traced = 0
    host = HostCounters()
    host.start()
    start = time.perf_counter()
    n_pass = 0
    try:
        while n_pass == 0 or time.perf_counter() - start < ctx.seconds \
                or (ctx.traced and n_pass < 2):
            tracing = ctx.traced and n_pass % 2 == 1
            if tracing:
                install_dhf(ctx.tracer)
                if traced_since is None:
                    traced_since = time.perf_counter()
            try:
                for record in records:
                    attempted += 1
                    try:
                        if tracing:
                            elapsed, result = ctx.tracer.call(
                                "core.dhf", _separate, service, record)
                            n_traced += 1
                        else:
                            elapsed, result = _separate(service, record)
                    except Exception as exc:  # counted, reported, not fatal
                        failed += 1
                        problems.append(f"{record.name}: {exc!r}")
                        continue
                    durations.append(elapsed)
                    paired[tracing].append(elapsed)
                    problems.extend(_check(result))
                    scores = {s: float(v[0]) for s, v in result.scores.items()}
                    if record.name not in first_pass:
                        first_pass[record.name] = scores
                    elif first_pass[record.name] != scores:
                        problems.append(
                            f"{record.name}: SDR changed between passes")
            finally:
                if tracing:
                    ctx.tracer.restore()
            n_pass += 1
        wall = time.perf_counter() - start
        counters = host.stop()
    finally:
        service.close()

    outcome = Outcome(correct=False, attempted=attempted, failed=failed)
    if len(first_pass) < len(records) or not durations:
        problems.append("no complete pass over the mixtures")
        outcome.problems = problems
        return outcome
    sdr = float(np.mean([v for s in first_pass.values() for v in s.values()]))
    repeat = check_repeatable(f"offline-table1/{ctx.seed}/{ctx.tiny}", sdr)
    if repeat:
        problems.append(repeat)

    outcome.end_to_end = {
        "setup_s": median(setups),
        "records_per_s": len(durations) / wall,
        "record_p50_s": median(durations),
        "op_p50_ms": median([1e3 * d for d in durations]),
        "sdr_db": sdr,
        "peak_rss_mb": counters["peak_rss_mb"],
    }
    if ctx.traced:
        outcome.per_layer = _layers(ctx, traced_since, n_traced, paired)
        outcome.per_layer.update(host_layers(counters))
    outcome.samples = {"setup": setups, "record": durations}
    outcome.problems = problems
    outcome.correct = not problems and failed == 0
    return outcome


def _layers(ctx: Context, since: float, n_records: int,
            paired: Dict[bool, List[float]]) -> Dict[str, float]:
    tracer = ctx.tracer
    selfs = tracer.self_times(since)
    per = max(1, n_records)
    out = {f"{layer}.s": selfs.get(layer, 0.0) / per for layer in DHF_LAYERS}
    out["core.dhf.s"] = selfs.get("core.dhf", 0.0) / per
    calls = tracer.counters.get("core.inpainting.calls", 0.0)
    out["core.inpainting.calls"] = calls / per
    out["core.inpainting.records_per_call"] = (
        tracer.counters.get("core.inpainting.records", 0.0) / calls
        if calls else 0.0
    )
    out["core.inpainting.iterations"] = (
        tracer.counters.get("core.inpainting.iterations", 0.0) / calls
        if calls else 0.0
    )
    traced_wall = sum(tracer.durations("core.dhf", since))
    named = sum(selfs.get(layer, 0.0) for layer in DHF_LAYERS)
    out["trace.coverage_pct"] = 100.0 * named / traced_wall \
        if traced_wall else 0.0
    # Same records, same order: the traced pass against the untraced one.
    n = min(len(paired[False]), len(paired[True]))
    if n:
        out["trace.overhead_pct"] = 100.0 * (
            sum(paired[True][:n]) / sum(paired[False][:n]) - 1.0
        )
    return out
