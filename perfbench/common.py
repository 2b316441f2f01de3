"""Shared pieces of the workloads: run context, statistics, metric tables."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from perfbench.spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: End-to-end metrics every untraced run reports: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "records_per_s": "records/s",
    "record_p50_s": "s",
    "op_p50_ms": "ms",
    "sdr_db": "dB",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every traced run reports: name -> unit.  A layer a
#: workload does not exercise reports 0.
PER_LAYER: Dict[str, str] = {
    # offline-table1: DHF stages, per separated record
    "core.dhf.s": "s/record",
    "core.alignment.s": "s/record",
    "dsp.stft.s": "s/record",
    "core.masking.s": "s/record",
    "core.phase.s": "s/record",
    "metrics.score.s": "s/record",
    "core.inpainting.s": "s/record",
    "core.inpainting.calls": "calls/record",
    "core.inpainting.records_per_call": "records/call",
    "core.inpainting.iterations": "iterations/call",
    "nn.build.s": "s/record",
    "nn.forward.s": "s/record",
    "nn.backward.s": "s/record",
    "nn.adam.s": "s/record",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
    # every workload: the process tree seen from outside
    "host.cpu_per_wall": "s/s",
    "host.invol_ctx_switches": "1/s",
    # gateway-live, client side
    "gateway.http_rtt_ms": "ms",
    "gateway.push.ms": "ms",
    "gateway.push.p95_ms": "ms",
    "gateway.push.count": "pushes",
    "gateway.wire.push_bytes": "bytes",
    "gateway.submit.ms": "ms",
    "gateway.poll.ms": "ms",
    "gateway.polls_per_job": "polls/job",
    "gateway.jobs.queue_wait_ms": "ms",
    "gateway.jobs.run_ms": "ms",
    "generator.lag_ms": "ms",
    # gateway-live, server side (mean self time per call)
    "gateway.sessions.push.s": "s/call",
    "streaming.push.s": "s/call",
    "gateway.wire.s": "s/call",
    "gateway.storage.write.s": "s/call",
}

#: Per-layer metrics only ``cohort-sharded`` reports, on top of
#: :data:`PER_LAYER`.  That workload is not in ``BENCHMARK.json`` (its
#: wall time is too unsteady to gate on; see README.md).
COHORT_LAYERS: Dict[str, str] = {
    "pipeline.shard.plan.s": "s/record",
    "pipeline.shard.pack.s": "s/record",
    "pipeline.shard.wait.s": "s/record",
    "pipeline.shard.reassemble.s": "s/record",
    "pipeline.shard.shards": "shards/call",
    "pipeline.shard.records_per_shard": "records/shard",
    "pipeline.shard.bytes": "bytes/call",
    "pipeline.shard.worker.s": "s/record",
    "nn.batchfit.s": "s/record",
    "tfo.spo2.s": "s/record",
    "tfo.spo2_corr_err": "1-r",
}

#: The per-layer metrics each workload exercises (the rest report 0).
WORKLOAD_LAYERS: Dict[str, tuple] = {
    "offline-table1": (
        "core.dhf.s", "core.alignment.s", "dsp.stft.s", "core.masking.s",
        "core.phase.s", "metrics.score.s", "core.inpainting.s",
        "core.inpainting.calls", "core.inpainting.records_per_call",
        "core.inpainting.iterations", "nn.build.s", "nn.forward.s",
        "nn.backward.s", "nn.adam.s", "trace.coverage_pct",
        "host.cpu_per_wall", "host.invol_ctx_switches",
    ),
    "cohort-sharded": (*COHORT_LAYERS, "host.cpu_per_wall",
                       "host.invol_ctx_switches"),
    "gateway-live": (
        "gateway.http_rtt_ms", "gateway.push.ms", "gateway.push.p95_ms",
        "gateway.push.count", "gateway.wire.push_bytes",
        "gateway.submit.ms", "gateway.poll.ms", "gateway.polls_per_job",
        "gateway.jobs.queue_wait_ms", "gateway.jobs.run_ms",
        "gateway.sessions.push.s", "streaming.push.s", "gateway.wire.s",
        "gateway.storage.write.s", "host.cpu_per_wall",
        "host.invol_ctx_switches",
    ),
}


@dataclass
class Context:
    """Everything a workload needs to know about one run."""

    seed: int
    seconds: float
    tracer: Optional[Tracer]
    tiny: bool = False

    @property
    def traced(self) -> bool:
        return self.tracer is not None


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    correct: bool
    attempted: int
    failed: int
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Raw latency samples (seconds) behind the percentiles, kept in the
    #: run's result file.
    samples: Dict[str, List[float]] = field(default_factory=dict)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def source_digest() -> str:
    """A digest of the library and benchmark source.

    Stored results are keyed by it, so they follow the code.
    """
    digest = hashlib.sha256()
    for top in (SRC, os.path.join(ROOT, "perfbench")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_repeatable(key: str, value: float) -> Optional[str]:
    """Compare ``value`` with the one an earlier run of this source stored.

    Returns a problem description when they differ; stores the value
    when no earlier run did.
    """
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"repeat-{source_digest()}.json")
    stored: Dict[str, float] = {}
    if os.path.exists(path):
        with open(path) as handle:
            stored = json.load(handle)
    if key in stored:
        if stored[key] != value:
            return f"{key} = {value!r}, an earlier run gave {stored[key]!r}"
        return None
    stored[key] = value
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(stored, handle)
    os.replace(tmp, path)
    return None
