"""E-S1 benchmark: streaming separation latency and throughput vs offline.

Separates a synthetic multi-source physiological record two ways:

``offline``
    One :meth:`repro.separation.Separator.separate` call on the whole
    record — the batch path, which needs the full signal in memory.

``streaming``
    The record is fed to a :class:`repro.streaming.StreamingSeparator`
    in real-time-sized chunks; per-chunk wall-clock cost is recorded for
    every push.  Chunks that complete an analysis segment pay one
    separator call on ``segment`` samples; the rest only buffer — so the
    *steady-state* per-chunk latency (mean over all post-warmup chunks)
    is the real-time figure of merit, and must stay below the chunk
    duration for live operation.

The streamed output is asserted equal to the offline separation to
``<= 1e-8`` outside the recorded cross-fade spans (see
``repro.streaming`` for why the match is exact there), and the
steady-state per-chunk latency is asserted below the chunk duration.

A multi-subject section streams several records through
:meth:`repro.service.SeparationService.stream_batch`, one after
another, and reports the wall time.

Run:  PYTHONPATH=src python benchmarks/bench_streaming.py [--smoke]
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.pipeline import SeparationRecord
from repro.service import (
    SeparationService,
    SpectralMaskingSpec,
    build_separator,
)
from repro.streaming import StreamingSeparator


FS = 100.0
N_HARMONICS = 4
SOURCE_F0S = (1.2, 2.1, 3.3)  # Hz — maternal / fetal / artefact band


def build_bench_separator():
    """The benchmark method, built from the service registry.

    0.64 s windows keep ``n_fft`` (64 samples at 100 Hz) far below the
    streaming segment so segment-interior frames match the offline grid.
    """
    return build_separator(
        SpectralMaskingSpec(n_fft_seconds=0.64, n_harmonics=N_HARMONICS)
    )


def build_record(duration_s: float, seed: int = 0) -> Tuple[np.ndarray, Dict]:
    """One quasi-periodic three-source mixture with drifting fundamentals."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * FS)
    t = np.arange(n) / FS
    mixed = 0.02 * rng.standard_normal(n)
    tracks: Dict[str, np.ndarray] = {}
    for s, f0 in enumerate(SOURCE_F0S):
        f0_b = f0 * (1.0 + 0.05 * rng.uniform(-1, 1))
        drift = 1.0 + 0.02 * np.sin(2 * np.pi * 0.05 * t + rng.uniform(0, 6))
        track = f0_b * drift
        phase = 2 * np.pi * np.cumsum(track) / FS
        for k in range(1, N_HARMONICS + 1):
            mixed = mixed + (0.8 / k) * np.sin(k * phase + rng.uniform(0, 6))
        tracks[f"src{s}"] = track
    return mixed, tracks


def run_offline(sep, mixed, tracks) -> Tuple[float, Dict[str, np.ndarray]]:
    start = time.perf_counter()
    estimates = sep.separate(mixed, FS, tracks)
    return time.perf_counter() - start, estimates


def run_streaming(
    sep, mixed, tracks, segment: int, overlap: int, chunk: int
) -> Tuple[List[float], Dict[str, np.ndarray], StreamingSeparator]:
    """Push the record chunk by chunk; return per-chunk times and output."""
    engine = StreamingSeparator(sep, FS, segment, overlap)
    per_chunk: List[float] = []
    parts: Dict[str, List[np.ndarray]] = {name: [] for name in tracks}
    n = mixed.size
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        sl = {name: track[start:stop] for name, track in tracks.items()}
        t0 = time.perf_counter()
        out = engine.push(mixed[start:stop], sl)
        per_chunk.append(time.perf_counter() - t0)
        for name, est in out.items():
            parts[name].append(est)
    t0 = time.perf_counter()
    out = engine.flush()
    flush_time = time.perf_counter() - t0
    per_chunk.append(flush_time)
    for name, est in out.items():
        parts[name].append(est)
    estimates = {name: np.concatenate(p) for name, p in parts.items()}
    return per_chunk, estimates, engine


def equivalence_error(offline, streamed, spans, n) -> float:
    """Max |streamed - offline| outside the cross-fade spans."""
    keep = np.ones(n, dtype=bool)
    for s, e in spans:
        keep[s:e] = False
    return max(
        float(np.abs(streamed[name] - offline[name])[keep].max())
        for name in offline
    )


def run_session_demo(
    sep, duration_s: float, segment: int, overlap: int, chunk: int,
    n_subjects: int,
) -> float:
    """Stream ``n_subjects`` records; return total wall time."""
    records = []
    for i in range(n_subjects):
        mixed, tracks = build_record(duration_s, seed=i)
        records.append(SeparationRecord(
            mixed=mixed, sampling_hz=FS, f0_tracks=tracks,
            name=f"subject{i}",
        ))
    with SeparationService(sep) as service:
        start_t = time.perf_counter()
        service.stream_batch(records, segment, overlap, chunk)
        return time.perf_counter() - start_t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=120.0,
                        help="record length in seconds (default 120)")
    parser.add_argument("--chunk", type=int, default=100,
                        help="chunk size in samples (default 100 = 1 s)")
    parser.add_argument("--segment", type=int, default=1024,
                        help="analysis segment in samples (default 1024)")
    parser.add_argument("--overlap", type=int, default=256,
                        help="segment overlap in samples (default 256)")
    parser.add_argument("--subjects", type=int, default=4,
                        help="subjects in the session demo (default 4)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (same assertions)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.duration = min(args.duration, 30.0)
        args.subjects = min(args.subjects, 2)
    if args.overlap >= args.segment:
        parser.error("--overlap must be smaller than --segment")
    if args.duration * FS < 2 * args.segment:
        parser.error(
            f"--duration must cover >= {2 * args.segment / FS:.1f} s"
        )

    sep = build_bench_separator()
    mixed, tracks = build_record(args.duration)
    n = mixed.size
    chunk_s = args.chunk / FS
    print(
        f"bench_streaming: {n} samples ({args.duration:.0f} s) x "
        f"{len(SOURCE_F0S)} sources, chunk={args.chunk} ({chunk_s:.2f} s), "
        f"segment={args.segment}, overlap={args.overlap}"
    )

    t_offline, offline = run_offline(sep, mixed, tracks)
    # Warm run (plan caches, FFT planner), then the measured run.
    run_streaming(sep, mixed, tracks, args.segment, args.overlap, args.chunk)
    per_chunk, streamed, engine = run_streaming(
        sep, mixed, tracks, args.segment, args.overlap, args.chunk,
    )

    err = equivalence_error(offline, streamed, engine.crossfade_spans, n)
    # Steady state: skip the chunks before the first segment fired.
    warmup = args.segment // args.chunk + 1
    steady = np.asarray(per_chunk[warmup:])
    mean_s, p95_s, max_s = (
        float(steady.mean()), float(np.quantile(steady, 0.95)),
        float(steady.max()),
    )
    throughput = n / sum(per_chunk)

    print(f"  offline separate       : {t_offline * 1e3:8.2f} ms total")
    print(f"  streaming total        : {sum(per_chunk) * 1e3:8.2f} ms "
          f"({len(per_chunk)} pushes, {len(engine.segments_run)} segments)")
    print(f"  per-chunk latency      : mean {mean_s * 1e3:7.3f} ms, "
          f"p95 {p95_s * 1e3:7.3f} ms, max {max_s * 1e3:7.3f} ms "
          f"(budget {chunk_s * 1e3:.0f} ms/chunk)")
    print(f"  real-time factor       : {mean_s / chunk_s:8.4f} "
          f"(steady-state mean / chunk duration)")
    print(f"  throughput             : {throughput / 1e3:8.1f} ksamples/s "
          f"({throughput / FS:.0f}x real time)")
    print(f"  max |stream - offline| : {err:8.2e} (outside cross-fades)")

    assert err <= 1e-8, f"streaming diverged from offline: {err:.2e}"
    assert mean_s < chunk_s, (
        f"steady-state per-chunk latency {mean_s * 1e3:.2f} ms exceeds the "
        f"chunk duration {chunk_s * 1e3:.2f} ms — not real-time capable"
    )

    t_session = run_session_demo(
        sep, args.duration, args.segment, args.overlap, args.chunk,
        args.subjects,
    )
    print(
        f"  stream_batch x{args.subjects} subjects: "
        f"{t_session * 1e3:.2f} ms"
    )
    print("bench_streaming: OK")
    return 0


def test_bench_streaming(benchmark):
    """pytest-benchmark entry point (explicit path collection only)."""
    sep = build_bench_separator()
    mixed, tracks = build_record(30.0)
    t_off, offline = run_offline(sep, mixed, tracks)
    per_chunk, streamed, engine = benchmark.pedantic(
        run_streaming, args=(sep, mixed, tracks, 1024, 256, 100),
        rounds=1, iterations=1,
    )
    err = equivalence_error(offline, streamed, engine.crossfade_spans, mixed.size)
    assert err <= 1e-8


if __name__ == "__main__":
    raise SystemExit(main())
