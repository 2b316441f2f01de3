"""E-G1 benchmark: gateway job throughput and concurrent monitor feeds.

Drives one in-process :class:`repro.gateway.Gateway` (stdlib
``ThreadingHTTPServer``) through its real HTTP surface with
:class:`repro.gateway.GatewayClient` load generators:

**Round trip**
    Times back-to-back ``GET /health`` on one keep-alive connection (one
    warm-up, then the median of :data:`RTT_PROBES`) and asserts it stays
    under :data:`RTT_LIMIT_MS`.  Without the gateway's ``TCP_NODELAY``
    each response body waits for the client's delayed ACK (44 ms per
    round trip over Linux loopback); with it, under 1 ms.

**Job phase**
    Submits a batch of separation jobs (mixed ``separate`` /
    ``separate_batch`` modes, completion callbacks on a local
    transport), races a cancellation against the worker tier, and
    asserts every job reaches a terminal state.  A sample job's
    estimates are checked **bitwise** against a local offline
    :class:`repro.service.SeparationService` run — arrays cross the
    wire as base64 of their little-endian float64 bytes, so they arrive
    unchanged.  Asserts that each encoded job body stays under
    :data:`MAX_BODY_BYTES_PER_SAMPLE` (~10.8 as base64; JSON float text
    reads ~17.5), a size gate that cannot flake on a slow machine.
    Reports the median submit time and records/sec through the worker
    tier.

**Monitor phase**
    Opens hundreds of concurrent live fetal-SpO2 monitor sessions (one
    client thread each, all started on a barrier), streams a synthetic
    sheep recording chunk by chunk — each session with a *different*
    chunking — and stitches the update-log estimates plus
    ``final_estimates``.  Every session's stream is asserted
    bitwise-identical to the offline separation outside the cross-fade
    spans reported at finish.  Reports p95 push latency and aggregate
    sample throughput.

Run:  PYTHONPATH=src python benchmarks/bench_gateway.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from typing import Dict, List

import numpy as np

from repro.gateway import (
    Gateway,
    GatewayClient,
    GatewayConfig,
    GatewayError,
    record_to_wire,
)
from repro.baselines import SpectralMaskingSeparator
from repro.pipeline.batch import SeparationRecord
from repro.service import SeparationService
from repro.tfo import make_sheep_recording
from repro.tfo.ppg import WAVELENGTHS

FS = 100.0
METHOD = "spectral-masking"
RTT_PROBES = 20
RTT_LIMIT_MS = 10.0
#: Encoded job-body bytes per float64 sample it carries.
MAX_BODY_BYTES_PER_SAMPLE = 12.0


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #
def run_rtt_probe(url: str) -> None:
    with GatewayClient(url) as client:
        client.health()  # warm-up: opens the connection
        times = []
        for _ in range(RTT_PROBES):
            t0 = time.perf_counter()
            client.health()
            times.append(time.perf_counter() - t0)
    rtt_ms = float(np.median(times)) * 1e3
    print(f"  keep-alive round trip  : {rtt_ms:7.2f} ms "
          f"(median of {RTT_PROBES} back-to-back GET /health)")
    assert rtt_ms < RTT_LIMIT_MS, (
        f"keep-alive round trip {rtt_ms:.1f} ms >= {RTT_LIMIT_MS} ms: "
        f"responses are waiting for delayed ACKs"
    )


def build_job_record(n: int, seed: int) -> SeparationRecord:
    """One two-source quasi-periodic mixture with references."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    f0s = {"maternal": 1.2 + 0.05 * rng.uniform(), "fetal": 2.1}
    sources = {
        name: np.sin(2 * np.pi * f0 * t + rng.uniform(0, 6))
        for name, f0 in f0s.items()
    }
    return SeparationRecord(
        mixed=sum(sources.values()) + 0.02 * rng.standard_normal(n),
        sampling_hz=FS,
        f0_tracks={name: np.full(n, f0) for name, f0 in f0s.items()},
        name=f"record-{seed}",
        references=sources,
    )


def run_job_phase(
    gateway: Gateway, url: str, n_jobs: int, records_per_job: int,
    n_samples: int, callback_log: List[Dict],
) -> None:
    client = GatewayClient(url)
    submissions = []
    for j in range(n_jobs):
        mode = "separate" if j % 3 == 0 else "separate_batch"
        records = [build_job_record(n_samples, seed=100 * j + i)
                   for i in range(1 if mode == "separate"
                                  else records_per_job)]
        submissions.append((records, {
            "method": METHOD,
            "mode": mode,
            "records": [record_to_wire(r) for r in records],
            "callback_url": f"bench://jobs/{j}",
        }))
    bytes_per_sample = max(
        len(json.dumps(body).encode("utf-8")) / sum(
            r.n_samples + sum(a.size for a in r.f0_tracks.values())
            + sum(a.size for a in r.references.values())
            for r in records
        )
        for records, body in submissions
    )
    t0 = time.perf_counter()
    job_ids = []
    submit_s = []
    for _, body in submissions:
        start = time.perf_counter()
        job = client.submit_job(body)
        submit_s.append(time.perf_counter() - start)
        job_ids.append(job["job_id"])
    # Race one cancellation against the worker tier: either outcome is
    # legal, but the job must land in a terminal state.
    try:
        cancelled = client.cancel_job(job_ids[-1])["state"]
    except GatewayError as exc:
        assert exc.status == 409, exc
        cancelled = "too late (already running)"
    terminal = [client.wait_job(job_id) for job_id in job_ids]
    elapsed = time.perf_counter() - t0

    states = {job["state"] for job in terminal}
    assert states <= {"done", "cancelled"}, f"unexpected states {states}"
    n_records = sum(
        len(job["record_summaries"]) for job in terminal
        if job["state"] == "done"
    )
    assert gateway.jobs.callbacks.drain(timeout_s=30.0), \
        "callbacks did not drain"
    delivered = {entry["job_id"] for entry in callback_log}
    assert delivered == set(job_ids), "every terminal job fires a callback"
    assert not gateway.jobs.callbacks.dead_letters

    # Wire-format exactness: the served estimates are bitwise-equal to a
    # local offline run of the same record.
    probe = next(j for j in job_ids if client.job(j)["state"] == "done")
    result = client.job_result(probe)
    record = build_job_record(
        n_samples, seed=100 * job_ids.index(probe)
    )
    with SeparationService(METHOD) as service:
        local = service.separate(record)
    for source, est in result["records"][0]["estimates"].items():
        assert np.array_equal(np.asarray(est), local.estimates[source]), \
            f"wire estimates for {source!r} diverged from offline"

    client.close()
    print(f"  jobs                   : {n_jobs} submitted, "
          f"cancel raced -> {cancelled!r}")
    print(f"  job submit             : {np.median(submit_s) * 1e3:7.2f} ms "
          f"median, bodies <= {bytes_per_sample:.2f} bytes/float64 sample")
    assert bytes_per_sample < MAX_BODY_BYTES_PER_SAMPLE, (
        f"job bodies carry {bytes_per_sample:.2f} bytes per float64 sample "
        f">= {MAX_BODY_BYTES_PER_SAMPLE}: arrays are not crossing the wire "
        f"as base64 float64"
    )
    print(f"  job records/sec        : {n_records / elapsed:8.1f} "
          f"({n_records} records x {n_samples} samples in {elapsed:.2f} s)")
    print("  wire exactness         : served estimates bitwise-equal "
          "to offline")


class SessionDriver(threading.Thread):
    """One live feed: create, stream, finish, verify bitwise, record
    per-push latency."""

    def __init__(self, url: str, barrier: threading.Barrier, rec,
                 geometry, ac_means, chunk: int):
        super().__init__(daemon=True)
        self.url = url
        self.barrier = barrier
        self.rec = rec
        self.segment, self.overlap = geometry
        self.ac_means = ac_means
        self.chunk = chunk
        self.push_latencies: List[float] = []
        self.streamed: Dict[int, np.ndarray] = {}
        self.spans: Dict[int, List] = {}
        self.error: str = ""

    def run(self) -> None:
        try:
            self._drive()
        except Exception as exc:  # surfaced by the main thread
            self.error = f"{type(exc).__name__}: {exc}"

    def _drive(self) -> None:
        rec = self.rec
        n = rec.signals.n_samples
        tracks = rec.f0_tracks()
        with GatewayClient(self.url, timeout_s=120.0) as client:
            session = client.create_session({
                "method": METHOD,
                "sampling_hz": rec.sampling_hz,
                "segment_samples": self.segment,
                "overlap_samples": self.overlap,
                "ac_mean": {str(wl): self.ac_means[wl]
                            for wl in WAVELENGTHS},
            })
            sid = session["session_id"]
            self.barrier.wait(timeout=120.0)
            pieces = {wl: [] for wl in WAVELENGTHS}
            for start in range(0, n, self.chunk):
                stop = min(n, start + self.chunk)
                t0 = time.perf_counter()
                update = client.push(
                    sid,
                    {wl: rec.signals.ppg[wl][start:stop]
                     for wl in WAVELENGTHS},
                    {wl: rec.signals.dc[wl][start:stop]
                     for wl in WAVELENGTHS},
                    {s: tr[start:stop] for s, tr in tracks.items()},
                )
                self.push_latencies.append(time.perf_counter() - t0)
                for wl in WAVELENGTHS:
                    if "estimates" in update:
                        pieces[wl].append(
                            np.asarray(update["estimates"][str(wl)])
                        )
            final = client.finish_session(sid)
            for wl in WAVELENGTHS:
                if final.get("final_estimates"):
                    pieces[wl].append(
                        np.asarray(final["final_estimates"][str(wl)])
                    )
                self.streamed[wl] = np.concatenate(pieces[wl])
            self.spans = {
                int(wl): [(int(lo), int(hi)) for lo, hi in spans]
                for wl, spans in final["crossfade_spans"].items()
            }
            client.delete_session(sid)


def run_monitor_phase(url: str, n_sessions: int, rec, chunk_base: int):
    n = rec.signals.n_samples
    tracks = rec.f0_tracks()
    ac_means = {
        wl: float(np.mean(rec.signals.ppg[wl] - rec.signals.dc[wl]))
        for wl in WAVELENGTHS
    }
    n_fft, hop = SpectralMaskingSeparator().stft_geometry(
        rec.sampling_hz, n
    )
    overlap = n_fft + hop  # offline-exact geometry (see repro.streaming)
    segment = overlap + 20 * hop

    # The offline reference every session must reproduce bitwise.
    offline: Dict[int, np.ndarray] = {}
    with SeparationService(METHOD) as service:
        for wl in WAVELENGTHS:
            ac = rec.signals.ppg[wl] - rec.signals.dc[wl] - ac_means[wl]
            offline[wl] = service.separate(
                mixed=ac, sampling_hz=rec.sampling_hz, f0_tracks=tracks,
            ).estimates["fetal"]

    barrier = threading.Barrier(n_sessions)
    drivers = [
        SessionDriver(
            url, barrier, rec, (segment, overlap), ac_means,
            # A different chunking per session: finalized outputs must
            # not depend on how the feed was sliced.
            chunk=chunk_base + 17 * (i % 7),
        )
        for i in range(n_sessions)
    ]
    t0 = time.perf_counter()
    for driver in drivers:
        driver.start()
    for driver in drivers:
        driver.join(timeout=600.0)
    elapsed = time.perf_counter() - t0

    failed = [d.error for d in drivers if d.error]
    assert not failed, f"{len(failed)} session(s) failed: {failed[:3]}"
    for driver in drivers:
        for wl in WAVELENGTHS:
            streamed = driver.streamed[wl]
            assert streamed.shape == offline[wl].shape
            keep = np.ones(n, dtype=bool)
            for lo, hi in driver.spans[wl]:
                keep[lo:hi] = False
            assert np.array_equal(streamed[keep], offline[wl][keep]), \
                f"session stream diverged from offline at {wl} nm"

    latencies = np.asarray(
        [lat for d in drivers for lat in d.push_latencies]
    )
    pushed_samples = n_sessions * n * len(WAVELENGTHS)
    print(f"  monitor sessions       : {n_sessions} concurrent, "
          f"{latencies.size} pushes, {elapsed:.2f} s wall")
    print(f"  push latency           : mean {latencies.mean() * 1e3:7.2f} "
          f"ms, p95 {np.quantile(latencies, 0.95) * 1e3:7.2f} ms, "
          f"max {latencies.max() * 1e3:7.2f} ms")
    print(f"  feed throughput        : "
          f"{pushed_samples / elapsed / 1e3:8.1f} ksamples/s, "
          f"{n_sessions / elapsed:6.2f} feeds/s")
    print(f"  stream exactness       : {n_sessions} sessions "
          f"bitwise-equal to offline outside cross-fade spans")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=120,
                        help="concurrent monitor sessions (default 120)")
    parser.add_argument("--jobs", type=int, default=24,
                        help="batch jobs in the job phase (default 24)")
    parser.add_argument("--records", type=int, default=4,
                        help="records per batch job (default 4)")
    parser.add_argument("--samples", type=int, default=400,
                        help="samples per job record (default 400)")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="monitor feed length in seconds (default 120)")
    parser.add_argument("--workers", type=int, default=4,
                        help="gateway worker threads (default 4)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (same assertions)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.sessions = min(args.sessions, 8)
        args.jobs = min(args.jobs, 6)
        args.duration = min(args.duration, 120.0)

    rec = make_sheep_recording(
        "sheep1", duration_s=args.duration, sampling_hz=20.0, seed=11,
    )
    callback_log: List[Dict] = []
    log_lock = threading.Lock()

    def local_transport(url: str, payload: Dict, timeout_s: float) -> None:
        with log_lock:
            callback_log.append(payload)

    config = GatewayConfig(
        port=0, workers=args.workers, queue_depth=max(64, 2 * args.jobs),
    )
    print(f"bench_gateway: {args.jobs} jobs x {args.records} records, "
          f"{args.sessions} monitor sessions x "
          f"{rec.signals.n_samples} samples, {args.workers} workers")
    with Gateway(config, callback_transport=local_transport) as gateway:
        run_rtt_probe(gateway.url)
        run_job_phase(
            gateway, gateway.url, args.jobs, args.records, args.samples,
            callback_log,
        )
        run_monitor_phase(gateway.url, args.sessions, rec, chunk_base=240)
        counts = gateway.jobs.counts()
    assert all(
        state in ("done", "cancelled", "expired") or count == 0
        for state, count in counts.items()
    ), f"non-terminal jobs left behind: {counts}"
    print("bench_gateway: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
