"""``gateway-live``: the serving tier under a small open-loop load.

The gateway runs in a child process (``python -m repro.experiments
serve --port 0``; the traced run uses ``perfbench/server.py``, which
adds the server-side wrappers).  One generator process drives it with
two threads, each holding one keep-alive ``GatewayClient``:

* thread A pushes fixed-size chunks of a 20 Hz sheep recording into
  spectral-masking monitor sessions, :data:`PUSH_RATE` pushes per second,
  one session after another;
* thread B submits 4-record spectral-masking ``separate_batch`` jobs,
  :data:`JOB_RATE` per second, and polls each until it finishes.

Both are open loops: a request is due at a fixed time whether or not
the last one returned, and its latency counts from when it was due.
No deep-prior fit runs here.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from perfbench.common import (
    OUT, ROOT, SETUP_REPEATS, SRC, Context, Outcome, median, quantile,
)
from perfbench.host import HostCounters, host_layers
from perfbench.spans import wrapper_cost_s

METHOD = "spectral-masking"
PUSH_RATE = 10.0         # pushes/s; push p50 jumps near 16/s on 2 cores
JOB_RATE = 1.0           # jobs/s
RECORDS_PER_JOB = 4
JOB_SAMPLES = 400
DISTINCT_JOBS = 8        # job inputs cycle; every run submits each one
CHUNK = 40               # samples per push (2 s of the 20 Hz feed)
FEED_HZ = 20.0
FEED_S = 120.0
POLL_S = 0.05
RTT_PROBES = 20


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
def _job_record(index: int, seed: int):
    """One two-source quasi-periodic mixture with references.

    The sources depend only on ``index``, so every seed asks for the same
    work; ``seed`` draws the sensor noise.
    """
    from repro.pipeline.batch import SeparationRecord

    shape = np.random.default_rng(index)
    fs = 100.0
    t = np.arange(JOB_SAMPLES) / fs
    f0s = {"maternal": 1.2 + 0.05 * shape.uniform(),
           "fetal": 2.1 + 0.05 * shape.uniform()}
    sources = {
        name: np.sin(2 * np.pi * f0 * t + shape.uniform(0, 6))
        for name, f0 in f0s.items()
    }
    noise = 0.02 * np.random.default_rng(seed).standard_normal(t.size)
    return SeparationRecord(
        mixed=sum(sources.values()) + noise,
        sampling_hz=fs,
        f0_tracks={name: np.full(t.size, f0) for name, f0 in f0s.items()},
        name=f"record-{index}",
        references=sources,
    )


class Inputs:
    """Everything the load sends, generated before any timing starts."""

    def __init__(self, seed: int, tiny: bool):
        from repro.baselines import SpectralMaskingSeparator
        from repro.gateway import record_to_wire
        from repro.tfo import make_sheep_recording
        from repro.tfo.ppg import WAVELENGTHS

        self.wavelengths = list(WAVELENGTHS)
        n_jobs = 1 if tiny else DISTINCT_JOBS
        self.jobs = [
            [_job_record(RECORDS_PER_JOB * j + i,
                         seed=1000 * seed + RECORDS_PER_JOB * j + i)
             for i in range(RECORDS_PER_JOB)]
            for j in range(n_jobs)
        ]
        self.job_wire = [
            {"method": METHOD, "mode": "separate_batch",
             "records": [record_to_wire(r) for r in records]}
            for records in self.jobs
        ]
        self.feed = make_sheep_recording(
            "sheep1", duration_s=FEED_S, sampling_hz=FEED_HZ,
            seed=1000 * seed + 500,
        )
        signals = self.feed.signals
        n = signals.n_samples
        self.ac_means = {
            wl: float(np.mean(signals.ppg[wl] - signals.dc[wl]))
            for wl in self.wavelengths
        }
        n_fft, hop = SpectralMaskingSeparator().stft_geometry(FEED_HZ, n)
        self.overlap = n_fft + hop  # offline-exact streaming geometry
        self.segment = self.overlap + 20 * hop
        tracks = self.feed.f0_tracks()
        chunk = 4 * CHUNK if tiny else CHUNK
        self.chunks = [
            (
                {wl: signals.ppg[wl][a:a + chunk] for wl in self.wavelengths},
                {wl: signals.dc[wl][a:a + chunk] for wl in self.wavelengths},
                {s: tr[a:a + chunk] for s, tr in tracks.items()},
            )
            for a in range(0, n, chunk)
        ]
        # Arrival jitter: request i is due at (i + u_i) / rate.  Counts
        # per second stay fixed, but pushes and jobs do not fall due in
        # lockstep (every 10th push on a job boundary).  Push jitter stays
        # under half a slot, so pushes are never back to back.
        jitter = np.random.default_rng(1000 * seed + 700)
        self.push_jitter = jitter.uniform(0.0, 0.5, size=100_000)
        self.job_jitter = jitter.uniform(0.0, 1.0, size=10_000)
        self.session_request = {
            "method": METHOD,
            "sampling_hz": FEED_HZ,
            "segment_samples": self.segment,
            "overlap_samples": self.overlap,
            "ac_mean": {str(wl): self.ac_means[wl] for wl in self.wavelengths},
        }

    def push_bytes(self) -> List[int]:
        """Request-body size of each push, as the client encodes it."""
        return [
            len(json.dumps({
                "ppg": {str(k): list(map(float, v)) for k, v in ppg.items()},
                "dc": {str(k): list(map(float, v)) for k, v in dc.items()},
                "f0_tracks": {str(k): list(map(float, v))
                              for k, v in tracks.items()},
            }).encode("utf-8"))
            for ppg, dc, tracks in self.chunks
        ]

    def offline_fetal(self) -> Dict[int, np.ndarray]:
        """The offline separation every streamed session must match."""
        from repro.service import SeparationService

        signals = self.feed.signals
        out = {}
        with SeparationService(METHOD) as service:
            for wl in self.wavelengths:
                ac = signals.ppg[wl] - signals.dc[wl] - self.ac_means[wl]
                out[wl] = service.separate(
                    mixed=ac, sampling_hz=FEED_HZ,
                    f0_tracks=self.feed.f0_tracks(),
                ).estimates["fetal"]
        return out


# --------------------------------------------------------------------- #
# The gateway child
# --------------------------------------------------------------------- #
class GatewayProcess:
    """One gateway child process, from spawn to its first healthy reply."""

    def __init__(self, tag: str, trace_out: Optional[str]):
        os.makedirs(OUT, exist_ok=True)
        self.artifacts = os.path.join(OUT, f"artifacts-{tag}")
        config = {"artifact_root": self.artifacts}
        serve_args = ["--port", "0", "--config", json.dumps(config)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.experiments", "serve",
                   *serve_args]
        else:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "server.py"),
                   "--trace-out", trace_out, "--", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH", "")) if p
        )
        self.log_path = os.path.join(OUT, f"gateway-{tag}.log")
        self._log = open(self.log_path, "w")
        # A caller that ignores SIGINT (a background job) would pass that
        # on, and the child could not be interrupted: give it the default.
        inherited = signal.getsignal(signal.SIGINT)
        if inherited == signal.SIG_IGN:
            signal.signal(signal.SIGINT, signal.SIG_DFL)
        try:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=self._log, text=True,
                env=env, cwd=ROOT,
            )
        finally:
            signal.signal(signal.SIGINT, inherited)
        self.url = ""

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        from repro.gateway import GatewayClient

        line = self.proc.stdout.readline()
        match = re.search(r"(http://\S+)", line)
        if not match:
            raise RuntimeError(
                f"gateway did not start (see {self.log_path}): {line!r}")
        self.url = match.group(1)
        deadline = time.monotonic() + timeout_s
        with GatewayClient(self.url, timeout_s=timeout_s) as client:
            while True:
                try:
                    client.health()
                    return
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)

    def stop(self) -> None:
        """Interrupt the child, wait for it, and drop its artefacts.

        The log is kept only when the child did not exit cleanly.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        shutil.rmtree(self.artifacts, ignore_errors=True)
        if self.proc.returncode == 0:
            os.remove(self.log_path)


def _start(tag: str, trace_out: Optional[str]) -> tuple:
    start = time.perf_counter()
    gateway = GatewayProcess(tag, trace_out)
    try:
        gateway.wait_ready()
    except BaseException:
        gateway.stop()
        raise
    return time.perf_counter() - start, gateway


# --------------------------------------------------------------------- #
# Load generator
# --------------------------------------------------------------------- #
class Tally:
    """Thread-safe request counts and problem log."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def request(self, fn, *args, **kwargs):
        """One counted request; returns ``None`` when it failed."""
        with self.lock:
            self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # non-2xx and transport errors count
            with self.lock:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def problem(self, text: str) -> None:
        with self.lock:
            self.problems.append(text)


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def push_loop(url, inputs: Inputs, offline, t0, deadline, tally, stats):
    """Thread A: monitor sessions, one after another, pushes on schedule."""
    from repro.gateway import GatewayClient

    k = 0  # global push index, sets the schedule
    with GatewayClient(url) as client:
        while time.perf_counter() < deadline:
            session = tally.request(client.create_session,
                                    inputs.session_request)
            if session is None:
                return
            sid = session["session_id"]
            pieces = {wl: [] for wl in inputs.wavelengths}
            for ppg, dc, tracks in inputs.chunks:
                due = t0 + (k + inputs.push_jitter[k]) / PUSH_RATE
                k += 1
                _sleep_until(due)
                sent = time.perf_counter()
                update = tally.request(client.push, sid, ppg, dc, tracks)
                done = time.perf_counter()
                stats["lag"].append(sent - due)
                if update is None:
                    continue
                stats["push_latency"].append(done - due)
                stats["push_service"].append(done - sent)
                for wl in inputs.wavelengths:
                    if "estimates" in update:
                        pieces[wl].append(
                            np.asarray(update["estimates"][str(wl)]))
            final = tally.request(client.finish_session, sid)
            tally.request(client.delete_session, sid)
            if final is None:
                continue
            stats["sessions"] += 1
            _check_session(inputs, offline, pieces, final, tally)


def _check_session(inputs, offline, pieces, final, tally) -> None:
    """Streamed == offline, bitwise, outside the cross-fade spans."""
    for wl in inputs.wavelengths:
        if final.get("final_estimates"):
            pieces[wl].append(np.asarray(final["final_estimates"][str(wl)]))
        streamed = np.concatenate(pieces[wl]) if pieces[wl] else np.empty(0)
        if streamed.shape != offline[wl].shape:
            tally.problem(f"session stream at {wl} nm has shape "
                          f"{streamed.shape}, offline {offline[wl].shape}")
            continue
        keep = np.ones(streamed.size, dtype=bool)
        for lo, hi in final["crossfade_spans"][str(wl)]:
            keep[int(lo):int(hi)] = False
        if not np.array_equal(streamed[keep], offline[wl][keep]):
            tally.problem(f"session stream diverged from offline at {wl} nm")


def job_loop(url, inputs: Inputs, t0, deadline, tally, stats):
    """Thread B: submit jobs on schedule, poll the outstanding ones."""
    from repro.gateway import GatewayClient

    outstanding: List[dict] = []
    j = 0
    next_poll = t0
    with GatewayClient(url) as client:
        while True:
            now = time.perf_counter()
            due = t0 + (j + inputs.job_jitter[j]) / JOB_RATE
            submitting = due < deadline
            if not submitting and not outstanding:
                return
            if submitting and now >= due:
                index = j % len(inputs.job_wire)
                j += 1
                job = tally.request(client.submit_job, inputs.job_wire[index])
                sent_done = time.perf_counter()
                stats["lag"].append(now - due)
                if job is not None:
                    stats["submit"].append(sent_done - now)
                    outstanding.append({"id": job["job_id"], "due": due,
                                        "index": index, "polls": 0})
                continue
            if outstanding and now >= next_poll:
                next_poll = now + POLL_S
                for entry in list(outstanding):
                    t_poll = time.perf_counter()
                    record = tally.request(client.job, entry["id"])
                    seen = time.perf_counter()
                    if record is None:
                        outstanding.remove(entry)
                        continue
                    stats["poll"].append(seen - t_poll)
                    entry["polls"] += 1
                    if record["state"] in ("queued", "running"):
                        continue
                    outstanding.remove(entry)
                    _finish_job(entry, record, seen, tally, stats)
                continue
            wake = [next_poll] if outstanding else []
            if submitting:
                wake.append(due)
            _sleep_until(min(wake))


def _finish_job(entry, record, seen, tally, stats) -> None:
    if record["state"] != "done":
        tally.problem(f"job {entry['id']} ended {record['state']!r}: "
                      f"{record.get('error')}")
        with tally.lock:
            tally.failed += 1
        return
    stats["job_latency"].append(seen - entry["due"])
    stats["last_done"] = seen
    stats["polls_per_job"].append(entry["polls"])
    stats["queue_wait"].append(record["started_at"] - record["created_at"])
    stats["run"].append(record["finished_at"] - record["started_at"])
    stats["records_done"] += record["n_records"]
    if entry["index"] not in stats["sdr"]:
        stats["sdr"][entry["index"]] = [
            float(score[0])
            for summary in record["record_summaries"]
            for score in summary["scores"].values()
        ]
        stats["done_ids"][entry["index"]] = entry["id"]


def _check_job(url, inputs: Inputs, stats, tally) -> None:
    """One job's served estimates == a local service run, bitwise."""
    from repro.gateway import GatewayClient
    from repro.service import SeparationService

    if not stats["done_ids"]:
        tally.problem("no job finished")
        return
    index, job_id = min(stats["done_ids"].items())
    with GatewayClient(url) as client:
        served = tally.request(client.job_result, job_id)
    if served is None:
        return
    with SeparationService(METHOD) as service:
        local = service.separate_batch(inputs.jobs[index]).batch.results
    for got, want in zip(served["records"], local):
        for source, est in got["estimates"].items():
            if not np.array_equal(np.asarray(est), want.estimates[source]):
                tally.problem(f"job {job_id} {source} estimates differ from "
                              f"a local run")


def _http_rtt_ms(url) -> float:
    """``GET /health`` back to back on one idle keep-alive connection."""
    from repro.gateway import GatewayClient

    samples = []
    with GatewayClient(url) as client:
        client.health()
        for _ in range(RTT_PROBES):
            start = time.perf_counter()
            client.health()
            samples.append(time.perf_counter() - start)
    return 1e3 * median(samples)


# --------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------- #
def run(ctx: Context) -> Outcome:
    inputs = Inputs(ctx.seed, ctx.tiny)
    offline = inputs.offline_fetal()
    push_bytes = inputs.push_bytes() if ctx.traced else []
    tag = f"{os.getpid()}-{ctx.seed}"
    trace_out = os.path.join(OUT, f"server-spans-{tag}.json") \
        if ctx.traced else None

    tally = Tally()
    stats = {
        "lag": [], "push_latency": [], "push_service": [], "submit": [],
        "poll": [], "job_latency": [], "polls_per_job": [],
        "queue_wait": [], "run": [], "records_done": 0, "sessions": 0,
        "last_done": 0.0,
        "sdr": {}, "done_ids": {},
    }
    setups: List[float] = []
    gateway: Optional[GatewayProcess] = None
    try:
        for k in range(SETUP_REPEATS):
            if gateway is not None:
                gateway.stop()
            elapsed, gateway = _start(
                f"{tag}-{k}",
                trace_out if k == SETUP_REPEATS - 1 else None,
            )
            setups.append(elapsed)
        rtt_ms = _http_rtt_ms(gateway.url) if ctx.traced else 0.0

        host = HostCounters()
        host.start()
        t0 = time.perf_counter() + 0.05
        deadline = t0 + ctx.seconds
        threads = [
            threading.Thread(target=push_loop, name="load-push", args=(
                gateway.url, inputs, offline, t0, deadline, tally, stats)),
            threading.Thread(target=job_loop, name="load-jobs", args=(
                gateway.url, inputs, t0, deadline, tally, stats)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=ctx.seconds + 120.0)
            if thread.is_alive():
                tally.problem(f"{thread.name} did not finish")
        counters = host.stop()
        _check_job(gateway.url, inputs, stats, tally)
    finally:
        if gateway is not None:
            gateway.stop()

    outcome = Outcome(correct=False, attempted=tally.attempted,
                      failed=tally.failed, problems=tally.problems)
    if not stats["push_latency"] or not stats["job_latency"]:
        tally.problem("no push or no job completed")
        return outcome
    if len(stats["sdr"]) < len(inputs.jobs):
        tally.problem(f"only {len(stats['sdr'])} of {len(inputs.jobs)} "
                      f"distinct jobs finished")
    if not stats["sessions"]:
        tally.problem("no monitor session completed")
    push_ms = [1e3 * v for v in stats["push_latency"]]
    outcome.end_to_end = {
        "setup_s": median(setups),
        # Over the job stream only, until its last job was seen done (the
        # push thread's last session may run past the deadline): the
        # offered rate while the gateway keeps up, less once it lags.
        "records_per_s": stats["records_done"] / (stats["last_done"] - t0),
        "record_p50_s": median(stats["job_latency"]),
        "op_p50_ms": median(push_ms),
        "sdr_db": float(np.mean([v for s in stats["sdr"].values() for v in s])),
        "peak_rss_mb": counters["peak_rss_mb"],
    }
    if ctx.traced:
        layers = {
            "gateway.http_rtt_ms": rtt_ms,
            "gateway.push.ms": 1e3 * median(stats["push_service"]),
            "gateway.push.p95_ms": quantile(push_ms, 0.95),
            "gateway.push.count": float(len(push_ms)),
            "gateway.wire.push_bytes": median(push_bytes),
            "gateway.submit.ms": 1e3 * median(stats["submit"]),
            "gateway.poll.ms": 1e3 * median(stats["poll"]),
            "gateway.polls_per_job": float(np.mean(stats["polls_per_job"])),
            "gateway.jobs.queue_wait_ms": 1e3 * median(stats["queue_wait"]),
            "gateway.jobs.run_ms": 1e3 * median(stats["run"]),
            "generator.lag_ms": 1e3 * quantile(stats["lag"], 0.95),
        }
        layers.update(_server_layers(
            trace_out, tally, counters["wall_s"]))
        layers.update(host_layers(counters))
        outcome.per_layer = layers
    outcome.samples = {
        "setup": setups, "push": stats["push_latency"],
        "job": stats["job_latency"], "lag": stats["lag"],
    }
    outcome.correct = not tally.problems and tally.failed == 0
    return outcome


def _server_layers(path: str, tally: Tally, wall_s: float) -> Dict[str, float]:
    """Mean self time per call of each server-side layer.

    Also the tracing overhead, estimated as spans recorded times the
    measured cost of one wrapper, as a share of the load window.
    """
    try:
        with open(path) as handle:
            spans = json.load(handle)
        os.remove(path)
    except (OSError, ValueError) as exc:
        tally.problem(f"no server-side spans ({exc})")
        return {}
    out = {}
    for name in ("gateway.sessions.push", "streaming.push", "gateway.wire",
                 "gateway.storage.write"):
        entry = spans.get(name)
        out[f"{name}.s"] = entry["self_s"] / entry["calls"] if entry else 0.0
    n_spans = sum(entry["calls"] for entry in spans.values())
    out["trace.overhead_pct"] = 100.0 * n_spans * wrapper_cost_s() / wall_s
    return out
