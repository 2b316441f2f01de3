"""Sharded execution benchmark: sustained records/sec per fan-out path.

The historical process fan-out pickled the separator plus every array
once per record and bypassed the ``separate_batch`` hook, so DHF's
stacked deep-prior fits and the vectorized masking path never ran under
process "parallelism" — making it slower than the serial batch path for
exactly the workloads it should accelerate.  This benchmark measures the
fix (:class:`repro.pipeline.ShardedExecutor`, PR 9) by driving the same
record batches through three paths:

``serial-loop``
    One ``Separator.separate`` call per record — what per-record process
    fan-out degrades to, minus its pickling overhead (so it is a
    *flattering* baseline for the old path).
``serial-batch``
    A serial :class:`repro.service.SeparationService` (``workers=0``):
    one ``separate_batch`` call.
``process-shard``
    A persistent :class:`repro.service.SeparationService` process
    engine: shards in worker processes, arrays via shared memory, the
    separator pickled once per engine and unpickled once per worker.

Asserted invariants (both modes):

* float64 parity: every fan-out path matches ``serial-batch`` within
  ``1e-8`` max absolute deviation;
* zero per-record separator pickling, via a counting ``__reduce__``
  probe: the engine pickles the separator exactly once, at
  construction — independent of record and call counts.

The full run additionally asserts the process-shard path sustains at
least 2x the serial-loop records/sec on a 12-record DHF batch — the
in-worker batch stacking the old path threw away.  The gate relies on
each worker's BLAS being pinned to its share of the cores (the pool
initializer does this, see docs/architecture.md "Sharded execution"):
with every worker running one OpenBLAS thread per core, the deep-prior
fits oversubscribe the machine and the process path falls below the
serial loop on a 2-core box.  ``--smoke`` runs a
small batch and reports throughput without asserting speedups (tiny
fits are timing-noise-dominated).

Run:  PYTHONPATH=src python benchmarks/bench_sharding.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.baselines import SpectralMaskingSeparator
from repro.pipeline import ShardedExecutor, records_from_arrays
from repro.service import DHFSpec, SeparationService, build_separator, default_spec
from repro.synth import make_mixture

#: Documented float64 equivalence tolerance of every fan-out path
#: against the serial batch path (docs/architecture.md, "Sharded
#: execution").
PARITY_ATOL = 1e-8


class CountingMasking(SpectralMaskingSeparator):
    """Masking separator counting parent-side pickling events."""

    reduce_calls = 0

    def __reduce__(self):
        type(self).reduce_calls += 1
        return super().__reduce__()


def build_records(n_records: int, duration_s: float, seed: int = 11):
    """``n_records`` msig1 variants sharing one rate and geometry."""
    mixture = make_mixture("msig1", duration_s=duration_s, seed=seed)
    return records_from_arrays(
        [mixture.mixed * (1.0 + 0.01 * i) for i in range(n_records)],
        mixture.sampling_hz,
        mixture.f0_tracks,
    )


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def max_deviation(reference, candidate) -> float:
    """Max |a - b| across all records and sources of two batch results."""
    return max(
        float(np.abs(a.estimates[s] - b.estimates[s]).max())
        for a, b in zip(reference.results, candidate.results)
        for s in a.estimates
    )


def bench_method(title, spec, records, workers) -> float:
    """One method through all three paths; returns process/loop speedup."""
    separator = build_separator(spec)
    n = len(records)

    loop_est, t_loop = timed(lambda: [
        separator.separate(r.mixed, r.sampling_hz, r.f0_tracks)
        for r in records
    ])

    with SeparationService(separator) as svc:
        serial, t_serial = timed(lambda: svc.separate_batch(records))
    serial = serial.batch

    with SeparationService(spec, workers=workers) as svc:
        # Warm up: fork and initialise the workers.  The service runs a
        # one-record batch in the calling process, so this takes two.
        svc.separate_batch(records[:2])
        processed, t_process = timed(lambda: svc.separate_batch(records))
    processed = processed.batch

    dev_loop = max(
        float(np.abs(est[s] - res.estimates[s]).max())
        for est, res in zip(loop_est, serial.results) for s in est
    )
    dev_process = max_deviation(serial, processed)
    speedup = (n / t_process) / (n / t_loop)

    print(f"  {title}: {n} records x {records[0].n_samples} samples, "
          f"workers={workers}")
    for label, t in (("serial-loop", t_loop), ("serial-batch", t_serial),
                     ("process-shard", t_process)):
        print(f"    {label:13s}: {t * 1e3:8.1f} ms  ({n / t:7.2f} rec/s)")
    print(f"    process vs loop : {speedup:6.2f}x   max deviation: "
          f"loop {dev_loop:.2e}, process {dev_process:.2e}")

    for label, dev in (("serial-loop", dev_loop), ("process", dev_process)):
        assert dev <= PARITY_ATOL, (
            f"{title}: {label} path deviates from serial-batch by "
            f"{dev:.2e} > {PARITY_ATOL:.0e}"
        )
    return speedup


def bench_pickle_counts(records, workers) -> None:
    """Assert the engine pickles its separator exactly once."""
    CountingMasking.reduce_calls = 0
    with ShardedExecutor(CountingMasking(), workers=workers) as engine:
        engine.separate_records(records)
        engine.separate_records(records)
    calls = CountingMasking.reduce_calls

    print(f"  pickle probe: {calls} __reduce__ calls (for "
          f"{2 * len(records)} records over {workers} workers)")
    assert calls == 1, (
        f"the engine serialized the separator {calls} times "
        f"(expected exactly 1, at engine construction)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=12,
                        help="DHF batch size (default 12)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="record duration in seconds (default 5.0)")
    parser.add_argument("--workers", type=int, default=0,
                        help="fan-out width (default: min(4, cpu count))")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run: parity + pickle-count "
                             "checks, throughput reported not asserted")
    args = parser.parse_args(argv)
    if args.records < 2:
        parser.error("--records must be >= 2")
    if args.duration <= 0:
        parser.error("--duration must be positive")

    workers = args.workers or max(1, min(4, os.cpu_count() or 1))
    if args.smoke:
        args.records = min(args.records, 4)
        args.duration = min(args.duration, 3.0)

    print(f"bench_sharding: {'smoke' if args.smoke else 'full'} mode, "
          f"workers={workers}, cpu_count={os.cpu_count()}")

    dhf_records = build_records(args.records, args.duration)
    dhf_speedup = bench_method(
        "dhf (smoke preset, float64)",
        DHFSpec.from_preset("smoke", dtype="float64"),
        dhf_records, workers,
    )

    mask_records = build_records(
        max(args.records, 4 if args.smoke else 16), args.duration, seed=3
    )
    bench_method(
        "spectral-masking", default_spec("spectral-masking"),
        mask_records, workers,
    )

    bench_pickle_counts(build_records(3, args.duration, seed=5), workers)

    if not args.smoke:
        assert dhf_speedup >= 2.0, (
            f"process-shard path only {dhf_speedup:.2f}x the serial loop "
            f"on the DHF batch (target >= 2x)"
        )
    print("bench_sharding: OK")
    return 0


def test_bench_sharding(benchmark):
    """pytest-benchmark entry point (explicit path collection only)."""
    spec = DHFSpec.from_preset("smoke", dtype="float64")
    separator = build_separator(spec)
    records = build_records(3, 3.0)
    with SeparationService(separator) as svc:
        serial = svc.separate_batch(records).batch
    with ShardedExecutor(separator, workers=2) as engine:
        processed = benchmark.pedantic(
            engine.separate_records, args=(records,), rounds=1, iterations=1,
        )
    dev = max(
        float(np.abs(a.estimates[s] - est[s]).max())
        for a, est in zip(serial.results, processed)
        for s in a.estimates
    )
    assert dev <= PARITY_ATOL


if __name__ == "__main__":
    raise SystemExit(main())
