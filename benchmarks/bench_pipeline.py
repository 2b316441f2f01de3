"""E-P1 benchmark: batched vectorized separation vs per-record loop iSTFT.

Separates a synthetic batch of short physiological records — three
harmonic sources per record, extracted by applying precomputed harmonic
ridge masks in the STFT domain — along two code paths:

``sequential-loop``
    The historical path: one record at a time, per-frame Python-loop
    synthesis (:func:`repro.dsp.istft_loop`), window and overlap-add
    normalizer rebuilt on every call.

``batched-vectorized``
    The batched path: records stacked and analysed by one
    stride-trick :func:`repro.dsp.stft_batch`, every (record, source)
    masked spectrogram inverted through the grouped overlap-add of
    :func:`repro.dsp.istft_batch`, sharing one cached
    :class:`repro.dsp.StftPlan` — processed in cache-sized chunks
    (:func:`repro.dsp.cache_friendly_chunk`) so intermediates stay
    L2-resident at any batch size.

Both paths compute the same estimates (asserted to ``<= 1e-8`` max
absolute error).  The default 32-record run asserts the batched path is
at least 3x faster; ``--smoke`` runs a small batch, checks equality, and
reports the speedup without asserting it (timing on tiny batches is
noise-dominated).

The module also demonstrates the same win end to end through
:meth:`repro.service.SeparationService.separate_batch` with the
spectral-masking baseline's vectorized ``separate_batch``.

Run:  PYTHONPATH=src python benchmarks/bench_pipeline.py [--smoke]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.masking import (
    default_bandwidth,
    f0_spread_per_frame,
    f0_track_to_frames,
    harmonic_ridge_mask,
)
from repro.dsp import (
    cache_friendly_chunk,
    istft_batch,
    istft_loop,
    stft,
    stft_batch,
)

FS = 100.0
N_FFT = 64
HOP = 16
N_HARMONICS = 4
SOURCE_F0S = (1.2, 2.1, 3.3)  # Hz — maternal / fetal / artefact band


@dataclass
class BenchBatch:
    """Synthetic records plus per-(record, source) harmonic masks."""

    signals: np.ndarray          # (B, n)
    masks_tf: np.ndarray         # (B, S, n_frames, n_freq) frame-major
    f0_tracks: List[dict]

    @property
    def n_records(self) -> int:
        return self.signals.shape[0]

    @property
    def n_sources(self) -> int:
        return self.masks_tf.shape[1]


def build_batch(n_records: int, duration_s: float, seed: int = 0) -> BenchBatch:
    """Quasi-periodic three-source mixtures with drifting fundamentals."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * FS)
    t = np.arange(n) / FS
    signals = np.empty((n_records, n))
    f0_tracks: List[dict] = []
    masks = []
    for b in range(n_records):
        mixed = 0.02 * rng.standard_normal(n)
        tracks = {}
        for s, f0 in enumerate(SOURCE_F0S):
            f0_b = f0 * (1.0 + 0.05 * rng.uniform(-1, 1))
            drift = 1.0 + 0.02 * np.sin(2 * np.pi * 0.05 * t + rng.uniform(0, 6))
            track = f0_b * drift
            phase = 2 * np.pi * np.cumsum(track) / FS
            for k in range(1, N_HARMONICS + 1):
                mixed = mixed + (0.8 / k) * np.sin(k * phase + rng.uniform(0, 6))
            tracks[f"src{s}"] = track
        signals[b] = mixed
        f0_tracks.append(tracks)

        spec = stft(mixed, FS, n_fft=N_FFT, hop=HOP)
        record_masks = []
        for s in range(len(SOURCE_F0S)):
            track = tracks[f"src{s}"]
            frames = f0_track_to_frames(track, FS, spec)
            spread = f0_spread_per_frame(track, FS, spec)
            mask = harmonic_ridge_mask(
                spec, frames, N_HARMONICS, default_bandwidth(),
                f0_spread=spread,
            )
            record_masks.append(mask.T)  # frame-major
        masks.append(np.stack(record_masks))
    return BenchBatch(
        signals=signals, masks_tf=np.stack(masks), f0_tracks=f0_tracks,
    )


def run_sequential_loop(batch: BenchBatch) -> np.ndarray:
    """Per-record separation through the frame-loop reference iSTFT."""
    B, S = batch.n_records, batch.n_sources
    out = np.empty((B, S, batch.signals.shape[1]))
    for b in range(B):
        spec = stft(batch.signals[b], FS, n_fft=N_FFT, hop=HOP)
        for s in range(S):
            masked = spec.with_values(spec.values * batch.masks_tf[b, s].T)
            out[b, s] = istft_loop(masked)
    return out


def run_batched(batch: BenchBatch) -> np.ndarray:
    """Chunked vectorized batch separation through the shared plan."""
    B, S = batch.n_records, batch.n_sources
    n = batch.signals.shape[1]
    out = np.empty((B, S, n))
    n_frames = batch.masks_tf.shape[2]
    chunk = cache_friendly_chunk(n_frames, N_FFT, n_lanes=2 + S)
    for start in range(0, B, chunk):
        stop = min(B, start + chunk)
        spec = stft_batch(batch.signals[start:stop], FS, n_fft=N_FFT, hop=HOP)
        for s in range(S):
            masked = spec.values * batch.masks_tf[start:stop, s]
            out[start:stop, s] = istft_batch(spec, masked)
    return out


def run_pipeline_demo(batch: BenchBatch) -> Tuple[float, float]:
    """Time spectral masking per-record vs its vectorized batch.

    The method comes out of the :mod:`repro.service` registry and runs
    through a :class:`repro.service.SeparationService`, the same front
    door the experiment runners use; serial ``separate_batch`` mode
    picks up the separator's vectorized batch hook automatically.
    """
    from repro import SeparationService, SeparationRecord
    from repro.service import SpectralMaskingSpec

    spec = SpectralMaskingSpec(
        n_fft_seconds=N_FFT / FS, n_harmonics=N_HARMONICS
    )
    records = [
        SeparationRecord(mixed=mixed, sampling_hz=FS, f0_tracks=tracks,
                         name=f"bench{i}")
        for i, (mixed, tracks) in enumerate(
            zip(batch.signals, batch.f0_tracks)
        )
    ]
    with SeparationService(spec) as service:
        start = time.perf_counter()
        for record in records:
            service.separate(record)
        t_seq = time.perf_counter() - start

        start = time.perf_counter()
        service.separate_batch(records)
        t_batch = time.perf_counter() - start
    return t_seq, t_batch


def _best_of(fn, batch, repeats: int) -> Tuple[float, np.ndarray]:
    result = fn(batch)  # warm caches and the FFT planner
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(batch)
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=32,
                        help="batch size (default 32)")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="record length in seconds (default 20)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats, best-of (default 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run: correctness + report, no "
                             "speedup assertion")
    args = parser.parse_args(argv)
    if args.records < 1:
        parser.error("--records must be >= 1")
    if args.duration * FS < 2 * N_FFT:
        parser.error(f"--duration must cover >= {2 * N_FFT / FS:.2f} s")

    if args.smoke:
        args.records = min(args.records, 8)
        args.duration = min(args.duration, 10.0)
        args.repeats = min(args.repeats, 2)

    batch = build_batch(args.records, args.duration)
    n_frames = batch.masks_tf.shape[2]
    print(
        f"bench_pipeline: {batch.n_records} records x "
        f"{batch.signals.shape[1]} samples, {batch.n_sources} sources, "
        f"n_fft={N_FFT}, hop={HOP} ({n_frames} frames/record)"
    )

    t_seq, ref = _best_of(run_sequential_loop, batch, args.repeats)
    t_bat, got = _best_of(run_batched, batch, args.repeats)

    err = float(np.abs(ref - got).max())
    speedup = t_seq / t_bat
    print(f"  sequential loop iSTFT : {t_seq * 1e3:8.2f} ms")
    print(f"  batched vectorized    : {t_bat * 1e3:8.2f} ms")
    print(f"  speedup               : {speedup:8.2f}x")
    print(f"  max |batched - loop|  : {err:8.2e}")

    assert err <= 1e-8, f"batched path diverged from sequential: {err:.2e}"
    if not args.smoke:
        assert speedup >= 3.0, (
            f"batched path only {speedup:.2f}x faster (target >= 3x)"
        )

    t_seq_p, t_bat_p = run_pipeline_demo(batch)
    print(
        f"  SpectralMasking separate vs separate_batch: "
        f"{t_seq_p * 1e3:.2f} ms -> {t_bat_p * 1e3:.2f} ms "
        f"({t_seq_p / t_bat_p:.2f}x; mask construction dominates and is "
        f"shared by both paths)"
    )
    print("bench_pipeline: OK")
    return 0


def test_bench_pipeline(benchmark):
    """pytest-benchmark entry point (explicit path collection only)."""
    batch = build_batch(8, 10.0)
    ref = run_sequential_loop(batch)
    got = benchmark.pedantic(run_batched, args=(batch,), rounds=1,
                             iterations=1)
    assert float(np.abs(ref - got).max()) <= 1e-8


if __name__ == "__main__":
    raise SystemExit(main())
