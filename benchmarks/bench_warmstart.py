"""Warm-start benchmark: prior-zoo cache vs cold deep-prior fits.

The deep-prior fit (paper Sec. 3.3, Eq. 9) restarts from random weights
on every call, yet under sustained traffic the same ``(STFT geometry,
fit configuration)`` classes recur — repeated monitoring segments,
repeated mixtures, repeated experiment cells.  The warm-start prior zoo
(:mod:`repro.nn.zoo`) keeps finished fits in a geometry-keyed LRU cache
(optionally persisted as an on-disk :class:`repro.nn.zoo.PriorZoo`) and
re-seeds new fits from the nearest cached network.

This benchmark fits the same pattern-aligned spectrogram twice through
:func:`repro.core.inpainting.inpaint_spectrograms` with per-record early
stopping, sharing one :class:`repro.nn.zoo.FitCache`:

``cold``
    Empty cache: the fit starts from random weights, runs until the
    early-stop criterion fires, and its finished network is stored.

``warm``
    Same record, same seed: the cache answers with the cold fit's
    network, the fit starts at the cold plateau, and the criterion fires
    almost immediately.

Asserted targets (deterministic, so asserted in ``--smoke`` too):

* the warm fit converges in at least ``1.5x`` fewer iterations, and
* quality is unchanged — ``|SDR(cold) - SDR(warm)| <= 0.01 dB`` against
  the known clean magnitude.

The module also demonstrates the persistence layer: a second
:class:`FitCache` preloaded from the on-disk zoo (a fresh process, in
effect) warms the fit equally well, and a near-miss configuration
(same network structure, different learning rate) still finds a donor
via the same-geometry nearest-config fallback.

Run:  PYTHONPATH=src python benchmarks/bench_warmstart.py [--smoke]
"""

from __future__ import annotations

import argparse
import tempfile
import time
from typing import Tuple

import numpy as np

from repro.core.inpainting import InpaintingConfig, inpaint_spectrograms
from repro.metrics import sdr_db
from repro.nn.batchfit import EarlyStopConfig
from repro.nn.zoo import FitCache, PriorGeometry, PriorZoo

N_FREQ = 33
N_FRAMES = 40
#: Equal-quality target: warm and cold SDR against the clean magnitude
#: may differ by at most this much.
SDR_ATOL_DB = 0.01
#: Convergence target: the cold fit must spend at least this many times
#: the warm fit's iterations.
MIN_ITER_RATIO = 1.5


def fit_config(iterations: int, learning_rate: float = 8e-3) -> InpaintingConfig:
    """A smoke-preset-scale fit configuration (float64, deterministic)."""
    return InpaintingConfig(
        iterations=iterations, learning_rate=learning_rate, base_channels=6,
        depth=2, in_channels=8, time_dilation=5, dtype=np.float64,
    )


def build_record(seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """One synthetic aligned magnitude with two concealed time bands.

    Harmonic ridges with drifting amplitude (a quasi-periodic source
    after pattern alignment) over a small noise floor; the visibility
    mask conceals two interference bands.  The un-concealed magnitude is
    the ground truth the SDR assertions score against.
    """
    rng = np.random.default_rng(seed)
    frames = np.arange(N_FRAMES)
    magnitude = np.full((N_FREQ, N_FRAMES), 0.01)
    for harmonic in (4, 8, 12, 16):
        amplitude = 1.0 + 0.3 * np.sin(
            frames / rng.uniform(3.0, 6.0) + rng.uniform(0, 6)
        )
        magnitude[harmonic] += amplitude
    visibility = np.ones((N_FREQ, N_FRAMES), dtype=bool)
    start = rng.integers(4, 10)
    visibility[:, start: start + 6] = False
    start = rng.integers(22, 28)
    visibility[:, start: start + 5] = False
    return magnitude, visibility


def run_fit(magnitude, visibility, config, early, cache):
    """One cached fit; returns (iterations spent, SDR dB, elapsed s)."""
    geometry = PriorGeometry(n_freq=N_FREQ, n_frames=N_FRAMES)
    start = time.perf_counter()
    fit, = inpaint_spectrograms(
        [magnitude], [visibility], config, rngs=[0], early_stop=early,
        cache=cache, geometry=geometry,
    )
    elapsed = time.perf_counter() - start
    sdr = sdr_db(fit.output.ravel(), magnitude.ravel())
    return len(fit.losses), sdr, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=400,
                        help="fit iteration budget (default 400)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (same assertions: the "
                             "targets are iteration counts, not wall "
                             "time)")
    args = parser.parse_args(argv)
    if args.iterations < 50:
        parser.error("--iterations must be >= 50")
    if args.smoke:
        args.iterations = min(args.iterations, 160)

    config = fit_config(args.iterations)
    early = EarlyStopConfig(patience=10, rel_tol=1e-3, min_iterations=10)
    magnitude, visibility = build_record()
    print(
        f"bench_warmstart: {N_FREQ}x{N_FRAMES} cells, budget "
        f"{args.iterations} iterations, early stop patience="
        f"{early.patience} rel_tol={early.rel_tol}"
    )

    cache = FitCache(capacity=8)
    iters_cold, sdr_cold, t_cold = run_fit(
        magnitude, visibility, config, early, cache,
    )
    iters_warm, sdr_warm, t_warm = run_fit(
        magnitude, visibility, config, early, cache,
    )
    ratio = iters_cold / iters_warm
    print(f"  cold fit              : {iters_cold:4d} iterations, "
          f"{sdr_cold:6.2f} dB, {t_cold * 1e3:7.1f} ms")
    print(f"  warm fit (in-memory)  : {iters_warm:4d} iterations, "
          f"{sdr_warm:6.2f} dB, {t_warm * 1e3:7.1f} ms")
    print(f"  iteration ratio       : {ratio:6.2f}x "
          f"(target >= {MIN_ITER_RATIO}x)")
    print(f"  |SDR delta|           : {abs(sdr_cold - sdr_warm):8.4f} dB "
          f"(target <= {SDR_ATOL_DB})")
    assert ratio >= MIN_ITER_RATIO, (
        f"warm fit only {ratio:.2f}x fewer iterations "
        f"(target >= {MIN_ITER_RATIO}x)"
    )
    assert abs(sdr_cold - sdr_warm) <= SDR_ATOL_DB, (
        f"warm fit changed quality: |{sdr_cold:.4f} - {sdr_warm:.4f}| "
        f"> {SDR_ATOL_DB} dB"
    )

    # Persistence demo: replay the warm fit from the on-disk zoo through
    # a fresh cache — what a new process sees after a warmed-up one.
    with tempfile.TemporaryDirectory() as zoo_dir:
        zoo_cache = FitCache(capacity=8, zoo=PriorZoo(zoo_dir))
        run_fit(magnitude, visibility, config, early, zoo_cache)
        reloaded = FitCache(capacity=8, zoo=PriorZoo(zoo_dir))
        iters_disk, sdr_disk, t_disk = run_fit(
            magnitude, visibility, config, early, reloaded,
        )
        print(f"  warm fit (from zoo)   : {iters_disk:4d} iterations, "
              f"{sdr_disk:6.2f} dB, {t_disk * 1e3:7.1f} ms")
        assert iters_cold / iters_disk >= MIN_ITER_RATIO
        assert abs(sdr_cold - sdr_disk) <= SDR_ATOL_DB

        # Near-miss fallback: a different learning rate is a cache-key
        # miss but shares the network structure, so the nearest cached
        # same-geometry network still seeds it.
        near_config = fit_config(args.iterations, learning_rate=6e-3)
        donor = reloaded.lookup(
            PriorGeometry(n_freq=N_FREQ, n_frames=N_FRAMES), near_config,
        )
        assert donor is not None, "near-miss lookup found no donor"
        iters_near, sdr_near, _ = run_fit(
            magnitude, visibility, near_config, early, reloaded,
        )
        print(f"  near-miss fit (lr 6e-3): {iters_near:3d} iterations, "
              f"{sdr_near:6.2f} dB (donor via nearest-config fallback)")

    print("bench_warmstart: OK")
    return 0


def test_bench_warmstart(benchmark):
    """pytest-benchmark entry point (explicit path collection only)."""
    config = fit_config(120)
    early = EarlyStopConfig(patience=10, rel_tol=1e-3, min_iterations=10)
    magnitude, visibility = build_record()
    cache = FitCache(capacity=8)
    iters_cold, sdr_cold, _ = run_fit(
        magnitude, visibility, config, early, cache,
    )
    iters_warm, sdr_warm = benchmark.pedantic(
        run_fit, args=(magnitude, visibility, config, early, cache),
        rounds=1, iterations=1,
    )[:2]
    assert iters_cold / iters_warm >= MIN_ITER_RATIO
    assert abs(sdr_cold - sdr_warm) <= SDR_ATOL_DB


if __name__ == "__main__":
    raise SystemExit(main())
