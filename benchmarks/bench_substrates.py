"""Micro-benchmarks of the substrates the experiments are built on.

The ``test_bench_*`` functions time the hot inner loops (STFT round
trip, harmonic convolution forward+backward, one Adam step of the SpAc
LU-Net, pattern alignment, and the analytic baselines) so performance
regressions are visible independently of the end-to-end experiment
benches.

Run as a script, the module instead compares the deep-prior fit's two
precisions (``InpaintingConfig.dtype``) on the DHF hot path — the
stacked in-painting fit::

    PYTHONPATH=src python benchmarks/bench_substrates.py [--smoke]

Both rows fit the same batch from the same seeds.  The float64 fit is
the reference row.  The float32 row must match it within
``PARITY_RTOL`` after ``PARITY_ITERATIONS`` iterations, and the default
run asserts the float32 fit loop is at least ``SPEEDUP_TARGET``x faster
than the float64 one.  ``--smoke`` runs a small batch, checks parity
only, and reports the speedup without asserting it (timing on tiny fits
is noise-dominated).

Both runs also report one fit iteration's cost at the smoke preset's
geometry (one 33 x 98 record, float32): milliseconds and minor page
faults per iteration after the first.  Faults count activation-sized
memory going back to the OS and coming back; the default run asserts at
most ``MAX_FAULTS_PER_ITERATION``, ``--smoke`` only reports.
"""

from __future__ import annotations

import argparse
import resource
import time
from typing import List, Tuple

import numpy as np
import pytest

from repro.baselines import emd, nmf_kl, vmd
from repro.core.alignment import rewarp, unwarp
from repro.core.inpainting import (
    InpaintingConfig,
    config_for_prior_kind,
    inpaint_spectrograms,
)
from repro.dsp import istft, stft
from repro.nn import Adam, SpAcLUNet, masked_mse_loss
from repro.nn import functional as F

N_FREQ = 33
N_FRAMES = 40
#: Required fit-loop speedup of float32 over the float64 reference.
SPEEDUP_TARGET = 1.3
#: Iteration count of the parity fit: the output after exactly one Adam
#: step.  Per-step numerics agree to single precision, but a deep-prior
#: fit is a chaotic optimisation, so over many steps rounding
#: differences grow into different (equally converged) fits; a longer
#: horizon would measure that chaos, not float32 parity.
PARITY_ITERATIONS = 2
#: Max relative output deviation of the float32 parity fit from the
#: float64 one.  Over input seeds 0-19 of the default 8-record batch
#: the reading has median 3.8e-5 and worst 7.8e-4; a float32 defect
#: reads far above it.
PARITY_RTOL = 5e-3
#: Max minor page faults per steady-state fit iteration.  A fit that
#: takes its transients from the network's workspace reads ~0; one that
#: allocates them afresh read ~360 at this geometry.
MAX_FAULTS_PER_ITERATION = 20


def fit_config(iterations: int, dtype=np.float64) -> InpaintingConfig:
    """The bench's fit configuration at ``dtype``."""
    return InpaintingConfig(
        iterations=iterations, learning_rate=8e-3, base_channels=6,
        depth=2, in_channels=8, time_dilation=5, dtype=dtype,
    )


def build_batch(
    n_records: int, seed: int = 0,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Synthetic pattern-aligned magnitudes with concealed time bands."""
    rng = np.random.default_rng(seed)
    magnitudes, visibilities = [], []
    frames = np.arange(N_FRAMES)
    for _ in range(n_records):
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
        magnitudes.append(magnitude)
        visibilities.append(visibility)
    return magnitudes, visibilities


def run_fit(magnitudes, visibilities, config):
    """One timed batched fit; returns (fits, seconds)."""
    start = time.perf_counter()
    fits = inpaint_spectrograms(
        magnitudes, visibilities, config,
        rngs=list(range(len(magnitudes))),
    )
    return list(fits), time.perf_counter() - start


def max_relative_deviation(golden, fits) -> float:
    """Max over records of ``max|out - ref| / max|ref|``."""
    worst = 0.0
    for ref, fit in zip(golden, fits):
        ref_out = np.asarray(ref.output, dtype=np.float64)
        out = np.asarray(fit.output, dtype=np.float64)
        scale = float(np.abs(ref_out).max()) or 1.0
        worst = max(worst, float(np.abs(out - ref_out).max()) / scale)
    return worst


def iteration_cost(n_frames: int = 98, iterations: int = 30):
    """Milliseconds and minor page faults per steady-state fit iteration.

    One smoke-preset network (float32) on one 33 x ``n_frames`` record;
    the first iteration, which sizes every buffer, is not counted.
    """
    config = InpaintingConfig(base_channels=6, depth=2, time_dilation=5)
    net = SpAcLUNet(config.network_config(), rng=0)
    rng = np.random.default_rng(0)
    code = net.make_input_code(N_FREQ, n_frames, rng=rng).data
    target = rng.random((1, 1, N_FREQ, n_frames)).astype(np.float32)
    mask = (rng.random(target.shape) > 0.3).astype(np.float32)
    optimizer = Adam(net.parameters(), lr=config.learning_rate)

    def iteration():
        optimizer.zero_grad()
        prediction = net(code)
        _, grad = masked_mse_loss(prediction.data, target, mask)
        prediction.backward(grad)
        optimizer.step()

    iteration()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(iterations):
        iteration()
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return seconds * 1e3 / iterations, faults / iterations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="float64 vs float32 comparison of the DHF fit loop"
    )
    parser.add_argument("--records", type=int, default=8,
                        help="batch size (default 8)")
    parser.add_argument("--iterations", type=int, default=60,
                        help="fit iterations per record (default 60)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run: parity check + report, no "
                             "speedup assertion")
    args = parser.parse_args(argv)
    if args.records < 1:
        parser.error("--records must be >= 1")
    if args.iterations < 2:
        parser.error("--iterations must be >= 2")
    if args.smoke:
        args.records = min(args.records, 4)
        args.iterations = min(args.iterations, 12)

    # First, while no larger fit has tuned the process's allocator.
    ms, faults = iteration_cost()
    magnitudes, visibilities = build_batch(args.records)
    print(
        f"bench_substrates: DHF fit loop, {args.records} records x "
        f"{N_FREQ}x{N_FRAMES} cells, {args.iterations} iterations "
        f"(parity at {PARITY_ITERATIONS}); float64 vs float32"
    )

    # Parity pass (see PARITY_ITERATIONS on why parity is one step).
    reference, _ = run_fit(
        magnitudes, visibilities, fit_config(PARITY_ITERATIONS, np.float64)
    )
    fast, _ = run_fit(
        magnitudes, visibilities, fit_config(PARITY_ITERATIONS, np.float32)
    )
    deviation = max_relative_deviation(reference, fast)

    # Timing pass: the gather/tap plans are warm from the parity pass,
    # so each row times steady-state fitting.
    _, t64 = run_fit(
        magnitudes, visibilities, fit_config(args.iterations, np.float64)
    )
    _, t32 = run_fit(
        magnitudes, visibilities, fit_config(args.iterations, np.float32)
    )
    speedup = t64 / t32
    print(f"  float64: {t64 * 1e3:8.1f} ms  (reference)")
    print(
        f"  float32: {t32 * 1e3:8.1f} ms  {speedup:6.2f}x  "
        f"max rel dev {deviation:.2e} (tol {PARITY_RTOL:.0e})"
    )
    print(
        f"  fit iteration (1 x {N_FREQ}x98, float32): {ms:6.2f} ms, "
        f"{faults:.1f} minor faults (max {MAX_FAULTS_PER_ITERATION})"
    )

    assert deviation <= PARITY_RTOL, (
        f"the float32 fit diverged from the float64 reference: "
        f"{deviation:.2e} > {PARITY_RTOL:.0e}"
    )
    if not args.smoke:
        assert speedup >= SPEEDUP_TARGET, (
            f"the float32 fit is only {speedup:.2f}x faster than float64 "
            f"(target >= {SPEEDUP_TARGET}x)"
        )
        assert faults <= MAX_FAULTS_PER_ITERATION, (
            f"a fit iteration takes {faults:.1f} minor page faults "
            f"(max {MAX_FAULTS_PER_ITERATION}): activation-sized memory "
            f"is being allocated and freed"
        )
    print("bench_substrates: OK")
    return 0


# --------------------------------------------------------------------- #
# pytest-benchmark micros
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_bench_stft_roundtrip(benchmark, rng):
    x = rng.standard_normal(20_000)

    def roundtrip():
        return istft(stft(x, 100.0, n_fft=512, hop=128))

    result = benchmark(roundtrip)
    assert np.abs(result - x).max() < 1e-9


def test_bench_harmonic_conv_forward_backward(benchmark, rng):
    x = rng.standard_normal((1, 8, 65, 64)).astype(np.float32)
    w, b = F.record_kernels(
        rng.standard_normal((8, 8, 3, 3)).astype(np.float32) * 0.1,
        np.zeros(8, dtype=np.float32),
    )

    scratch = F.Workspace()

    def step():
        # The gradients of sum(out ** 2), input gradient included.
        out, ctx = F.harmonic_conv2d_forward(x, w, b, scratch, anchor=1,
                                             time_dilation=5)
        F.harmonic_conv2d_backward(ctx, 2 * out, scratch)
        return float((out * out).sum())

    benchmark(step)


def test_bench_deep_prior_adam_step(benchmark, rng):
    config = config_for_prior_kind(
        "spac_dilated",
        InpaintingConfig(base_channels=6, depth=2, time_dilation=3),
    )
    net = SpAcLUNet(config.network_config(), rng=rng)
    z = net.make_input_code(33, 32, rng=rng)
    target = rng.random((1, 1, 33, 32)).astype(np.float32)
    mask = (rng.random((1, 1, 33, 32)) > 0.3).astype(np.float32)
    optimizer = Adam(net.parameters(), lr=5e-3)

    def step():
        optimizer.zero_grad()
        prediction = net(z)
        losses, grad = masked_mse_loss(prediction.data, target, mask)
        prediction.backward(grad)
        optimizer.step()
        return float(losses.sum())

    benchmark(step)


def test_bench_pattern_alignment(benchmark, rng):
    n = 30_000
    f0 = 1.0 + 0.3 * np.sin(np.arange(n) / 5000.0)
    x = np.sin(2 * np.pi * np.cumsum(f0) / 100.0)

    def align():
        alignment = unwarp(x, 100.0, f0, 24)
        return rewarp(alignment.samples, alignment)

    benchmark(align)


def test_bench_emd(benchmark, rng):
    t = np.arange(4000) / 100.0
    x = np.sin(2 * np.pi * 1.3 * t) + 0.4 * np.sin(2 * np.pi * 3.7 * t)
    result = benchmark(lambda: emd(x, max_imfs=6))
    assert np.allclose(result.sum(axis=0), x, atol=1e-8)


def test_bench_vmd(benchmark, rng):
    t = np.arange(2000) / 100.0
    x = np.sin(2 * np.pi * 1.0 * t) + 0.5 * np.sin(2 * np.pi * 3.0 * t)
    benchmark(lambda: vmd(x, n_modes=3, max_iterations=60, tol=1e-7))


def test_bench_nmf(benchmark, rng):
    v = rng.random((128, 60)) + 0.01
    benchmark(lambda: nmf_kl(v, n_components=6, n_iterations=50, rng=rng))


if __name__ == "__main__":
    raise SystemExit(main())
