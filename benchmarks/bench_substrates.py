"""Micro-benchmarks of the substrates the experiments are built on.

The ``test_bench_*`` functions time the hot inner loops (STFT round
trip, harmonic convolution forward+backward, one Adam step of the SpAc
LU-Net, pattern alignment, and the analytic baselines) so performance
regressions are visible independently of the end-to-end experiment
benches.

Run as a script, the module instead compares the pluggable array
backends (:mod:`repro.backend`) on the DHF hot path — the stacked
deep-prior in-painting fit::

    PYTHONPATH=src python benchmarks/bench_substrates.py [--smoke]

Every :func:`repro.backend.available_backends` name fits the same batch
from the same seeds.  The ``numpy`` reference (float64) is the golden
row: its outputs must be *bitwise identical* to a fit with no backend
configured.  Accelerated rows must match the golden outputs within the
documented per-backend parity tolerance (``PARITY_RTOL``, mirrored in
docs/architecture.md "Backend substrate"), and the default run asserts
the ``numpy-f32`` fast path is at least ``SPEEDUP_TARGET``x faster than
the reference on the fit loop.  ``torch`` rows appear when torch is
installed and are skipped (with a note) when it is not; ``--smoke``
runs a small batch, checks parity only, and reports speedups without
asserting them (timing on tiny fits is noise-dominated).
"""

from __future__ import annotations

import argparse
import time
from typing import List, Tuple

import numpy as np
import pytest

from repro.backend import TORCH_AVAILABLE, available_backends
from repro.baselines import emd, nmf_kl, vmd
from repro.core.alignment import rewarp, unwarp
from repro.core.inpainting import InpaintingConfig, inpaint_spectrograms
from repro.dsp import istft, stft
from repro.nn import Adam, Tensor, build_prior_network, masked_mse_loss
from repro.nn import functional as F

N_FREQ = 33
N_FRAMES = 40
#: The reference backend; its fit IS the golden output (float64, bitwise
#: identical to running with no backend configured).
REFERENCE_BACKEND = "numpy"
#: Required fit-loop speedup of numpy-f32 over the float64 reference.
SPEEDUP_TARGET = 1.3
#: Iteration count of the parity fit.  Parity against the float64
#: golden fit is a short-horizon contract: per-step numerics agree to
#: the compute precision, but a deep-prior fit is a chaotic optimisation
#: — over many Adam steps rounding differences grow into genuinely
#: different (equally converged) fits, so long-horizon trajectory
#: equality is not a meaningful bound (docs/architecture.md, "Backend
#: substrate").
PARITY_ITERATIONS = 12
#: Documented max relative output deviation of each backend's
#: PARITY_ITERATIONS-step fit from the float64 golden fit.  The numpy
#: reference must be exactly bitwise identical.
PARITY_RTOL = {"numpy": 0.0, "numpy-f32": 5e-2, "torch": 5e-2}


def fit_config(iterations: int) -> InpaintingConfig:
    """The float64 reference fit configuration.

    Accelerated backends receive the *same* config; their dtype policy
    resolves the compute dtype (numpy-f32/torch fit in float32), which
    is exactly the speed-for-parity trade the comparison measures.
    """
    return InpaintingConfig(
        iterations=iterations, learning_rate=8e-3, base_channels=6,
        depth=2, in_channels=8, time_dilation=5, dtype=np.float64,
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


def run_fit(backend, magnitudes, visibilities, config):
    """One timed batched fit on ``backend``; returns (fits, seconds)."""
    start = time.perf_counter()
    fits = inpaint_spectrograms(
        magnitudes, visibilities, config,
        rngs=list(range(len(magnitudes))), backend=backend,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cross-backend comparison of the DHF fit loop"
    )
    parser.add_argument("--records", type=int, default=8,
                        help="batch size (default 8)")
    parser.add_argument("--iterations", type=int, default=60,
                        help="fit iterations per record (default 60)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run: parity checks + report, no "
                             "speedup assertion")
    args = parser.parse_args(argv)
    if args.records < 1:
        parser.error("--records must be >= 1")
    if args.iterations < 2:
        parser.error("--iterations must be >= 2")
    if args.smoke:
        args.records = min(args.records, 4)
        args.iterations = min(args.iterations, 12)

    config = fit_config(args.iterations)
    magnitudes, visibilities = build_batch(args.records)
    backends = available_backends()
    print(
        f"bench_substrates: DHF fit loop, {args.records} records x "
        f"{N_FREQ}x{N_FRAMES} cells, {args.iterations} iterations "
        f"(parity at {PARITY_ITERATIONS}); backends: {', '.join(backends)}"
    )

    # Parity pass: short-horizon fits against the float64 golden fit
    # (see PARITY_ITERATIONS on why trajectory parity is short-horizon).
    parity_config = fit_config(PARITY_ITERATIONS)
    golden, _ = run_fit(
        REFERENCE_BACKEND, magnitudes, visibilities, parity_config
    )
    deviations = {}
    for name in backends:
        fits, _ = run_fit(name, magnitudes, visibilities, parity_config)
        deviations[name] = max_relative_deviation(golden, fits)

    # Timing pass: caches (gather/tap plans, dtype-cast windows) are warm
    # from the parity pass, so each row times steady-state fitting.
    times = {}
    for name in backends:
        _, times[name] = run_fit(name, magnitudes, visibilities, config)
    t_ref = times[REFERENCE_BACKEND]

    for name in backends:
        speedup = t_ref / times[name]
        print(
            f"  {name:<10}: {times[name] * 1e3:8.1f} ms  "
            f"{speedup:6.2f}x vs {REFERENCE_BACKEND}  "
            f"max rel dev {deviations[name]:.2e} "
            f"(tol {PARITY_RTOL[name]:.0e})"
        )
    if not TORCH_AVAILABLE:
        print("  torch     : skipped (torch is not installed)")

    for name in backends:
        assert deviations[name] <= PARITY_RTOL[name], (
            f"backend {name!r} diverged from the {REFERENCE_BACKEND} "
            f"reference: {deviations[name]:.2e} > {PARITY_RTOL[name]:.0e}"
        )
    if not args.smoke:
        speedup = t_ref / times["numpy-f32"]
        assert speedup >= SPEEDUP_TARGET, (
            f"numpy-f32 only {speedup:.2f}x faster than the float64 "
            f"reference (target >= {SPEEDUP_TARGET}x)"
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
    x = Tensor(rng.standard_normal((1, 8, 65, 64)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.standard_normal((8, 8, 3, 3)).astype(np.float32) * 0.1,
               requires_grad=True)

    def step():
        x.zero_grad()
        w.zero_grad()
        out = F.harmonic_conv2d(x, w, anchor=1, time_dilation=5)
        loss = (out * out).sum()
        loss.backward()
        return float(loss.data)

    benchmark(step)


def test_bench_deep_prior_adam_step(benchmark, rng):
    net = build_prior_network("spac_dilated", rng=rng, base_channels=6,
                              depth=2, time_dilation=3)
    z = net.make_input_code(33, 32, rng=rng)
    target = rng.random((1, 1, 33, 32)).astype(np.float32)
    mask = (rng.random((1, 1, 33, 32)) > 0.3).astype(np.float32)
    optimizer = Adam(net.parameters(), lr=5e-3)

    def step():
        optimizer.zero_grad()
        loss = masked_mse_loss(net(z), target, mask)
        loss.backward()
        optimizer.step()
        return float(loss.data)

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
