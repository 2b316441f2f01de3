"""Numerical parity contract of the backend substrate.

Pins the documented bounds (docs/architecture.md, "Backend substrate"):

* the ``numpy`` reference is **bitwise identical** to running with no
  backend configured — the substrate may not perturb the golden path;
* float32-policy ops match the float64 ops to single-precision relative
  accuracy (``1e-5``) per operation;
* a float32 batch STFT round-trips within ``1e-4``;
* short-horizon fits (``PARITY_ITERATIONS``-scale) on float32-policy
  backends track the float64 fit within ``5e-2`` relative — long fits
  legitimately diverge (chaotic optimisation), which is why the bound
  is short-horizon;
* gradcheck of the per-record convolution kernels and
  stack-vs-one-record fit equivalence hold on every available backend
  (torch auto-skips when not installed).
"""

import numpy as np
import pytest

from repro.backend import TORCH_AVAILABLE, known_backends, use_backend
from repro.core.inpainting import (
    InpaintingConfig,
    inpaint_spectrogram,
    inpaint_spectrograms,
)
from repro.dsp import istft_batch, stft_batch
from repro.nn import Tensor, check_gradients
from repro.nn import functional as F
from repro.nn.init import kaiming_uniform, resolve_init_dtype

#: Max relative deviation of float32-policy ops from float64, per op.
OP_F32_RTOL = 1e-5
#: Max absolute error of a float32 batch-STFT round trip.
STFT_F32_ATOL = 1e-4
#: Max relative output deviation of a short float32-policy fit from the
#: float64 reference fit (matches benchmarks/bench_substrates.py).
FIT_F32_RTOL = 5e-2
#: Stack-vs-one-record equivalence per backend (numpy float64 keeps the
#: documented 1e-8 bound; float32 trajectories drift faster).
BATCH_EQUIV_ATOL = {"numpy": 1e-8, "numpy-f32": 5e-2, "torch": 5e-2}


def backend_params():
    """Every known backend; unavailable ones become explicit skips."""
    return [
        pytest.param(
            name,
            marks=pytest.mark.skipif(
                name == "torch" and not TORCH_AVAILABLE,
                reason="torch is not installed",
            ),
        )
        for name in known_backends()
    ]


def small_config(iterations=12, dtype=np.float64):
    return InpaintingConfig(
        iterations=iterations, learning_rate=8e-3, base_channels=4,
        depth=1, in_channels=4, time_dilation=3, dtype=dtype,
    )


def small_problem(n_records=2, seed=7):
    rng = np.random.default_rng(seed)
    magnitudes, visibilities = [], []
    for _ in range(n_records):
        magnitude = np.full((17, 24), 0.01)
        magnitude[4] += 1.0 + 0.2 * np.sin(np.arange(24) / 3.0)
        magnitude[8] += 0.7
        visibility = np.ones((17, 24), dtype=bool)
        start = int(rng.integers(4, 14))
        visibility[:, start: start + 5] = False
        magnitudes.append(magnitude)
        visibilities.append(visibility)
    return magnitudes, visibilities


def relative_deviation(ref, out) -> float:
    ref = np.asarray(ref, dtype=np.float64)
    out = np.asarray(out, dtype=np.float64)
    scale = float(np.abs(ref).max()) or 1.0
    return float(np.abs(out - ref).max()) / scale


class TestNumpyBitwiseIdentity:
    def test_fit_is_bitwise_identical(self):
        magnitudes, visibilities = small_problem(1)
        config = small_config()
        default = inpaint_spectrogram(
            magnitudes[0], visibilities[0], config, rng=0
        )
        explicit = inpaint_spectrogram(
            magnitudes[0], visibilities[0], config, rng=0, backend="numpy"
        )
        assert np.array_equal(default.output, explicit.output)
        assert np.array_equal(default.losses, explicit.losses)

    def test_stft_batch_is_bitwise_identical(self, rng):
        xs = rng.standard_normal((3, 400))
        default = stft_batch(xs, 100.0, n_fft=64)
        explicit = stft_batch(xs, 100.0, n_fft=64, backend="numpy")
        assert default.values.dtype == np.complex128
        assert np.array_equal(default.values, explicit.values)
        assert np.array_equal(
            istft_batch(default), istft_batch(explicit, backend="numpy")
        )


class TestF32OpParity:
    def test_harmonic_conv_matches_f64(self, rng):
        x64 = rng.standard_normal((2, 3, 33, 16))
        w64 = rng.standard_normal((2, 3, 3, 3, 3)) * 0.2  # one per record
        out64 = F.harmonic_conv2d(
            Tensor(x64), Tensor(w64), anchor=1, time_dilation=2
        ).data
        with use_backend("numpy-f32"):
            out32 = F.harmonic_conv2d(
                Tensor(x64.astype(np.float32)),
                Tensor(w64.astype(np.float32)),
                anchor=1, time_dilation=2,
            ).data
        assert out32.dtype == np.float32
        assert relative_deviation(out64, out32) <= OP_F32_RTOL

    def test_conv2d_matches_f64(self, rng):
        x64 = rng.standard_normal((2, 3, 9, 11))
        w64 = rng.standard_normal((2, 4, 3, 3, 3)) * 0.2  # one per record
        out64 = F.conv2d(Tensor(x64), Tensor(w64), padding=1).data
        with use_backend("numpy-f32"):
            out32 = F.conv2d(
                Tensor(x64.astype(np.float32)),
                Tensor(w64.astype(np.float32)), padding=1,
            ).data
        assert relative_deviation(out64, out32) <= OP_F32_RTOL

    def test_stft_f32_round_trip(self, rng):
        xs = rng.standard_normal((2, 500))
        batch = stft_batch(xs, 100.0, n_fft=64, backend="numpy-f32")
        assert batch.values.dtype == np.complex64
        restored = istft_batch(batch, backend="numpy-f32")
        assert restored.dtype == np.float32
        assert float(np.abs(restored - xs).max()) <= STFT_F32_ATOL


class TestFitParity:
    def test_f32_fit_tracks_f64_short_horizon(self):
        magnitudes, visibilities = small_problem(1)
        config = small_config()
        reference = inpaint_spectrogram(
            magnitudes[0], visibilities[0], config, rng=0
        )
        fast = inpaint_spectrogram(
            magnitudes[0], visibilities[0], config, rng=0,
            backend="numpy-f32",
        )
        # _restore returns float64 for every backend; the fitted network
        # weights are the evidence the fit actually ran in float32.
        assert fast.network.parameters()[0].data.dtype == np.float32
        assert relative_deviation(
            reference.output, fast.output
        ) <= FIT_F32_RTOL


class TestInitDtypePolicy:
    def test_default_stays_float32(self):
        assert resolve_init_dtype(None) == np.float32
        rng = np.random.default_rng(0)
        assert kaiming_uniform((3, 3), rng).dtype == np.float32

    def test_explicit_dtype_preserved_on_numpy(self):
        rng = np.random.default_rng(0)
        assert kaiming_uniform(
            (3, 3), rng, dtype=np.float64
        ).dtype == np.float64

    def test_f32_policy_overrides_explicit_dtype(self):
        rng = np.random.default_rng(0)
        with use_backend("numpy-f32"):
            assert resolve_init_dtype(np.float64) == np.float32
            assert kaiming_uniform(
                (3, 3), rng, dtype=np.float64
            ).dtype == np.float32


class TestCrossBackendSweep:
    @pytest.mark.parametrize("backend", backend_params())
    def test_gradcheck_harmonic_conv(self, rng, backend):
        # Tensors are built at float64 OUTSIDE the context (ops preserve
        # dtype mid-graph), so finite differences stay valid even on
        # float32-policy backends.
        x = Tensor(rng.standard_normal((2, 2, 17, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 2, 3, 3)) * 0.3,
                   requires_grad=True)
        with use_backend(backend):
            ok, worst = check_gradients(
                lambda: F.harmonic_conv2d(
                    x, w, anchor=1, time_dilation=2
                ).sum(),
                [x, w],
            )
        assert ok, f"{backend}: worst gradient error {worst:.3e}"

    @pytest.mark.parametrize("backend", backend_params())
    def test_gradcheck_conv2d(self, rng, backend):
        x = Tensor(rng.standard_normal((1, 2, 7, 9)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3,
                   requires_grad=True)
        with use_backend(backend):
            ok, worst = check_gradients(
                lambda: F.conv2d(x, w, padding=1).sum(), [x, w]
            )
        assert ok, f"{backend}: worst gradient error {worst:.3e}"

    @pytest.mark.parametrize("backend", backend_params())
    def test_batched_matches_sequential(self, backend):
        magnitudes, visibilities = small_problem(2)
        config = small_config(iterations=10)
        sequential = [
            inpaint_spectrogram(
                mag, vis, config, rng=k, backend=backend
            )
            for k, (mag, vis) in enumerate(zip(magnitudes, visibilities))
        ]
        batched = inpaint_spectrograms(
            magnitudes, visibilities, config, rngs=[0, 1], backend=backend,
        )
        worst = max(
            relative_deviation(s.output, b.output)
            for s, b in zip(sequential, batched)
        )
        assert worst <= BATCH_EQUIV_ATOL[backend], (
            f"{backend}: batched fit deviates {worst:.2e}"
        )
