"""The deep-prior fit's one precision knob, ``InpaintingConfig.dtype``.

* only float32 and float64 are accepted, wherever the knob is set
  (``InpaintingConfig``, and ``DHFSpec`` through ``inpainting_config``);
* the network and code a fit runs on carry that dtype;
* a short float32 fit tracks the float64 fit of the same problem.
"""

import numpy as np
import pytest

import repro.core.inpainting as inpainting
from repro.core import InpaintingConfig, inpaint_spectrogram
from repro.errors import ConfigurationError
from repro.service import DHFSpec

#: Max relative output deviation of a short float32 fit from the
#: float64 fit of the same problem.
FIT_F32_RTOL = 5e-2


def small_config(iterations=12, dtype=np.float64):
    return InpaintingConfig(
        iterations=iterations, learning_rate=8e-3, base_channels=4,
        depth=1, in_channels=4, time_dilation=3, dtype=dtype,
    )


def small_problem(seed=7):
    rng = np.random.default_rng(seed)
    magnitude = np.full((17, 24), 0.01)
    magnitude[4] += 1.0 + 0.2 * np.sin(np.arange(24) / 3.0)
    magnitude[8] += 0.7
    visibility = np.ones((17, 24), dtype=bool)
    start = int(rng.integers(4, 14))
    visibility[:, start: start + 5] = False
    return magnitude, visibility


def relative_deviation(ref, out) -> float:
    scale = float(np.abs(ref).max()) or 1.0
    return float(np.abs(out - ref).max()) / scale


BUILDERS = {
    "InpaintingConfig": lambda dtype: InpaintingConfig(dtype=dtype),
    "DHFSpec": lambda dtype: DHFSpec(dtype=dtype),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize(
    "dtype", [np.float16, np.int32, np.complex64, "float16", 3],
    ids=["float16", "int32", "complex64", "str-float16", "int-3"],
)
def test_rejects_non_float32_float64(builder, dtype):
    with pytest.raises(ConfigurationError, match="dtype"):
        BUILDERS[builder](dtype)


@pytest.mark.parametrize("dtype,stored", [
    (np.float32, np.float32), ("float32", np.float32),
    (np.dtype("f8"), np.float64), ("float64", np.float64),
])
def test_accepted_dtype_is_stored_as_numpy_type(dtype, stored):
    assert InpaintingConfig(dtype=dtype).dtype is stored


def fit_dtypes(monkeypatch):
    """Spy on the fit engine: the parameter and code dtypes of each fit."""
    seen = []
    original = inpainting.fit_batched

    def spy(network, code, *args, **kwargs):
        seen.append((
            {param.data.dtype for param in network.parameters()},
            code.dtype,
        ))
        return original(network, code, *args, **kwargs)

    monkeypatch.setattr(inpainting, "fit_batched", spy)
    return seen


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fit_carries_the_config_dtype(dtype, monkeypatch):
    seen = fit_dtypes(monkeypatch)
    magnitude, visibility = small_problem()
    config = small_config(iterations=3, dtype=dtype)
    inpaint_spectrogram(magnitude, visibility, config, rng=0)
    assert seen == [({np.dtype(dtype)}, np.dtype(dtype))]


def test_f32_fit_tracks_f64_short_horizon(monkeypatch):
    magnitude, visibility = small_problem()
    reference = inpaint_spectrogram(
        magnitude, visibility, small_config(), rng=0
    )
    seen = fit_dtypes(monkeypatch)
    fast = inpaint_spectrogram(
        magnitude, visibility, small_config(dtype=np.float32), rng=0
    )
    # The restored output is float64 at either precision; the network
    # the fit ran on is the evidence it ran in float32.
    assert seen == [({np.dtype(np.float32)}, np.dtype(np.float32))]
    assert relative_deviation(
        reference.output, fast.output
    ) <= FIT_F32_RTOL
