"""Deep-prior spectrogram in-painting (paper Sec. 3.3, Eq. 9).

A randomly-initialised SpAc LU-Net is fitted to the *visible* cells of a
single pattern-aligned magnitude spectrogram; the network's structural
harmonic/periodic bias fills the concealed interference regions with
target-consistent values, exactly as Deep Image Prior fills masked image
regions.  No training data is involved — the optimisation *is* the
inference.

Every fit runs on one engine, :func:`repro.nn.batchfit.fit_batched` over a
record-stacked network: :func:`inpaint_spectrograms` stacks K same-geometry
fits, and :func:`inpaint_spectrogram` is its one-record case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, DataError, ShapeError
from repro.nn.batchfit import EarlyStopConfig, fit_batched
# Not called here; perfbench/layers.py wraps this name in traced runs.
from repro.nn.loss import masked_mse_loss  # noqa: F401
from repro.nn.unet import SpAcLUNet, UNetConfig, stack_networks
from repro.utils.seeding import as_generator, spawn_generators
from repro.utils.validation import as_2d_float_array

#: Upper bound of the uniform random code ``z`` each prior is
#: conditioned on (:meth:`repro.nn.unet.SpAcLUNet.make_input_code`).
_INPUT_CODE_SCALE = 0.1


@dataclass(frozen=True)
class InpaintingConfig:
    """Hyper-parameters of one deep-prior fit.

    The defaults are the full paper design (``"spac_dilated"``); the
    Fig. 3 variants come from :func:`config_for_prior_kind`, which sets
    ``conv_kind``, ``anchor`` and ``freq_pooling`` (and, for the
    undilated kinds, ``time_dilation=1``).

    ``dtype`` is the fit's one precision knob: the network, its input
    code, the normalised target and the mask are built at it, so every
    parameter and optimiser moment of the fit carries it.
    ``float32`` (default) is the fast setting; ``float64`` holds the
    stacked-vs-one-record equivalence to ``<= 1e-8``.  Anything
    :func:`numpy.dtype` maps to one of the two is accepted and stored as
    that numpy scalar type; any other value raises
    :class:`repro.errors.ConfigurationError`.
    """

    iterations: int = 300
    learning_rate: float = 3e-3
    base_channels: int = 16
    depth: int = 3
    in_channels: int = 8
    n_harmonics: int = 3
    kernel_time: int = 3
    anchor: int = 1
    time_dilation: int = 13
    freq_pooling: bool = False
    conv_kind: str = "harmonic"
    dtype: object = np.float32

    def __post_init__(self):
        try:
            dtype = np.dtype(self.dtype)
        except (TypeError, ValueError):
            dtype = None
        if dtype not in (np.float32, np.float64):
            raise ConfigurationError(
                f"InpaintingConfig.dtype must be float32 or float64, got "
                f"{self.dtype!r}"
            )
        object.__setattr__(self, "dtype", dtype.type)

    def network_config(self) -> UNetConfig:
        """The corresponding :class:`UNetConfig`."""
        return UNetConfig(
            in_channels=self.in_channels,
            base_channels=self.base_channels,
            depth=self.depth,
            n_harmonics=self.n_harmonics,
            kernel_time=self.kernel_time,
            anchor=self.anchor,
            time_dilation=self.time_dilation,
            conv_kind=self.conv_kind,
            freq_pooling=self.freq_pooling,
        )


#: The network variants compared in Fig. 3, as overrides of a base
#: :class:`InpaintingConfig`.  Only ``spac_dilated`` keeps the base's
#: time dilation.
_PRIOR_VARIANTS = {
    # standard 3x3 CNN U-Net
    "conventional": dict(conv_kind="standard", anchor=1, time_dilation=1,
                         freq_pooling=False),
    # Zhang et al.: anchor > 1, frequency pooling
    "harmonic_baseline": dict(conv_kind="harmonic", anchor=2,
                              time_dilation=1, freq_pooling=True),
    # spectrally accurate: anchor 1, no frequency pooling
    "spac": dict(conv_kind="harmonic", anchor=1, time_dilation=1,
                 freq_pooling=False),
    # + time dilation aligned with the unwarped patterns (Eq. 8)
    "spac_dilated": dict(conv_kind="harmonic", anchor=1, freq_pooling=False),
}

#: The Fig. 3 variant names, in the figure's order.
PRIOR_KINDS = tuple(_PRIOR_VARIANTS)


def config_for_prior_kind(kind: str, base: InpaintingConfig) -> InpaintingConfig:
    """Derive a Fig. 3 variant config from a base configuration.

    Its network is ``SpAcLUNet(config.network_config(), ...)``.
    """
    if kind not in _PRIOR_VARIANTS:
        raise ConfigurationError(
            f"unknown prior kind {kind!r}; expected one of {PRIOR_KINDS}"
        )
    return replace(base, **_PRIOR_VARIANTS[kind])


@dataclass
class InpaintingResult:
    """Outcome of a deep-prior fit.

    Attributes
    ----------
    output:
        In-painted magnitude spectrogram (same scale as the input).
    losses:
        Visible-region loss per iteration.
    concealed_errors:
        Optional per-iteration error on the concealed region against a
        ground-truth magnitude (only when ``reference`` was supplied —
        used by the Fig. 3 experiment).

    The fitted network is not kept: a deep prior is fitted afresh to
    each spectrogram and only its in-painting is used.
    """

    output: np.ndarray
    losses: np.ndarray
    concealed_errors: Optional[np.ndarray]
    #: Best-loss iteration the fit rolled back to when early stopping
    #: triggered; ``None`` when the fit ran its full iteration budget
    #: (always the case without an early-stop criterion).
    stop_iteration: Optional[int] = None


def _clamp_dilation(dilation: int, n_frames: int) -> int:
    """Keep the dilated kernel span inside the frame axis."""
    limit = max(1, (n_frames - 1) // 2)
    return max(1, min(dilation, limit))


def auto_time_dilation(visibility: np.ndarray, minimum: int = 5,
                       maximum: int = 15) -> int:
    """Paper's rule of thumb: larger dilation for longer masked sections.

    Sec. 4.2 uses 13 or 15 "according to the specific masking situation".
    We measure the mean concealed run length along time and pick an odd
    dilation that comfortably jumps across it.
    """
    concealed = ~np.asarray(visibility, dtype=bool)
    if not concealed.any():
        return minimum
    runs: List[int] = []
    for row in concealed:
        length = 0
        for cell in row:
            if cell:
                length += 1
            elif length:
                runs.append(length)
                length = 0
        if length:
            runs.append(length)
    if not runs:
        return minimum
    mean_run = float(np.mean(runs))
    dilation = int(np.ceil(mean_run * 1.5)) | 1  # odd
    return max(minimum, min(dilation, maximum))


def _validated_pair(magnitude, visibility):
    """Shared input validation of one (magnitude, visibility) pair.

    Deep-prior fitting needs a non-degenerate spectrogram and a mask
    that both shows *and* conceals something: an all-concealed mask
    leaves the cost of Eq. 9 empty, and an all-visible mask means there
    is nothing to in-paint — both would silently fit noise, so both
    raise :class:`repro.errors.DataError` instead.
    """
    magnitude = as_2d_float_array(magnitude, "magnitude")
    if magnitude.shape[1] < 2:
        raise DataError(
            f"magnitude spectrogram has {magnitude.shape[1]} frame(s); "
            f"deep-prior fitting needs at least 2 time frames"
        )
    if np.any(magnitude < 0):
        raise DataError("magnitude spectrogram must be non-negative")
    visibility_arr = np.asarray(visibility, dtype=bool)
    if visibility_arr.shape != magnitude.shape:
        raise ShapeError(
            f"visibility shape {visibility_arr.shape} != magnitude shape "
            f"{magnitude.shape}"
        )
    if not visibility_arr.any():
        raise DataError("visibility mask conceals everything")
    if visibility_arr.all():
        raise DataError(
            "visibility mask conceals nothing; there is nothing to in-paint"
        )
    return magnitude, visibility_arr


def _validated_reference(reference, magnitude) -> np.ndarray:
    reference = as_2d_float_array(reference, "reference")
    if reference.shape != magnitude.shape:
        raise ShapeError(
            f"reference shape {reference.shape} != magnitude shape "
            f"{magnitude.shape}"
        )
    return reference


def _normalize(magnitude: np.ndarray, dtype):
    """Scale one magnitude map into network space (peak 1)."""
    scale = float(magnitude.max())
    if scale <= 0:
        raise DataError("magnitude spectrogram is identically zero")
    return (magnitude / scale).astype(dtype), scale


def _restore(output: np.ndarray, scale: float) -> np.ndarray:
    """Undo :func:`_normalize` on a fitted network-space map."""
    return np.clip(output.astype(np.float64), 0.0, None) * scale


def inpaint_spectrogram(
    magnitude: np.ndarray,
    visibility: np.ndarray,
    config: InpaintingConfig,
    rng=None,
    reference: Optional[np.ndarray] = None,
    early_stop: Optional[EarlyStopConfig] = None,
) -> InpaintingResult:
    """Fit a deep prior to the visible cells and in-paint the rest.

    The one-record case of :func:`inpaint_spectrograms`: the same engine,
    seeding and early stopping on a stack of one.

    Parameters
    ----------
    magnitude:
        Magnitude spectrogram ``(n_freq, n_frames)`` (non-negative).
    visibility:
        Binary mask, 1 = cell participates in the cost (Eq. 9).
    config:
        Hyper-parameters.
    rng:
        Seed/generator for the network init and input code.
    reference:
        Optional ground-truth magnitude for tracking concealed-region error
        per iteration (Fig. 3 experiment).
    early_stop:
        Optional :class:`repro.nn.batchfit.EarlyStopConfig`; the fit then
        rolls back to its best-loss iteration once it stops improving.
    """
    return inpaint_spectrograms(
        [magnitude], [visibility], config, rngs=[rng],
        references=None if reference is None else [reference],
        early_stop=early_stop,
    )[0]


def inpaint_spectrograms(
    magnitudes: Sequence[np.ndarray],
    visibilities: Sequence[np.ndarray],
    config: InpaintingConfig,
    rngs: Optional[Sequence] = None,
    references: Optional[Sequence[np.ndarray]] = None,
    early_stop: Optional[EarlyStopConfig] = None,
) -> List[InpaintingResult]:
    """Fit K deep priors in one stacked pass (the engine's entry point).

    Every record keeps its own network, weights and optimiser trajectory;
    the records merely share one autograd graph per iteration through a
    network stacked by :func:`repro.nn.unet.stack_networks`.  With
    ``early_stop=None`` (the default) every record runs the full
    iteration budget and each :class:`InpaintingResult` matches the
    one-record fit for the same ``rngs[k]`` up to floating-point
    summation order (see the "Deep-prior fitting engine" section of
    ``docs/architecture.md`` for the documented tolerance); with an
    :class:`repro.nn.batchfit.EarlyStopConfig`, converged records roll
    back to their best-loss iteration (``stop_iteration``) and drop out
    of the running stack.

    Parameters
    ----------
    magnitudes:
        K magnitude spectrograms, all of one shape ``(n_freq, n_frames)``
        (records of different geometry belong in different batches).
    visibilities:
        K binary visibility masks, shape-matched per record.
    config:
        Shared hyper-parameters (one batch = one network geometry).
    rngs:
        Per-record seeds/generators (length K), or ``None`` for fresh
        entropy per record.  Record ``k`` draws its init and input code
        exactly as ``inpaint_spectrogram(..., rng=rngs[k])`` would.
    references:
        Optional per-record ground-truth magnitudes enabling the Fig. 3
        concealed-error diagnostic (all K or none).
    early_stop:
        Optional per-record convergence criterion.
    """
    magnitudes = list(magnitudes)
    visibilities = list(visibilities)
    if not magnitudes:
        raise ConfigurationError("inpaint_spectrograms needs >= 1 record")
    if len(visibilities) != len(magnitudes):
        raise ShapeError(
            f"{len(magnitudes)} magnitudes but {len(visibilities)} "
            f"visibility masks"
        )
    if rngs is not None:
        rngs = list(rngs)
        if len(rngs) != len(magnitudes):
            raise ShapeError(
                f"{len(magnitudes)} magnitudes but {len(rngs)} rngs"
            )
    else:
        rngs = [None] * len(magnitudes)
    if references is not None:
        references = list(references)
        if len(references) != len(magnitudes):
            raise ShapeError(
                f"{len(magnitudes)} magnitudes but {len(references)} "
                f"references"
            )

    pairs = [
        _validated_pair(mag, vis)
        for mag, vis in zip(magnitudes, visibilities)
    ]
    shape = pairs[0][0].shape
    for k, (mag, _) in enumerate(pairs[1:], start=1):
        if mag.shape != shape:
            raise ShapeError(
                f"record {k} has shape {mag.shape}, batch shape is {shape}; "
                f"group records by spectrogram geometry before batching"
            )
    n_freq, n_frames = shape

    dilation = _clamp_dilation(config.time_dilation, n_frames)
    net_cfg = replace(config, time_dilation=dilation).network_config()

    dtype = config.dtype
    networks: List[SpAcLUNet] = []
    codes: List[np.ndarray] = []
    normalized = np.empty((len(pairs), 1, n_freq, n_frames),
                          dtype=dtype)
    scales: List[float] = []
    for k, ((mag, _), rng) in enumerate(zip(pairs, rngs)):
        rng_init, rng_code = spawn_generators(as_generator(rng), 2)
        net = SpAcLUNet(net_cfg, rng=rng_init, dtype=dtype)
        code = net.make_input_code(
            n_freq, n_frames, rng=rng_code, scale=_INPUT_CODE_SCALE,
            dtype=dtype,
        )
        networks.append(net)
        codes.append(code.data)
        norm, scale = _normalize(mag, dtype)
        normalized[k, 0] = norm
        scales.append(scale)

    ref_stack = None
    if references is not None:
        ref_stack = np.empty((len(pairs), n_freq, n_frames))
        for k, ((mag, _), ref) in enumerate(zip(pairs, references)):
            ref = _validated_reference(ref, mag)
            ref_stack[k] = ref / scales[k]

    mask = np.stack(
        [vis for _, vis in pairs]
    ).astype(dtype)[:, None]
    # A network is its own stack of one; stacking would only copy it.
    fit = fit_batched(
        networks[0] if len(networks) == 1 else stack_networks(networks),
        code=np.concatenate(codes, axis=0),
        target=normalized,
        mask=mask,
        iterations=config.iterations,
        learning_rate=config.learning_rate,
        early_stop=early_stop,
        reference=ref_stack,
    )

    return [
        InpaintingResult(
            output=_restore(fit.outputs[k], scales[k]),
            losses=fit.losses[k],
            concealed_errors=(
                fit.concealed_errors[k] if fit.concealed_errors is not None
                else None
            ),
            stop_iteration=fit.stop_iterations[k],
        )
        for k in range(len(pairs))
    ]
