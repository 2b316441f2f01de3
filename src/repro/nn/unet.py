"""SpAc LU-Net: the Spectrally Accurate Light U-Net of the paper (Fig. 2).

A U-Net [Ronneberger et al. 2015] adapted for pattern-aligned spectrograms:

* standard convolutions are replaced by *dilated harmonic convolutions*
  (:class:`repro.nn.layers.HarmonicConv2d`);
* pooling in the **frequency** dimension is prohibited — the frequency size
  is preserved through the whole network (design principle 1, Sec. 3.2);
* only **forward** integral harmonic multiples are accessed (anchor = 1,
  design principle 2).

The factory :func:`build_prior_network` also builds the degraded variants
compared in Fig. 3: a conventional CNN, and the baseline harmonic network of
Zhang et al. with anchor > 1 and frequency max-pooling ("frequency
folding").
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SerializationError, ShapeError
from repro.nn import functional as F
from repro.nn.layers import (
    Conv2d,
    HarmonicConv2d,
    InstanceNorm2d,
    LeakyReLU,
    MaxPool2d,
    Sigmoid,
    UpsampleNearest,
)
from repro.nn.module import Module, ModuleList, Sequential
from repro.nn.tensor import Tensor, concatenate
from repro.utils.seeding import as_generator, spawn_generators

#: Network variants compared in Fig. 3 of the paper.
PRIOR_KINDS = (
    "conventional",        # standard 3x3 CNN U-Net
    "harmonic_baseline",   # Zhang et al.: anchor > 1, frequency pooling
    "spac",                # spectrally accurate: anchor 1, no freq pooling
    "spac_dilated",        # + time dilation aligned with unwarped patterns
)


def _crop_or_pad(x: Tensor, axis: int, target: int) -> Tensor:
    """Crop or zero-pad ``axis`` of ``x`` to exactly ``target`` entries."""
    current = x.shape[axis]
    if current == target:
        return x
    if current > target:
        index = [slice(None)] * x.ndim
        index[axis] = slice(0, target)
        return x[tuple(index)]
    pad_width = [(0, 0)] * x.ndim
    pad_width[axis] = (0, target - current)
    return x.pad(pad_width)


@dataclass(frozen=True)
class UNetConfig:
    """Hyper-parameters of a prior network.

    Attributes
    ----------
    in_channels:
        Channels of the random input code ``z``.
    base_channels:
        Channels of the first encoder level; deeper levels double.
    depth:
        Number of down/up-sampling levels.
    n_harmonics:
        Harmonics ``H`` spanned by each harmonic kernel.
    kernel_time:
        Time taps per kernel (odd).
    anchor:
        Harmonic anchor ``n`` (1 = spectrally accurate).
    time_dilation:
        Dilation ``D_conv`` of the time taps (Eq. 8).
    conv_kind:
        ``"harmonic"`` or ``"standard"``.
    freq_pooling:
        If true, max-pool and re-upsample the frequency axis (the
        baseline-harmonic degradation of Fig. 3).
    """

    in_channels: int = 8
    base_channels: int = 16
    depth: int = 3
    n_harmonics: int = 3
    kernel_time: int = 3
    anchor: int = 1
    time_dilation: int = 1
    conv_kind: str = "harmonic"
    freq_pooling: bool = False

    def __post_init__(self):
        if self.conv_kind not in ("harmonic", "standard"):
            raise ConfigurationError(
                f"conv_kind must be 'harmonic' or 'standard', got {self.conv_kind!r}"
            )
        if self.depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {self.depth}")
        if self.kernel_time % 2 == 0:
            raise ConfigurationError(
                f"kernel_time must be odd, got {self.kernel_time}"
            )


class ConvBlock(Module):
    """Two (conv -> instance-norm -> leaky-ReLU) stages."""

    def __init__(self, in_channels: int, out_channels: int, cfg: UNetConfig,
                 rng, dtype=np.float32):
        super().__init__()
        rngs = spawn_generators(rng, 2)
        stages: List[Module] = []
        channels = in_channels
        for i in range(2):
            if cfg.conv_kind == "harmonic":
                conv = HarmonicConv2d(
                    channels, out_channels,
                    n_harmonics=cfg.n_harmonics,
                    kernel_time=cfg.kernel_time,
                    anchor=cfg.anchor,
                    time_dilation=cfg.time_dilation,
                    rng=rngs[i], dtype=dtype,
                )
            else:
                conv = Conv2d(
                    channels, out_channels, kernel_size=3, padding=1,
                    rng=rngs[i], dtype=dtype,
                )
            stages += [conv, InstanceNorm2d(out_channels, dtype=dtype), LeakyReLU(0.1)]
            channels = out_channels
        self.body = Sequential(*stages)

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)


class SpAcLUNet(Module):
    """Spectrally Accurate Light U-Net (paper Sec. 3.2, Fig. 2).

    Maps a fixed random code ``z`` of shape ``(1, C_in, F, T)`` to a
    spectrogram magnitude estimate of shape ``(1, 1, F, T)`` in ``[0, 1]``.
    Downsampling acts on the time axis only (frequency pooling is prohibited
    unless ``cfg.freq_pooling`` deliberately re-enables it for the Fig. 3
    baseline variant).

    :func:`stack_networks` fuses R same-config networks into one whose
    parameters carry a leading *record* axis.  The stack maps codes
    ``(R, C_in, F, T)`` to estimates ``(R, 1, F, T)``, record ``r`` seeing
    only its own weights, so one forward/backward pass advances R
    independent fits.  An unstacked network is the one-record case of the
    same kernels.
    """

    def __init__(self, cfg: UNetConfig, rng=None, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        rng = as_generator(rng)
        n_blocks = 2 * cfg.depth + 1
        rngs = spawn_generators(rng, n_blocks + 1)

        pool_kernel = (2, 2) if cfg.freq_pooling else (1, 2)

        self.encoders = ModuleList()
        channels = cfg.in_channels
        enc_channels: List[int] = []
        for level in range(cfg.depth):
            out_ch = cfg.base_channels * (2 ** level)
            self.encoders.append(ConvBlock(channels, out_ch, cfg, rngs[level], dtype))
            enc_channels.append(out_ch)
            channels = out_ch
        self.pool = MaxPool2d(pool_kernel)
        self.bottleneck = ConvBlock(
            channels, channels * 2, cfg, rngs[cfg.depth], dtype
        )
        channels *= 2

        self.upsample = UpsampleNearest(pool_kernel)
        self.decoders = ModuleList()
        for level in reversed(range(cfg.depth)):
            skip_ch = enc_channels[level]
            block = ConvBlock(
                channels + skip_ch, skip_ch, cfg,
                rngs[cfg.depth + 1 + (cfg.depth - 1 - level)], dtype,
            )
            self.decoders.append(block)
            channels = skip_ch

        self.head = Conv2d(channels, 1, kernel_size=1, rng=rngs[-1], dtype=dtype)
        self.out_activation = Sigmoid()

    # ------------------------------------------------------------------ #
    # Record stacking
    # ------------------------------------------------------------------ #
    @property
    def stacked(self) -> bool:
        """True when the parameters carry a leading record axis."""
        return self.head.weight.ndim == 5

    @property
    def n_records(self) -> int:
        """Records fitted at once: the stack size, 1 when unstacked."""
        return self.head.weight.shape[0] if self.stacked else 1

    def _record_views(self, record: int) -> Iterator[Tuple[str, np.ndarray]]:
        """``(name, view)`` of every parameter's slice for ``record``."""
        if not 0 <= record < self.n_records:
            raise ShapeError(
                f"record {record} out of range for a stack of "
                f"{self.n_records}"
            )
        stacked = self.stacked
        for name, param in self.named_parameters():
            yield name, param.data[record] if stacked else param.data

    def record_state(self, record: int) -> Dict[str, np.ndarray]:
        """Record ``record``'s parameters as an unstacked state dict."""
        return {name: view.copy() for name, view in self._record_views(record)}

    def load_record_state(self, record: int,
                          state: Mapping[str, np.ndarray]) -> None:
        """Load one record's parameters from an unstacked state dict.

        The inverse of :meth:`record_state` — how a warm start from the
        prior zoo's :class:`repro.nn.zoo.FitCache` reaches one record of
        a stacked fit.  Names and per-record shapes must match exactly.
        """
        own = dict(self._record_views(record))
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise SerializationError(
                f"state dict mismatch for record {record}: "
                f"missing={missing}, unexpected={unexpected}"
            )
        for name, view in own.items():
            value = np.asarray(state[name])
            if value.shape != view.shape:
                raise ShapeError(
                    f"parameter {name!r}: state shape {value.shape} does "
                    f"not match record shape {view.shape}"
                )
            view[...] = value

    def compact(self, keep) -> None:
        """Keep only the records ``keep`` (in order), dropping the rest."""
        keep = np.asarray(keep, dtype=np.intp)
        stacked = self.stacked
        for param in self.parameters():
            data = param.data if stacked else param.data[None]
            param.data = np.ascontiguousarray(data[keep])
            param.grad = None

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, z: Tensor) -> Tensor:
        if z.ndim != 4:
            raise ShapeError(f"SpAcLUNet expects 4-D input, got {z.shape}")
        if z.shape[0] != self.n_records:
            raise ShapeError(
                f"input has {z.shape[0]} records but the network holds "
                f"{self.n_records}"
            )
        if z.shape[1] != self.cfg.in_channels:
            raise ShapeError(
                f"SpAcLUNet configured for {self.cfg.in_channels} input "
                f"channels, got {z.shape[1]}"
            )
        skips: List[Tensor] = []
        x = z
        for encoder in self.encoders:
            x = encoder(x)
            skips.append(x)
            x = self.pool(x)
        x = self.bottleneck(x)
        for decoder, skip in zip(self.decoders, reversed(skips)):
            x = self.upsample(x)
            x = _crop_or_pad(x, 2, skip.shape[2])
            x = _crop_or_pad(x, 3, skip.shape[3])
            x = concatenate([skip, x], axis=1)
            x = decoder(x)
        return self.out_activation(self.head(x))

    def make_input_code(self, n_freq: int, n_time: int,
                        rng=None, scale: float = 0.1,
                        dtype=np.float32) -> Tensor:
        """Draw the fixed random code ``z`` the prior is conditioned on."""
        rng = as_generator(rng)
        min_time = 2 ** self.cfg.depth
        if n_time < min_time:
            raise ShapeError(
                f"n_time={n_time} too small for depth {self.cfg.depth}; "
                f"need at least {min_time} frames"
            )
        data = rng.uniform(0, scale, size=(1, self.cfg.in_channels, n_freq, n_time))
        return Tensor(data.astype(dtype))


def stack_networks(networks: Sequence[SpAcLUNet]) -> SpAcLUNet:
    """Fuse same-config networks into one record-stacked :class:`SpAcLUNet`.

    Every parameter of the result is the record-wise stack of the
    networks' parameters under the same dotted name, copied bit for bit,
    so :meth:`SpAcLUNet.record_state` hands record ``r`` straight back to
    ``networks[r].load_state_dict``.  The inputs are left untouched.
    """
    networks = list(networks)
    if not networks:
        raise ConfigurationError("stack_networks needs at least one network")
    cfg = networks[0].cfg
    for net in networks:
        if net.cfg != cfg:
            raise ConfigurationError(
                f"all networks must share one UNetConfig; got {net.cfg} "
                f"vs {cfg}"
            )
        if net.stacked:
            raise ConfigurationError("stack_networks takes unstacked networks")
    params = [dict(net.named_parameters()) for net in networks]
    stacked = copy.deepcopy(networks[0])
    for name, param in stacked.named_parameters():
        param.data = np.stack([p[name].data for p in params])
    return stacked


def build_prior_network(kind: str, rng=None, in_channels: int = 8,
                        base_channels: int = 16, depth: int = 3,
                        n_harmonics: int = 3, time_dilation: int = 13,
                        dtype=np.float32) -> SpAcLUNet:
    """Build one of the four prior-network variants compared in Fig. 3.

    Parameters
    ----------
    kind:
        One of :data:`PRIOR_KINDS`:

        ``"conventional"``
            Standard 3x3-kernel CNN U-Net.
        ``"harmonic_baseline"``
            Harmonic convolutions with anchor 2 (backward harmonic access)
            and frequency max-pooling, as in Zhang et al. [21].
        ``"spac"``
            Spectrally accurate: anchor 1, no frequency pooling.
        ``"spac_dilated"``
            SpAc plus time dilation (the full paper design, Eq. 8).
    time_dilation:
        Dilation used by the ``"spac_dilated"`` variant.
    """
    if kind not in PRIOR_KINDS:
        raise ConfigurationError(
            f"unknown prior kind {kind!r}; expected one of {PRIOR_KINDS}"
        )
    common = dict(
        in_channels=in_channels, base_channels=base_channels, depth=depth,
        n_harmonics=n_harmonics, kernel_time=3,
    )
    if kind == "conventional":
        cfg = UNetConfig(conv_kind="standard", **common)
    elif kind == "harmonic_baseline":
        cfg = UNetConfig(conv_kind="harmonic", anchor=2, freq_pooling=True,
                         **common)
    elif kind == "spac":
        cfg = UNetConfig(conv_kind="harmonic", anchor=1, **common)
    else:  # spac_dilated
        cfg = UNetConfig(conv_kind="harmonic", anchor=1,
                         time_dilation=time_dilation, **common)
    return SpAcLUNet(cfg, rng=rng, dtype=dtype)
