"""SpAc LU-Net: the Spectrally Accurate Light U-Net of the paper (Fig. 2).

A U-Net [Ronneberger et al. 2015] adapted for pattern-aligned spectrograms:

* standard convolutions are replaced by *dilated harmonic convolutions*
  (:class:`repro.nn.layers.HarmonicConv2d`);
* pooling in the **frequency** dimension is prohibited — the frequency size
  is preserved through the whole network (design principle 1, Sec. 3.2);
* only **forward** integral harmonic multiples are accessed (anchor = 1,
  design principle 2).

A :class:`UNetConfig` also describes the degraded variants compared in
Fig. 3: a conventional CNN (``conv_kind="standard"``), and the baseline
harmonic network of Zhang et al. with anchor > 1 and frequency
max-pooling ("frequency folding").  Their table is
:func:`repro.core.inpainting.config_for_prior_kind`.

A call runs the whole network as one graph node.  Its kernels save what
their adjoints need into per-layer slots and take every transient from
one :class:`repro.nn.functional.Workspace` per network; both persist
across a fit's iterations, so an iteration after the first allocates no
activation-sized memory.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    GraphError,
    ShapeError,
)
from repro.nn import functional as F
from repro.nn.layers import Conv2d, HarmonicConv2d, InstanceNorm2d, LeakyReLU
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor
from repro.utils.seeding import as_generator, spawn_generators

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
    """Two (conv -> instance-norm -> leaky-ReLU) stages.

    A parameter container: :class:`SpAcLUNet` runs its :meth:`stages`
    inside the network's single graph node.
    """

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
        self.body = ModuleList(stages)

    def stages(self) -> List[Tuple[Module, InstanceNorm2d, LeakyReLU]]:
        """The ``(conv, norm, activation)`` triples, in forward order."""
        body = list(self.body)
        return list(zip(body[0::3], body[1::3], body[2::3]))


def _forward_layers(layers: Sequence[tuple], x: np.ndarray,
                    saved: Optional[List[dict]], scratch: F.Workspace):
    """Run a :meth:`SpAcLUNet.layers` list over raw arrays.

    ``saved`` holds one slot of reused saved activations per layer
    (:func:`repro.nn.functional.saved_array`); with ``saved`` the
    forward records.  ``scratch`` is the kernels' shared
    :class:`repro.nn.functional.Workspace`.  Returns the sigmoid output
    and the tape: one kernel context per layer when recording, else an
    empty list.
    """
    save = saved is not None
    tape: list = []
    skips: List[np.ndarray] = []
    for index, step in enumerate(layers):
        kind = step[0]
        slot = saved[index] if save else None
        if kind == "conv":
            layer = step[1]
            w, b = F.record_kernels(layer.weight.data, layer.bias.data)
            if isinstance(layer, HarmonicConv2d):
                x, ctx = F.harmonic_conv2d_forward(
                    x, w, b, scratch, layer.anchor, layer.time_dilation,
                    save, slot,
                )
            else:
                x, ctx = F.conv2d_forward(
                    x, w, b, scratch, layer.padding, save, slot
                )
        elif kind == "norm":
            norm = step[1]
            x, ctx = F.instance_norm_forward(
                x, norm.weight.data, norm.bias.data, norm.eps, step[2],
                scratch, save, slot,
            )
        elif kind == "down":
            skips.append(x)
            x, ctx = F.max_pool2d_forward(x, step[1], save, slot)
        else:  # "up"
            skip = skips.pop()
            n_skip = skip.shape[1]
            joined = F.saved_array(
                slot, "concat",
                (x.shape[0], n_skip + x.shape[1]) + skip.shape[2:], x.dtype,
            )
            joined[:, :n_skip] = skip
            F.upsample_nearest_forward(
                x, step[1], size=skip.shape[2:], out=joined[:, n_skip:]
            )
            ctx = (n_skip, x.shape)
            x = joined
        if save:
            tape.append(ctx)
    return 1.0 / (1.0 + np.exp(-x)), tape


def _backward_layers(layers: Sequence[tuple], tape: list, out: np.ndarray,
                     grad: np.ndarray, need_input: bool, saved: List[dict],
                     scratch: F.Workspace):
    """Replay :func:`_forward_layers` in reverse.

    The gradient passed from layer to layer lives in ``scratch``; a
    skip connection's share is parked in its "up" layer's ``saved``
    slot until the matching "down" layer adds it.  Returns the input
    gradient (a fresh array; ``None`` unless ``need_input``) and a
    ``{id(parameter): gradient}`` map shaped like the parameters.
    """
    grads = {}
    skip_grads: List[np.ndarray] = []
    g = grad * out * (1.0 - out)
    for index in range(len(layers) - 1, -1, -1):
        step, ctx = layers[index], tape[index]
        kind = step[0]
        if kind == "conv":
            layer = step[1]
            kernel_backward = F.harmonic_conv2d_backward \
                if isinstance(layer, HarmonicConv2d) else F.conv2d_backward
            g, grad_w, grad_b = kernel_backward(
                ctx, g, scratch, need_input or index > 0
            )
            grads[id(layer.weight)] = grad_w.reshape(layer.weight.data.shape)
            grads[id(layer.bias)] = grad_b.reshape(layer.bias.data.shape)
        elif kind == "norm":
            norm = step[1]
            g, grad_w, grad_b = F.instance_norm_backward(ctx, g, scratch)
            grads[id(norm.weight)] = grad_w.reshape(norm.weight.data.shape)
            grads[id(norm.bias)] = grad_b.reshape(norm.bias.data.shape)
        elif kind == "down":
            g = F.max_pool2d_backward(ctx, g, scratch)
            g += skip_grads.pop()
        else:  # "up"
            n_skip, x_shape = ctx
            skip_grad = F.saved_array(saved[index], "skip_grad",
                                      g[:, :n_skip].shape, g.dtype)
            np.copyto(skip_grad, g[:, :n_skip])
            skip_grads.append(skip_grad)
            g = F.upsample_nearest_backward(
                g[:, n_skip:], step[1], x_shape, scratch
            )
    return (g.copy() if need_input else None), grads


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

        #: Max-pool kernel of each "down" step, and the scale of the
        #: nearest upsampling of each "up" step.
        self.pool_kernel = (2, 2) if cfg.freq_pooling else (1, 2)

        self.encoders = ModuleList()
        channels = cfg.in_channels
        enc_channels: List[int] = []
        for level in range(cfg.depth):
            out_ch = cfg.base_channels * (2 ** level)
            self.encoders.append(ConvBlock(channels, out_ch, cfg, rngs[level], dtype))
            enc_channels.append(out_ch)
            channels = out_ch
        self.bottleneck = ConvBlock(
            channels, channels * 2, cfg, rngs[cfg.depth], dtype
        )
        channels *= 2

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
        # The saved-activation set and its workspace while no graph node
        # owns them (see :meth:`__call__`).  Scratch memory, not state.
        self._idle = {}
        # ``(layers(), parameters())``, built by the first call.
        self._plan = None

    def __getstate__(self):
        # Copies and pickles start without saved-activation buffers.
        state = dict(self.__dict__)
        state["_idle"] = {}
        state["_plan"] = None
        return state

    # ------------------------------------------------------------------ #
    # Record stacking
    # ------------------------------------------------------------------ #
    @property
    def stacked(self) -> bool:
        """True when the parameters carry a leading record axis."""
        return self.head.weight.data.ndim == 5

    @property
    def n_records(self) -> int:
        """Records fitted at once: the stack size, 1 when unstacked."""
        return self.head.weight.data.shape[0] if self.stacked else 1

    def compact(self, keep) -> None:
        """Keep only the records ``keep`` (in order), dropping the rest.

        Also drops the idle saved-activation buffers and workspace,
        which are sized for the old stack, and the cached layer and
        parameter lists.
        """
        keep = np.asarray(keep, dtype=np.intp)
        self._idle.clear()
        self._plan = None
        stacked = self.stacked
        for param in self.parameters():
            data = param.data if stacked else param.data[None]
            param.data = np.ascontiguousarray(data[keep])
            param.grad = None

    # ------------------------------------------------------------------ #
    # Forward: one autograd node for the whole network
    # ------------------------------------------------------------------ #
    def layers(self) -> List[tuple]:
        """The network as a flat layer list, in forward order.

        Entries are ``("conv", layer)``, ``("norm", norm, slope)`` (an
        instance norm fused with its leaky ReLU), ``("down", kernel)``
        (keep the skip, then max-pool), ``("up", scale)`` (upsample onto
        the newest skip's extent and concatenate ``[skip, x]``), closed
        by the head convolution; the output sigmoid is implicit.
        """
        steps: List[tuple] = []

        def block(conv_block: ConvBlock) -> None:
            for conv, norm, act in conv_block.stages():
                steps.append(("conv", conv))
                steps.append(("norm", norm, act.negative_slope))

        for encoder in self.encoders:
            block(encoder)
            steps.append(("down", self.pool_kernel))
        block(self.bottleneck)
        for decoder in self.decoders:
            steps.append(("up", self.pool_kernel))
            block(decoder)
        steps.append(("conv", self.head))
        return steps

    def __call__(self, z) -> Tensor:
        """Map codes ``(R, C_in, F, T)`` to estimates ``(R, 1, F, T)``.

        ``z`` is an array, or a :class:`Tensor` whose gradient is wanted
        when it requires grad.  The whole network is **one** graph node
        whose parents are the code and every parameter.  Its forward
        walks :meth:`layers` over raw arrays through the kernel pairs of
        :mod:`repro.nn.functional`, saving only what the adjoint needs —
        and nothing at all when nothing requires grad.  Its backward
        replays the list in reverse and returns every parameter's
        gradient; the code's gradient is computed only when the code
        requires grad, so a fit skips the first convolution's
        input-gradient GEMM and scatter.

        The saved activations go into a set of per-layer arrays that
        persists across a fit's iterations while shapes and dtypes hold,
        and the kernels' transients into one
        :class:`repro.nn.functional.Workspace` that travels with the
        set.  Set and workspace belong to the network while idle or to
        exactly one node: a recording forward pops them (or starts new
        ones) and the node's backward hands them back, so two live
        nodes, or two threads on one network, never share an array.  A
        forward that records nothing runs on a workspace of its own.  The
        output and every gradient are fresh arrays.

        The layer and parameter lists are built once and cached until
        :meth:`compact`.
        """
        if not isinstance(z, Tensor):
            z = Tensor(z)
        shape = z.data.shape
        if len(shape) != 4:
            raise ShapeError(f"SpAcLUNet expects 4-D input, got {shape}")
        if shape[0] != self.n_records:
            raise ShapeError(
                f"input has {shape[0]} records but the network holds "
                f"{self.n_records}"
            )
        if shape[1] != self.cfg.in_channels:
            raise ShapeError(
                f"SpAcLUNet configured for {self.cfg.in_channels} input "
                f"channels, got {shape[1]}"
            )
        if self._plan is None:
            self._plan = (self.layers(), self.parameters())
        layers, params = self._plan
        parents = (z, *params)
        record = any(p.requires_grad for p in parents)
        if record:
            saved = self._idle.pop("saved", None) or [{} for _ in layers]
            scratch = self._idle.pop("scratch", None) or F.Workspace()
        else:
            saved, scratch = None, F.Workspace()
        out_data, tape = _forward_layers(layers, z.data, saved, scratch)
        out = Tensor(out_data, requires_grad=record)
        if not record:
            return out

        def backward(grad):
            if not tape:
                raise GraphError(
                    "SpAcLUNet graph already backpropagated; its saved "
                    "activations are released, so run the forward again"
                )
            grad_z, grads = _backward_layers(
                layers, tape, out_data, grad, z.requires_grad, saved,
                scratch,
            )
            tape.clear()
            self._idle["saved"] = saved
            self._idle["scratch"] = scratch
            return (grad_z, *(grads[id(p)] for p in params))

        out._ctx = (parents, backward)
        return out

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
    networks' parameters under the same dotted name, copied bit for bit.
    The inputs are left untouched.
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
