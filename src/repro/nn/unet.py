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

A call runs the whole network as one graph node, through a *plan*: the
network's forward and backward, built once per fit from the kernel
builders of :mod:`repro.nn.functional` as two flat lists of NumPy calls
with every buffer, view and ``out=`` bound, and replayed on every later
call.  So an iteration after the first allocates no activation-sized
memory and rebuilds no view.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial
from operator import is_
from typing import List, Sequence, Tuple

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


def _input_slot(layer: Module, shape: tuple, dtype):
    """Where the layer before convolution ``layer`` writes its output.

    An anchor-1 harmonic convolution reads its input whole as harmonic
    1's lane of its gather buffer (see
    :func:`repro.nn.functional.harmonic_conv2d`), so its producer writes
    straight into that lane: returns ``(lane, buffer)``.  Before any
    other layer the producer keeps an output array of its own: ``(None,
    None)``.
    """
    if isinstance(layer, HarmonicConv2d) and layer.anchor == 1:
        n_harm = layer.weight.data.shape[-2]
        buffer = np.empty((shape[0], n_harm) + tuple(shape[1:]), dtype=dtype)
        return buffer[:, 0], buffer
    return None, None


class _Plan:
    """One network's forward and backward at one code geometry.

    Built from :meth:`SpAcLUNet.layers` by the kernel builders of
    :mod:`repro.nn.functional`: every buffer the network needs (saved
    activations, layer outputs, the role-shared transients of
    ``scratch``) plus one flat list of bound NumPy calls for the forward
    and one for the backward.  Each layer's output is the array its
    consumer keeps: a convolution writes the norm's normalised
    activations, normalised in place, and a norm, a pool or a decoder
    concatenation in front of an anchor-1 harmonic convolution writes
    that convolution's gather lane.  :meth:`forward` and
    :meth:`backward` replay the lists.

    A plan serves calls with the code shape, dtype and ``requires_grad``
    it was built for, while every parameter's ``data`` is still the
    array it bound (:meth:`binds`).
    """

    def __init__(self, layers: Sequence[tuple], params: Sequence, code,
                 scratch: F.Workspace):
        data = code.data
        self.key = (data.shape, data.dtype, code.requires_grad)
        self.bound = tuple(p.data for p in params)
        self.scratch = scratch  # the workspace its transients view
        dtype = np.result_type(data, *self.bound)
        last = len(layers) - 1

        # Forward, remembering each layer's backward builder.
        x, gathered = _input_slot(layers[0][1], data.shape, dtype)
        if x is None:
            x = np.empty(data.shape, dtype=dtype)
        self.code = x
        forward: list = []
        adjoints: list = []
        skips: List[np.ndarray] = []
        for index, step in enumerate(layers):
            kind = step[0]
            after = layers[index + 1] if index < last else None
            consumer = after[1] if after and after[0] == "conv" else None
            if kind == "conv":
                layer = step[1]
                w, b = F.record_kernels(layer.weight.data, layer.bias.data)
                if isinstance(layer, HarmonicConv2d):
                    x, calls, adjoint = F.harmonic_conv2d(
                        x, w, b, scratch, layer.anchor, layer.time_dilation,
                        gathered=gathered,
                    )
                else:
                    x, calls, adjoint = F.conv2d(x, w, b, scratch,
                                                 layer.padding)
                # A fit's code needs no gradient: the first convolution
                # then skips its input-gradient GEMM and scatter.
                adjoint = partial(adjoint,
                                  need_input=index > 0 or code.requires_grad)
            elif kind == "norm":
                norm = step[1]
                out, gathered = _input_slot(consumer, x.shape, dtype)
                x, calls, adjoint = F.instance_norm(
                    x, norm.weight.data, norm.bias.data, norm.eps, step[2],
                    scratch, out=out,
                )
            elif kind == "down":
                skips.append(x)
                (kh, kw), (n, c, h, w) = step[1], x.shape
                out, gathered = _input_slot(consumer, (n, c, h // kh, w // kw),
                                            dtype)
                x, calls, adjoint = F.max_pool2d(x, step[1], scratch, out=out)
            else:  # "up": upsample onto the newest skip, after the skip
                skip = skips.pop()
                n_skip = skip.shape[1]
                shape = (x.shape[0], n_skip + x.shape[1]) + skip.shape[2:]
                joined, gathered = _input_slot(consumer, shape, dtype)
                if joined is None:
                    joined = np.empty(shape, dtype=dtype)
                _, calls, adjoint = F.upsample_nearest(
                    x, step[1], scratch, size=skip.shape[2:],
                    out=joined[:, n_skip:],
                )
                calls.insert(0, partial(np.copyto, joined[:, :n_skip], skip))
                adjoint = partial(_concat_adjoint, adjoint, n_skip)
                x = joined
            forward += calls
            adjoints.append(adjoint)
        # The output sigmoid, 1 / (1 + exp(-x)), in place up to the
        # division, which :meth:`forward` makes into a fresh array.
        forward += [partial(np.negative, x, x), partial(np.exp, x, x),
                    partial(np.add, 1.0, x, x)]
        self.denominator = x
        self.forward_calls = forward

        # Backward, in reverse; a skip connection's share of the gradient
        # is parked until the matching "down" layer adds it.
        self.dy = g = np.empty(x.shape, dtype=dtype)
        self.one_minus_out = np.empty(x.shape, dtype=dtype)
        backward: list = []
        grads = {}
        skip_grads: List[np.ndarray] = []
        for step, adjoint in zip(reversed(layers), reversed(adjoints)):
            kind = step[0]
            if kind in ("conv", "norm"):
                layer = step[1]
                g, grad_w, grad_b, calls = adjoint(g)
                # Views, shaped like the parameters, of what the calls
                # write; :meth:`backward` hands out copies.
                for param, grad in ((layer.weight, grad_w),
                                    (layer.bias, grad_b)):
                    grads[id(param)] = F.reshape_view(grad,
                                                      param.data.shape)
            elif kind == "down":
                g, calls = adjoint(g)
                calls.append(partial(np.add, g, skip_grads.pop(), g))
            else:  # "up"
                skip_grad, g, calls = adjoint(g)
                skip_grads.append(skip_grad)
            backward += calls
        self.grad_code = g if code.requires_grad else None
        self.grads = [grads[id(p)] for p in params]
        self.backward_calls = backward

    def binds(self, code, params) -> bool:
        """Whether this plan serves a call on ``code`` (see the class)."""
        data = code.data
        return (data.shape, data.dtype, code.requires_grad) == self.key \
            and all(map(is_, (p.data for p in params), self.bound))

    def forward(self, code: np.ndarray) -> np.ndarray:
        """The network's output for ``code``, as a fresh array."""
        np.copyto(self.code, code)
        F.run(self.forward_calls)
        return np.true_divide(1.0, self.denominator)

    def backward(self, grad: np.ndarray, out: np.ndarray) -> tuple:
        """The code's gradient (``None`` unless it requires grad) and
        every parameter's, as fresh arrays, for the loss gradient
        ``grad`` of the output ``out`` of :meth:`forward`."""
        # Through the sigmoid: grad * out * (1 - out).
        np.multiply(grad, out, self.dy)
        np.subtract(1.0, out, self.one_minus_out)
        np.multiply(self.dy, self.one_minus_out, self.dy)
        F.run(self.backward_calls)
        grad_code = None if self.grad_code is None else self.grad_code.copy()
        return (grad_code, *(grad.copy() for grad in self.grads))


def _concat_adjoint(upsample_adjoint, n_skip: int, grad: np.ndarray):
    """Adjoint of an "up" layer: the skip's share of ``grad`` parked in
    an array of its own, then the upsample's adjoint of the rest."""
    skip_grad = np.empty(grad[:, :n_skip].shape, dtype=grad.dtype)
    grad_x, calls = upsample_adjoint(grad[:, n_skip:])
    calls.insert(0, partial(np.copyto, skip_grad, grad[:, :n_skip]))
    return skip_grad, grad_x, calls


def _build_plan(layers: Sequence[tuple], params: Sequence, code) -> _Plan:
    """A :class:`_Plan` for calls on ``code``, on a workspace of its own.

    The plan is built twice: the first build only sizes every role of
    the workspace to its largest request, so no view of the second
    points into a buffer that a later request superseded.
    """
    scratch = F.Workspace()
    _Plan(layers, params, code, scratch)
    return _Plan(layers, params, code, scratch)


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
        # The plan while no graph node owns it (see :meth:`__call__`).
        # Scratch memory, not state.
        self._idle = {}
        # ``(layers(), parameters())``, built by the first call.
        self._layout = None

    def __getstate__(self):
        # Copies and pickles start without a plan.
        state = dict(self.__dict__)
        state["_idle"] = {}
        state["_layout"] = None
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
        replays the plan's forward calls (:meth:`layers` built into one
        list by the kernel builders of :mod:`repro.nn.functional`); its
        backward replays the plan's backward calls and returns every
        parameter's gradient.  The code's gradient is computed only when
        the code requires grad, so a fit skips the first convolution's
        input-gradient GEMM and scatter.

        A recording call (one where anything requires grad) builds the
        plan on its first call and reuses it while the code's shape,
        dtype and ``requires_grad`` hold and every parameter's ``data``
        is still the array the plan bound; any other call builds a new
        one (after ``Adam`` re-points ``data``, after ``data`` is
        assigned, or for a code of another shape).  The code is copied
        into the plan's own input, so any array may be passed.  The plan
        belongs to the network while idle or to exactly one node: a
        recording forward pops it and the node's backward hands it back,
        so two live nodes, or two threads on one network, never share an
        array.  A forward that records nothing builds a plan of its own
        and runs it once.  The output and every gradient are fresh
        arrays.

        The layer and parameter lists are built by the first call and
        cached.
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
        if self._layout is None:
            self._layout = (self.layers(), self.parameters())
        layers, params = self._layout
        parents = (z, *params)
        record = any(p.requires_grad for p in parents)
        plan = self._idle.pop("plan", None) if record else None
        if plan is None or not plan.binds(z, params):
            plan = _build_plan(layers, params, z)
        out_data = plan.forward(z.data)
        out = Tensor(out_data, requires_grad=record)
        if not record:
            return out
        owned = [plan]

        def backward(grad):
            if not owned:
                raise GraphError(
                    "SpAcLUNet graph already backpropagated; its plan "
                    "went back to the network, so run the forward again"
                )
            plan = owned.pop()
            grads = plan.backward(grad, out_data)
            self._idle["plan"] = plan
            return grads

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
