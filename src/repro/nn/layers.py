"""Layer modules: convolutions, normalisation, activations, resampling.

These wrap the operators in :mod:`repro.nn.functional` with parameter
management via :class:`repro.nn.module.Module`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.utils.seeding import as_generator


class Conv2d(Module):
    """Standard 2-D convolution layer (NCHW, stride 1).

    Runs :func:`repro.nn.functional.conv2d`, so in a record-stacked
    network (:func:`repro.nn.unet.stack_networks`) every record is
    convolved with its own kernel.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        padding=0,
        bias: bool = True,
        rng=None,
        dtype=np.float32,
    ):
        super().__init__()
        rng = as_generator(rng)
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.padding = F._pair(padding)
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kh, kw), rng, dtype=dtype)
        )
        if bias:
            self.bias = Parameter(init.zeros((out_channels,), dtype=dtype))
        else:
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, padding={self.padding})"
        )


class HarmonicConv2d(Module):
    """Dilated harmonic convolution layer (paper Eqs. 1, 2, 8).

    The kernel spans ``n_harmonics`` forward harmonics in frequency and
    ``kernel_time`` taps in time, spaced ``time_dilation`` frames apart.
    ``anchor=1`` gives the paper's spectrally-accurate variant; larger
    anchors reproduce the baseline harmonic convolution of Zhang et al.
    Like :class:`Conv2d`, it convolves each record of a record-stacked
    network with that record's own kernel.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        n_harmonics: int = 3,
        kernel_time: int = 3,
        anchor: int = 1,
        time_dilation: int = 1,
        bias: bool = True,
        rng=None,
        dtype=np.float32,
    ):
        super().__init__()
        if kernel_time % 2 == 0:
            raise ConfigurationError(
                f"kernel_time must be odd, got {kernel_time}"
            )
        rng = as_generator(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.n_harmonics = n_harmonics
        self.kernel_time = kernel_time
        self.anchor = anchor
        self.time_dilation = time_dilation
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, n_harmonics, kernel_time), rng,
                dtype=dtype,
            )
        )
        if bias:
            self.bias = Parameter(init.zeros((out_channels,), dtype=dtype))
        else:
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        return F.harmonic_conv2d(
            x, self.weight, self.bias,
            anchor=self.anchor, time_dilation=self.time_dilation,
        )

    def __repr__(self) -> str:
        return (
            f"HarmonicConv2d({self.in_channels}, {self.out_channels}, "
            f"n_harmonics={self.n_harmonics}, kernel_time={self.kernel_time}, "
            f"anchor={self.anchor}, time_dilation={self.time_dilation})"
        )


class InstanceNorm2d(Module):
    """Per-sample, per-channel normalisation over the spatial axes.

    Deep-prior fits run one sample per record, so instance norm is the
    natural normalisation (batch norm would be identical here anyway).  In
    a record-stacked network the affine ``weight``/``bias`` are ``(R, C)``:
    one scale and shift per record.
    """

    def __init__(self, num_channels: int, eps: float = 1e-5, affine: bool = True,
                 dtype=np.float32):
        super().__init__()
        self.num_channels = num_channels
        self.eps = eps
        if affine:
            self.weight = Parameter(init.ones((num_channels,), dtype=dtype))
            self.bias = Parameter(init.zeros((num_channels,), dtype=dtype))
        else:
            self.register_parameter("weight", None)
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ShapeError(f"InstanceNorm2d expects 4-D input, got {x.shape}")
        if x.shape[1] != self.num_channels:
            raise ShapeError(
                f"InstanceNorm2d configured for {self.num_channels} channels, "
                f"got {x.shape[1]}"
            )
        mean = x.mean(axis=(2, 3), keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=(2, 3), keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        if self.weight is not None:
            shape = (-1, self.num_channels, 1, 1)
            normed = normed * self.weight.reshape(shape) \
                + self.bias.reshape(shape)
        return normed


class LeakyReLU(Module):
    """Leaky rectifier activation."""

    def __init__(self, negative_slope: float = 0.1):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Logistic activation (used to bound spectrogram magnitudes)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class AvgPool2d(Module):
    """Non-overlapping average pooling."""

    def __init__(self, kernel):
        super().__init__()
        self.kernel = F._pair(kernel)

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel)


class MaxPool2d(Module):
    """Non-overlapping max pooling."""

    def __init__(self, kernel):
        super().__init__()
        self.kernel = F._pair(kernel)

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel)


class UpsampleNearest(Module):
    """Nearest-neighbour spatial upsampling."""

    def __init__(self, scale):
        super().__init__()
        self.scale = F._pair(scale)

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_nearest(x, self.scale)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self._rng = as_generator(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)


class Linear(Module):
    """Affine layer ``y = x W^T + b`` (completes the substrate's op set)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng=None, dtype=np.float32):
        super().__init__()
        rng = as_generator(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((out_features, in_features), rng, dtype=dtype)
        )
        if bias:
            self.bias = Parameter(init.zeros((out_features,), dtype=dtype))
        else:
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out
