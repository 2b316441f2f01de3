"""The SpAc LU-Net's layers: parameters plus the hyper-parameters their
kernels take.

A layer holds no forward of its own: :class:`repro.nn.unet.SpAcLUNet`
runs each one through its raw-array kernel pair in
:mod:`repro.nn.functional`, inside the network's single graph node.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.seeding import as_generator


class Conv2d(Module):
    """Standard 2-D convolution (NCHW, stride 1, square kernel), with bias.

    In a record-stacked network (:func:`repro.nn.unet.stack_networks`)
    every record is convolved with its own kernel.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        padding: int = 0,
        rng=None,
        dtype=np.float32,
    ):
        super().__init__()
        rng = as_generator(rng)
        self.padding = (padding, padding)
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), rng,
                dtype=dtype,
            )
        )
        self.bias = Parameter(init.zeros((out_channels,), dtype=dtype))


class HarmonicConv2d(Module):
    """Dilated harmonic convolution (paper Eqs. 1, 2, 8), with bias.

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
        rng=None,
        dtype=np.float32,
    ):
        super().__init__()
        if kernel_time % 2 == 0:
            raise ConfigurationError(
                f"kernel_time must be odd, got {kernel_time}"
            )
        rng = as_generator(rng)
        self.anchor = anchor
        self.time_dilation = time_dilation
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, n_harmonics, kernel_time), rng,
                dtype=dtype,
            )
        )
        self.bias = Parameter(init.zeros((out_channels,), dtype=dtype))


class InstanceNorm2d(Module):
    """Per-sample, per-channel normalisation over the spatial axes.

    Deep-prior fits run one sample per record, so instance norm is the
    natural normalisation.  The affine ``weight``/``bias`` are ``(C,)``,
    or ``(R, C)`` in a record-stacked network: one scale and shift per
    record.
    """

    def __init__(self, num_channels: int, eps: float = 1e-5,
                 dtype=np.float32):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones((num_channels,), dtype=dtype))
        self.bias = Parameter(init.zeros((num_channels,), dtype=dtype))


class LeakyReLU(Module):
    """Leaky rectifier; the network fuses it onto the preceding norm."""

    def __init__(self, negative_slope: float = 0.1):
        super().__init__()
        self.negative_slope = negative_slope
