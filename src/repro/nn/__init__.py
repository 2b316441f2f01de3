"""repro.nn — the paper's deep prior: the SpAc LU-Net and its fit.

Without a deep-learning framework as a dependency, this package
implements exactly what the deep-prior in-painting of Sec. 3.3 runs, in
NumPy: the SpAc LU-Net of Sec. 3.2 (:mod:`repro.nn.unet`; a
:class:`UNetConfig` also describes its Fig. 3 variants, tabled by
:func:`repro.core.config_for_prior_kind`), whose harmonic/standard
convolutions, instance norms, pooling and upsampling are raw-array
kernel pairs (:mod:`repro.nn.functional`) walked inside one graph node
with a hand-derived backward (:mod:`repro.nn.tensor`); the masked MSE of
Eq. 9 and its gradient (:mod:`repro.nn.loss`); Adam
(:mod:`repro.nn.optim`); and the record-stacked fit loop
(:mod:`repro.nn.batchfit`).  Every fit starts from its seeded random
init, as the paper's deep prior does, and hands back only what it
in-paints: no fitted network leaves the fit.
"""

from repro.nn.tensor import Tensor
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.layers import Conv2d, HarmonicConv2d, InstanceNorm2d, LeakyReLU
from repro.nn.loss import masked_mse_loss
from repro.nn.optim import Adam
from repro.nn.unet import SpAcLUNet, UNetConfig, stack_networks
from repro.nn.batchfit import BatchFitResult, EarlyStopConfig, fit_batched
from repro.nn import functional, init

__all__ = [
    "Tensor",
    "Module", "ModuleList", "Parameter",
    "Conv2d", "HarmonicConv2d", "InstanceNorm2d", "LeakyReLU",
    "masked_mse_loss", "Adam",
    "SpAcLUNet", "UNetConfig", "stack_networks",
    "BatchFitResult", "EarlyStopConfig", "fit_batched",
    "functional", "init",
]
