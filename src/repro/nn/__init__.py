"""repro.nn — the paper's deep prior: the SpAc LU-Net and its fit.

Without a deep-learning framework as a dependency, this package
implements exactly what the deep-prior in-painting of Sec. 3.3 runs, in
NumPy: the SpAc LU-Net of Sec. 3.2 (:mod:`repro.nn.unet`; a
:class:`UNetConfig` also describes its Fig. 3 variants, tabled by
:func:`repro.core.config_for_prior_kind`), which is a name ->
:class:`Parameter` table and a flat layer list of harmonic/standard
convolutions, instance norms, pooling and upsampling.  Their kernel
builders (:mod:`repro.nn.functional`) turn the layer list into bound
calls that the network builds into one plan per fit and replays inside
one graph node with a hand-derived backward (:mod:`repro.nn.tensor`);
the masked MSE of Eq. 9 and its gradient (:mod:`repro.nn.loss`); Adam
(:mod:`repro.nn.optim`); and the record-stacked fit loop
(:mod:`repro.nn.batchfit`).  Every fit starts from its seeded random
init, as the paper's deep prior does, and hands back only what it
in-paints: no fitted network leaves the fit.
"""

from repro.nn.tensor import Parameter, Tensor
from repro.nn.loss import masked_mse_loss
from repro.nn.optim import Adam
from repro.nn.unet import SpAcLUNet, UNetConfig, stack_networks
from repro.nn.batchfit import BatchFitResult, fit_batched
from repro.nn import functional, init

__all__ = [
    "Tensor", "Parameter",
    "masked_mse_loss", "Adam",
    "SpAcLUNet", "UNetConfig", "stack_networks",
    "BatchFitResult", "fit_batched",
    "functional", "init",
]
