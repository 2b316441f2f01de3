"""repro.nn — a from-scratch NumPy deep-learning substrate.

The grading environment provides no PyTorch, so this package implements the
minimum viable deep-learning stack the paper's deep-prior method needs:
reverse-mode autograd (:mod:`repro.nn.tensor`), convolution operators
including the paper's dilated harmonic convolution
(:mod:`repro.nn.functional`), a module system, optimisers, and the
SpAc LU-Net architecture (:mod:`repro.nn.unet`).
"""

from repro.nn.tensor import Tensor, astensor, concatenate, is_grad_enabled, no_grad, stack, where
from repro.nn.module import Module, ModuleList, Parameter, Sequential
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    HarmonicConv2d,
    InstanceNorm2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
    UpsampleNearest,
)
from repro.nn.loss import l1_loss, masked_mse_loss, mse_loss
from repro.nn.optim import SGD, Adam, CosineAnnealingLR, Optimizer, RMSprop, StepLR
from repro.nn.unet import (
    PRIOR_KINDS,
    SpAcLUNet,
    UNetConfig,
    build_prior_network,
    stack_networks,
)
from repro.nn.batchfit import BatchFitResult, EarlyStopConfig, fit_batched
from repro.nn.serialization import (
    load_arrays,
    load_state,
    normalize_state_path,
    save_arrays,
    save_state,
)
from repro.nn.zoo import (
    FitCache,
    FitMetadata,
    PriorCheckpoint,
    PriorGeometry,
    PriorZoo,
    checkpoint_from_fit,
    shared_fit_cache,
)
from repro.nn import functional, init, zoo
from repro.nn.gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor", "astensor", "concatenate", "stack", "where", "no_grad",
    "is_grad_enabled",
    "Module", "ModuleList", "Parameter", "Sequential",
    "AvgPool2d", "Conv2d", "Dropout", "HarmonicConv2d", "InstanceNorm2d",
    "LeakyReLU", "Linear", "MaxPool2d", "ReLU", "Sigmoid", "Tanh",
    "UpsampleNearest",
    "l1_loss", "masked_mse_loss", "mse_loss",
    "SGD", "Adam", "CosineAnnealingLR", "Optimizer", "RMSprop", "StepLR",
    "PRIOR_KINDS", "SpAcLUNet", "UNetConfig", "build_prior_network",
    "stack_networks", "BatchFitResult", "EarlyStopConfig", "fit_batched",
    "load_arrays", "load_state", "normalize_state_path", "save_arrays",
    "save_state",
    "FitCache", "FitMetadata", "PriorCheckpoint", "PriorGeometry",
    "PriorZoo", "checkpoint_from_fit", "shared_fit_cache",
    "functional", "init", "zoo",
    "check_gradients", "numerical_gradient",
]
