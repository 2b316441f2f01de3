"""First-order optimisers and learning-rate schedulers.

The deep-prior in-painting loop uses :class:`Adam` (as in the Deep Image
Prior line of work); :class:`SGD` and :class:`RMSprop` are provided for
completeness and ablations.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Parameter


class Optimizer:
    """Base optimiser holding a flat parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ConfigurationError("optimizer received no parameters")
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params, lr: float = 1e-2, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        if momentum < 0:
            raise ConfigurationError(f"momentum must be >= 0, got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                self._velocity[i] = self.momentum * self._velocity[i] + grad
                grad = self._velocity[i]
            p.data = p.data - self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        # The update is fused into in-place buffer arithmetic: the moment
        # buffers are rescaled and accumulated without reallocating, and
        # the parameter is updated in place.  The elementwise operation
        # order is load-bearing: it reproduces the textbook out-of-place
        # formulation bit for bit, which the stacked-vs-one-record fit
        # equivalence (and every golden fixture downstream of a
        # deep-prior fit) is anchored on.
        self._step_count += 1
        t = self._step_count
        beta1, beta2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad * grad
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class RMSprop(Optimizer):
    """RMSprop with exponential moving average of squared gradients."""

    def __init__(self, params, lr: float = 1e-3, alpha: float = 0.99,
                 eps: float = 1e-8):
        super().__init__(params, lr)
        if not 0.0 <= alpha < 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1), got {alpha}")
        self.alpha = alpha
        self.eps = eps
        self._sq = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self._sq[i] = self.alpha * self._sq[i] + (1 - self.alpha) * p.grad ** 2
            p.data = p.data - self.lr * p.grad / (np.sqrt(self._sq[i]) + self.eps)


class StepLR:
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        if step_size <= 0:
            raise ConfigurationError(f"step_size must be positive, got {step_size}")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma


class CosineAnnealingLR:
    """Cosine-decay schedule from the initial LR down to ``eta_min``."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0):
        if t_max <= 0:
            raise ConfigurationError(f"t_max must be positive, got {t_max}")
        self.optimizer = optimizer
        self.t_max = t_max
        self.eta_min = eta_min
        self._base_lr = optimizer.lr
        self._epoch = 0

    def step(self) -> None:
        self._epoch = min(self._epoch + 1, self.t_max)
        cos = 0.5 * (1 + np.cos(np.pi * self._epoch / self.t_max))
        self.optimizer.lr = self.eta_min + (self._base_lr - self.eta_min) * cos
