"""Adam, the deep prior's optimiser (as in the Deep Image Prior line of work)."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Parameter


class Adam:
    """Adam with bias correction (Kingma & Ba, 2015).

    In a record-stacked fit the moment buffers carry the parameters'
    leading record axis; :meth:`compact` slices them when records drop
    out of the stack, so every record's trajectory stays
    elementwise-identical to a plain Adam over that record alone.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ConfigurationError("optimizer received no parameters")
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError(f"betas must be in [0, 1), got {betas}")
        self.lr = float(lr)
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

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
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad * grad
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    def compact(self, keep) -> None:
        """Keep only the records ``keep`` (in order) of every moment."""
        keep = np.asarray(keep, dtype=np.intp)
        self._m = [np.ascontiguousarray(m[keep]) for m in self._m]
        self._v = [np.ascontiguousarray(v[keep]) for v in self._v]
