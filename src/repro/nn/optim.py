"""Adam, the deep prior's optimiser (as in the Deep Image Prior line of work).

The optimiser keeps its whole state in one flat buffer: a row each of
parameters, gradients and the two moments, every parameter laid out at
the same offset in each row.  The parameters' ``data`` become views into
the parameter row, so a step is a dozen whole-buffer operations however
many parameter arrays the network has.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.module import Parameter


class Adam:
    """Adam with bias correction (Kingma & Ba, 2015).

    Construction copies every parameter into the flat state and points
    its ``data`` at its slice there; parameters must share one dtype.
    A step first gathers each ``grad`` into the gradient row (a
    parameter whose ``data`` was replaced since is copied back into the
    state first), then updates all parameters at once.  A parameter
    whose ``grad`` is ``None`` keeps its value and moments.

    In a record-stacked fit the parameters carry a leading record axis;
    the update is elementwise, so every record's trajectory is that of a
    plain Adam over that record alone.
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
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ConfigurationError(
                f"parameters must share one dtype, got {sorted(map(str, dtypes))}"
            )
        self.lr = float(lr)
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self._step_count = 0
        data = [p.data for p in self.params]
        sizes = [array.size for array in data]
        ends = np.cumsum(sizes)
        self._state = np.zeros((4, int(ends[-1])), dtype=data[0].dtype)
        self._scratch = np.empty((2, self._state.shape[1]),
                                 dtype=self._state.dtype)
        self._data, self._grads, self._m, self._v = (
            [row[end - size: end].reshape(array.shape)
             for array, size, end in zip(data, sizes, ends)]
            for row in self._state
        )
        for p, view in zip(self.params, self._data):
            view[...] = p.data
            p.data = view

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        # The elementwise operation order is load-bearing: every row op
        # below reproduces the textbook out-of-place formulation
        #     m = beta1 * m + (1 - beta1) * g
        #     v = beta2 * v + (1 - beta2) * g * g
        #     p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        # bit for bit (IEEE products commute), which the stacked-vs-one-
        # record fit equivalence, and every golden fixture downstream of
        # a deep-prior fit, is anchored on.
        self._step_count += 1
        missing = []
        for index, (p, data, grad) in enumerate(
                zip(self.params, self._data, self._grads)):
            if p.data is not data:
                if p.data.shape != data.shape:
                    raise ShapeError(
                        f"parameter {index} changed shape from {data.shape} "
                        f"to {p.data.shape}; build a new optimiser for it"
                    )
                data[...] = p.data
                p.data = data
            if p.grad is None:
                missing.append(index)
            else:
                np.copyto(grad, p.grad)
        if len(missing) == len(self.params):
            return
        kept = [
            (self._data[i].copy(), self._m[i].copy(), self._v[i].copy())
            for i in missing
        ]
        for i in missing:
            self._grads[i][...] = 0

        t = self._step_count
        beta1, beta2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        data, g, m, v = self._state
        a, b = self._scratch
        m *= beta1
        np.multiply(g, 1 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(g, 1 - beta2, out=a)
        a *= g
        v += a
        np.divide(m, 1.0 - beta1 ** t, out=a)
        a *= lr
        np.divide(v, 1.0 - beta2 ** t, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        data -= a

        for i, (old_data, old_m, old_v) in zip(missing, kept):
            self._data[i][...] = old_data
            self._m[i][...] = old_m
            self._v[i][...] = old_v
