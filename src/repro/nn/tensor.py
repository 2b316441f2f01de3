"""The deep prior's graph: leaves and the network's one node.

A :class:`Tensor` holds an array, its gradient and whether it wants one.
The leaves are the input code and the network's
:class:`repro.nn.module.Parameter` arrays; the one non-leaf is what a
:class:`repro.nn.unet.SpAcLUNet` call returns, whose node context holds
its parents (the code and every parameter) and the network's
hand-derived backward.  The fit computes the gradient of its loss with
respect to that output itself (:func:`repro.nn.loss.masked_mse_loss`)
and hands it to :meth:`Tensor.backward`, which sends it through the
network into every parent's ``grad``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError, ShapeError


class Tensor:
    """An array in the deep prior's graph, with a gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        #: ``(parents, backward_fn)`` of a recorded node, ``None`` on a
        #: leaf; ``backward_fn(grad)`` returns one gradient (or ``None``)
        #: per parent.
        self._ctx: Optional[Tuple[Sequence["Tensor"], Callable]] = None

    def backward(self, grad: np.ndarray) -> None:
        """Backpropagate ``grad``, the loss gradient w.r.t. this node.

        Each parent that requires grad receives its gradient in
        ``parent.grad`` (added to what is already there).
        """
        if self._ctx is None:
            raise GraphError("backward() on a tensor that is not a graph node")
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} does not match tensor shape "
                f"{self.data.shape}"
            )
        parents, backward_fn = self._ctx
        for parent, parent_grad in zip(parents, backward_fn(grad)):
            if parent_grad is None or not parent.requires_grad:
                continue
            parent.grad = parent_grad if parent.grad is None \
                else parent.grad + parent_grad
