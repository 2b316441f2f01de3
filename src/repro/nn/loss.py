"""The deep prior's fitting cost, on raw arrays.

:func:`masked_mse_loss` is the in-painting objective of the paper
(Eq. 9): the squared error is evaluated only where the binary mask is
1, so the optimiser never sees the concealed interference regions.  It
returns the gradient with the loss, which the fit hands to the
network's graph node (:meth:`repro.nn.tensor.Tensor.backward`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError


def masked_mse_loss(prediction: np.ndarray, target: np.ndarray,
                    mask: np.ndarray):
    """Eq. 9 per record, ``||mask * (S_out - S_mixed)||^2 / count``.

    ``prediction`` (the network output ``S_out``), ``target`` (the
    observed ``S_mixed``) and ``mask`` (1 = visible to the cost, 0 =
    concealed) are ``(R, 1, F, T)``.  Dividing by each record's count of
    visible cells makes the learning rate independent of mask density.

    Returns ``(losses, grad)``: the ``(R,)`` per-record losses and the
    gradient of their sum w.r.t. ``prediction``, evaluated in the fixed
    elementwise order ``(((1 / count) * mask) * diff) * 2`` that fits
    are bitwise reproducible in.
    """
    if prediction.shape != target.shape or mask.shape != target.shape:
        raise ShapeError(
            f"prediction {prediction.shape}, target {target.shape} and mask "
            f"{mask.shape} must share one shape"
        )
    counts = mask.reshape(len(mask), -1).sum(axis=1)
    if np.any(counts == 0):
        raise ConfigurationError("mask is all-zero for at least one record")
    inv_counts = 1.0 / counts
    diff = prediction - target
    losses = (diff * diff * mask).sum(axis=(1, 2, 3)) * inv_counts
    grad = inv_counts[:, None, None, None] * mask * diff
    grad *= 2
    return losses, grad
