"""The deep-prior fit engine: R independent LU-Net fits advanced in lockstep.

The deep-prior in-painting loop (paper Sec. 3.3, Eq. 9) fits one randomly
initialised :class:`repro.nn.unet.SpAcLUNet` per spectrogram.
:func:`fit_batched` is the package's one fit loop.  It runs on a network
stacked by :func:`repro.nn.unet.stack_networks`, whose parameters carry a
leading *record* axis, so a single forward/backward/Adam step advances
every record's fit; a single fit is a stack of one.  An iteration's graph
is the network's one node: the loop computes the masked MSE and its
gradient on raw arrays (:func:`repro.nn.loss.masked_mse_loss`) and hands
the gradient to that node's backward, while each contraction spans all
records at once.

Per-record semantics are preserved exactly:

* every record keeps its own weights (the record-axis convolutions of
  :mod:`repro.nn.functional` never mix records);
* the stacked initialisation is copied bit for bit from per-record
  networks seeded exactly as a one-record fit seeds them;
* the per-record loss is the same masked MSE, and the summed batch loss
  has a block-diagonal dependency structure, so each record's gradient
  (and Adam trajectory) matches its one-record fit up to floating-point
  summation order (see ``docs/architecture.md`` for the documented
  tolerance).

Every record runs all ``iterations`` steps on the one stack, and a fit
hands back what it in-paints, never its weights: the fitted parameters
are discarded with the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.loss import masked_mse_loss
from repro.nn.optim import Adam
from repro.nn.unet import SpAcLUNet


@dataclass
class BatchFitResult:
    """Raw engine output, index-aligned with the input stack.

    ``outputs`` are network-space (normalised, sigmoid-bounded) maps,
    each record's final prediction; callers undo their own
    normalisation.  ``losses[r]`` (and ``concealed_errors[r]``) hold
    one value per iteration.
    """

    outputs: np.ndarray
    losses: List[np.ndarray]
    concealed_errors: Optional[List[np.ndarray]] = None


def fit_batched(
    network: SpAcLUNet,
    code: np.ndarray,
    target: np.ndarray,
    mask: np.ndarray,
    iterations: int,
    learning_rate: float,
    reference: Optional[np.ndarray] = None,
) -> BatchFitResult:
    """Fit every record of a stacked network to its own masked target.

    Parameters
    ----------
    network:
        The record-stacked networks (mutated in place); see
        :func:`repro.nn.unet.stack_networks`.
    code:
        Fixed input codes ``(R, C_in, F, T)``.
    target:
        Normalised magnitude targets ``(R, 1, F, T)``.
    mask:
        Visibility masks ``(R, 1, F, T)`` (float; 1 = visible, Eq. 9).
    iterations:
        Optimisation steps, run by every record.
    reference:
        Optional normalised ground-truth magnitudes ``(R, F, T)``; when
        given, the concealed-region MSE is tracked per iteration (the
        Fig. 3 diagnostic).
    """
    n_records = network.n_records
    if code.shape[0] != n_records or target.shape[0] != n_records \
            or mask.shape[0] != n_records:
        raise ShapeError(
            f"code/target/mask record counts "
            f"({code.shape[0]}/{target.shape[0]}/{mask.shape[0]}) must "
            f"match the network stack ({n_records})"
        )
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")

    n_freq, n_time = target.shape[2], target.shape[3]
    losses = np.empty((n_records, iterations))
    errors = None
    if reference is not None:
        if reference.shape != (n_records, n_freq, n_time):
            raise ShapeError(
                f"reference shape {reference.shape} != "
                f"{(n_records, n_freq, n_time)}"
            )
        concealed = mask[:, 0] == 0
        errors = np.zeros((n_records, iterations))

    adam = Adam(network.parameters(), lr=learning_rate)
    for it in range(iterations):
        adam.zero_grad()
        prediction = network(code)
        loss_values, grad = masked_mse_loss(prediction.data, target, mask)
        prediction.backward(grad)
        adam.step()

        losses[:, it] = loss_values
        if errors is not None:
            for r, sel in enumerate(concealed):
                if sel.any():
                    delta = prediction.data[r, 0][sel] - reference[r][sel]
                    errors[r, it] = np.mean(delta ** 2)

    return BatchFitResult(
        outputs=prediction.data[:, 0].astype(code.dtype),
        losses=list(losses),
        concealed_errors=None if errors is None else list(errors),
    )
