"""The deep-prior fit engine: R independent LU-Net fits advanced in lockstep.

The deep-prior in-painting loop (paper Sec. 3.3, Eq. 9) fits one randomly
initialised :class:`repro.nn.unet.SpAcLUNet` per spectrogram.
:func:`fit_batched` is the package's one fit loop.  It runs on a network
stacked by :func:`repro.nn.unet.stack_networks`, whose parameters carry a
leading *record* axis, so a single forward/backward/Adam step advances
every record's fit; a single fit is a stack of one.  The autograd graph
has the node count of one fit, while each contraction spans all records
at once.

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

Records that converge can drop out of the stack early
(:class:`EarlyStopConfig`): the engine snapshots each record's best
output, and once a record has gone ``patience`` iterations without a
relative improvement of ``rel_tol`` it is removed and the remaining
records are compacted into a smaller stack (parameters and Adam state
shrink together).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.nn.unet import SpAcLUNet


@dataclass(frozen=True)
class EarlyStopConfig:
    """Per-record convergence criterion for :func:`fit_batched`.

    A record *improves* when its visible-region loss drops below
    ``best * (1 - rel_tol)``.  After ``patience`` consecutive iterations
    without improvement (and at least ``min_iterations`` total) the
    record stops: its output rolls back to the best-loss iteration
    (``stop_iteration``) and it is compacted out of the running stack.
    By construction no later recorded loss is below the one at
    ``stop_iteration``.
    """

    patience: int = 25
    rel_tol: float = 1e-3
    min_iterations: int = 10

    def __post_init__(self):
        if self.patience < 1:
            raise ConfigurationError(
                f"patience must be >= 1, got {self.patience}"
            )
        if not 0.0 <= self.rel_tol < 1.0:
            raise ConfigurationError(
                f"rel_tol must be in [0, 1), got {self.rel_tol}"
            )
        if self.min_iterations < 0:
            raise ConfigurationError(
                f"min_iterations must be >= 0, got {self.min_iterations}"
            )


@dataclass
class BatchFitResult:
    """Raw engine output, index-aligned with the input stack.

    ``outputs`` are network-space (normalised, sigmoid-bounded) maps;
    callers undo their own normalisation.  ``stop_iterations[r]`` is the
    best-loss iteration a record rolled back to when early stopping
    triggered, else ``None`` (the record ran every iteration and
    ``outputs[r]`` is its final prediction).
    """

    outputs: np.ndarray
    losses: List[np.ndarray]
    stop_iterations: List[Optional[int]]
    state_dicts: List[Dict[str, np.ndarray]]
    concealed_errors: Optional[List[np.ndarray]] = None


class _StackedAdam(Adam):
    """:class:`repro.nn.optim.Adam` plus record-axis compaction.

    Inheriting (rather than re-implementing) the fused in-place update
    keeps every record's trajectory elementwise-identical to a plain
    Adam over that record alone — the equivalence tolerance documented
    in ``docs/architecture.md`` depends on the two never drifting apart.
    The moment buffers live for the whole fit and are sliced here when
    records drop out of the stack.
    """

    def compact(self, keep: np.ndarray) -> None:
        keep = np.asarray(keep, dtype=np.intp)
        self._m = [np.ascontiguousarray(m[keep]) for m in self._m]
        self._v = [np.ascontiguousarray(v[keep]) for v in self._v]


def fit_batched(
    network: SpAcLUNet,
    code: np.ndarray,
    target: np.ndarray,
    mask: np.ndarray,
    iterations: int,
    learning_rate: float,
    early_stop: Optional[EarlyStopConfig] = None,
    reference: Optional[np.ndarray] = None,
    warm_start: Optional[Sequence[Optional[Mapping[str, np.ndarray]]]] = None,
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
        Maximum optimisation steps per record.
    early_stop:
        Optional per-record convergence criterion; ``None`` runs every
        record for all ``iterations``.
    reference:
        Optional normalised ground-truth magnitudes ``(R, F, T)``; when
        given, the concealed-region MSE is tracked per iteration (the
        Fig. 3 diagnostic).
    warm_start:
        Optional per-record ``SpAcLUNet`` state dicts (length R, entries
        may be ``None``) loaded over the stacked initialisation before
        the first iteration — the prior-zoo warm-start hook.  Records
        with ``None`` keep their seeded random init.
    """
    n_total = network.n_records
    if code.shape[0] != n_total or target.shape[0] != n_total \
            or mask.shape[0] != n_total:
        raise ShapeError(
            f"code/target/mask record counts "
            f"({code.shape[0]}/{target.shape[0]}/{mask.shape[0]}) must "
            f"match the network stack ({n_total})"
        )
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    if warm_start is not None:
        warm_start = list(warm_start)
        if len(warm_start) != n_total:
            raise ShapeError(
                f"warm_start has {len(warm_start)} entries for "
                f"{n_total} records"
            )
        for record, warm in enumerate(warm_start):
            if warm is not None:
                network.load_record_state(record, warm)

    dtype = code.dtype
    n_freq, n_time = target.shape[2], target.shape[3]
    counts = mask.reshape(n_total, -1).sum(axis=1)
    if np.any(counts == 0):
        raise ConfigurationError("mask is all-zero for at least one record")
    inv_counts_all = (1.0 / counts).astype(dtype)

    concealed = None
    if reference is not None:
        if reference.shape != (n_total, n_freq, n_time):
            raise ShapeError(
                f"reference shape {reference.shape} != "
                f"{(n_total, n_freq, n_time)}"
            )
        concealed = mask[:, 0] == 0

    # Per-record bookkeeping, indexed by ORIGINAL record position.
    losses: List[List[float]] = [[] for _ in range(n_total)]
    err_curves: List[List[float]] = [[] for _ in range(n_total)]
    stop_iterations: List[Optional[int]] = [None] * n_total
    outputs = np.empty((n_total, n_freq, n_time), dtype=dtype)
    state_dicts: List[Optional[Dict[str, np.ndarray]]] = [None] * n_total
    # ``best_*`` tracks the strict arg-min (the rollback point), while
    # ``plateau_ref``/``since_improve`` implement the patience rule: only
    # a RELATIVE improvement of rel_tol resets the patience counter.
    best_loss = np.full(n_total, np.inf)
    best_iter = np.full(n_total, -1, dtype=int)
    best_output: List[Optional[np.ndarray]] = [None] * n_total
    best_state: List[Optional[Dict[str, np.ndarray]]] = [None] * n_total
    plateau_ref = np.full(n_total, np.inf)
    since_improve = np.zeros(n_total, dtype=int)
    last_pred: Dict[int, np.ndarray] = {}

    active = np.arange(n_total)
    code_a, target_a, mask_a = code, target, mask
    inv_counts_a = inv_counts_all
    adam = _StackedAdam(network.parameters(), lr=learning_rate)

    def retire(original: int) -> None:
        """Freeze a record's result at its best iteration.

        Output AND weights roll back to the arg-min iteration together,
        so ``InpaintingResult.network`` always reproduces
        ``InpaintingResult.output``.
        """
        stop_iterations[original] = int(best_iter[original])
        outputs[original] = best_output[original]
        state_dicts[original] = best_state[original]

    for it in range(iterations):
        adam.zero_grad()
        code_t = Tensor(code_a)
        prediction = network(code_t)
        diff = prediction - target_a
        masked_sq = diff * diff * mask_a
        per_record = masked_sq.sum(axis=(1, 2, 3))
        total = (per_record * inv_counts_a).sum()
        total.backward()
        adam.step()

        pred_maps = prediction.data[:, 0]
        loss_values = per_record.data * inv_counts_a
        to_drop: List[int] = []
        for local, original in enumerate(active):
            loss = float(loss_values[local])
            losses[original].append(loss)
            last_pred[original] = pred_maps[local]
            if concealed is not None:
                sel = concealed[original]
                if sel.any():
                    delta = pred_maps[local][sel] - reference[original][sel]
                    err_curves[original].append(float(np.mean(delta ** 2)))
                else:
                    err_curves[original].append(0.0)
            if early_stop is None:
                continue
            # The first iteration is an unconditional snapshot: even a
            # diverged (NaN) fit then has a well-defined rollback point
            # instead of retiring with nothing recorded.
            if best_iter[original] < 0 or loss < best_loss[original]:
                best_loss[original] = loss
                best_iter[original] = it
                best_output[original] = pred_maps[local].copy()
                # Weights are snapshotted post-step, the same one-step-
                # ahead convention a full-budget fit's final network has
                # relative to its final prediction.
                best_state[original] = network.record_state(local)
            if loss < plateau_ref[original] * (1.0 - early_stop.rel_tol):
                plateau_ref[original] = loss
                since_improve[original] = 0
            else:
                since_improve[original] += 1
                if len(losses[original]) >= early_stop.min_iterations \
                        and since_improve[original] >= early_stop.patience:
                    to_drop.append(local)

        if to_drop:
            for local in to_drop:
                retire(int(active[local]))
            keep = np.setdiff1d(
                np.arange(active.size), np.asarray(to_drop, dtype=int)
            )
            active = active[keep]
            if active.size == 0:
                break
            network.compact(keep)
            adam.compact(keep)
            code_a = np.ascontiguousarray(code_a[keep])
            target_a = np.ascontiguousarray(target_a[keep])
            mask_a = np.ascontiguousarray(mask_a[keep])
            inv_counts_a = np.ascontiguousarray(inv_counts_a[keep])

    # Records still running when the budget ran out keep their LAST
    # prediction (``stop_iterations`` stays None for them).
    for local, original in enumerate(active):
        outputs[original] = last_pred[original]
        state_dicts[original] = network.record_state(local)

    return BatchFitResult(
        outputs=outputs,
        losses=[np.asarray(curve) for curve in losses],
        stop_iterations=stop_iterations,
        state_dicts=state_dicts,
        concealed_errors=(
            [np.asarray(curve) for curve in err_curves]
            if concealed is not None else None
        ),
    )
