"""Deep Harmonic Finesse — the iterative separation orchestrator (Fig. 1).

Each round extracts one source from the current residual:

1. :func:`repro.core.alignment.unwarp` locks the target to 1 Hz;
2. an STFT whose window spans an integer number of target periods puts the
   target harmonics exactly on frequency bins;
3. :mod:`repro.core.masking` conceals the other sources' harmonic ridges;
4. :func:`repro.core.inpainting.inpaint_spectrograms` fits the SpAc LU-Net
   deep prior to the visible cells (Eq. 9) and fills the concealed ones;
5. the separated magnitude (target ridge only; in-painted where concealed)
   joins cyclically-interpolated phase, is inverted, re-warped, and
   subtracted from the residual.

Sources are processed in decreasing ridge-energy order (respiration →
maternal → fetal in the TFO application).

:class:`repro.service.DHFSpec` is DHF's one configuration, and
:meth:`DHFSeparator.prepare_round` its one round setup (stages 1-3):
the Fig. 3 and ablation runners in-paint the spectrogram it prepares.

A single record is a batch of one: :meth:`DHFSeparator.separate_detailed`
runs :meth:`DHFSeparator.separate_batch_detailed` on it, so every fit —
single or stacked — goes through the same engine for the same iteration
budget, and starts cold from its round's seed.

Batch processing: record sets run through
:meth:`repro.service.SeparationService.separate_batch` — serially, or
in process shards on a ``workers > 1`` service (a
:class:`DHFSeparator` is a plain picklable object).  Every STFT in
a batch run shares the cached plans of :mod:`repro.dsp.plan`, so the
window and overlap-add normalizer of each alignment geometry are built
once per batch instead of once per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.separation import Separator
from repro.core.alignment import Alignment, rewarp, unwarp, warp_all_f0_tracks
from repro.core.inpainting import (
    InpaintingConfig,
    InpaintingResult,
    auto_time_dilation,
    inpaint_spectrograms,
)
# Not called here; perfbench/layers.py wraps this name in traced runs.
from repro.core.inpainting import inpaint_spectrogram  # noqa: F401
from repro.core.masking import (
    build_round_masks,
    default_bandwidth,
    f0_spread_per_frame,
    f0_track_to_frames,
    harmonic_ridge_mask,
    masked_energy_ratio,
)
from repro.core.phase import combine_magnitude_phase, interpolate_phase_cyclic
from repro.core.results import DHFResult, DHFRound
from repro.dsp.stft import istft, stft
from repro.errors import ConfigurationError, DataError
from repro.utils.seeding import spawn_generators

if TYPE_CHECKING:  # imported when building the default, not at load
    from repro.service.specs import DHFSpec


@dataclass
class _RoundPrep:
    """Stages 1-3 of one DHF round, ready for the deep-prior fit.

    The fit itself (stage 4) is deliberately split out so that
    same-geometry rounds from different records can be grouped into one
    batched :func:`repro.core.inpainting.inpaint_spectrograms` pass.
    """

    target: str
    alignment: Alignment
    spec: object            # repro.dsp.StftResult
    masks: object           # repro.core.masking.RoundMasks
    dilation: int
    inpaint_cfg: InpaintingConfig
    rng: object
    n_fft: int
    hop: int


@dataclass
class _BatchRecordState:
    """Per-record progress of a batched DHF run."""

    index: int
    f0_tracks: Mapping[str, np.ndarray]
    order: List[str]
    rngs: List
    residual: np.ndarray
    estimates: Dict[str, np.ndarray] = field(default_factory=dict)
    rounds: List[DHFRound] = field(default_factory=list)


@dataclass
class DHFSeparator(Separator):
    """Deep Harmonic Finesse separator (the paper's proposed method).

    ``spec`` is a :class:`repro.service.DHFSpec`; ``None`` means
    ``DHFSpec()``, the paper-scale defaults.
    """

    spec: Optional[DHFSpec] = None

    name = "DHF"

    def __post_init__(self):
        from repro.service.specs import DHFSpec

        self.spec = DHFSpec.or_default(self.spec)

    # ------------------------------------------------------------------ #
    # Separator interface
    # ------------------------------------------------------------------ #
    def separate(self, mixed, sampling_hz, f0_tracks) -> Dict[str, np.ndarray]:
        return self.separate_detailed(mixed, sampling_hz, f0_tracks).estimates

    def separate_detailed(
        self,
        mixed,
        sampling_hz: float,
        f0_tracks: Mapping[str, np.ndarray],
        reference_sources: Optional[Mapping[str, np.ndarray]] = None,
    ) -> DHFResult:
        """Run all separation rounds and return full diagnostics.

        ``reference_sources`` (ground truth, when available) enables the
        masked-energy-ratio diagnostic of Fig. 5a; it never influences the
        separation itself.  This is the one-record case of
        :meth:`separate_batch_detailed`.
        """
        return self.separate_batch_detailed(
            [mixed], sampling_hz, [f0_tracks],
            reference_sources_batch=(
                None if reference_sources is None else [reference_sources]
            ),
        )[0]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _extraction_order(
        self, mixed: np.ndarray, sampling_hz: float,
        f0_tracks: Mapping[str, np.ndarray],
    ) -> List[str]:
        """Sources by descending mixture energy on their fundamental ridge."""
        n_fft = int(min(mixed.size, 8 * sampling_hz))
        n_fft = max(16, n_fft)
        spec = stft(mixed, sampling_hz, n_fft=n_fft, hop=max(1, n_fft // 4))
        power = spec.magnitude ** 2
        energies = {}
        for name, track in f0_tracks.items():
            frames = f0_track_to_frames(track, sampling_hz, spec)
            spread = f0_spread_per_frame(track, sampling_hz, spec)
            ridge = harmonic_ridge_mask(
                spec, frames, 2, default_bandwidth(), f0_spread=spread
            )
            energies[name] = float(power[ridge].sum())
        return sorted(energies, key=energies.get, reverse=True)

    def _stft_geometry(self, alignment: Alignment) -> tuple:
        """Window/hop in unwarped samples, clamped to the signal length."""
        cfg = self.spec
        spp = cfg.samples_per_period
        ppw = cfg.periods_per_window
        # Shrink the window for very short signals, keeping whole periods.
        while ppw > 2 and spp * ppw > alignment.n_samples:
            ppw -= 2
        n_fft = spp * ppw
        if n_fft > alignment.n_samples:
            raise DataError(
                f"aligned signal has {alignment.n_samples} samples; needs at "
                f"least {n_fft} (= {ppw} target periods)"
            )
        # DHFSpec keeps hop_periods within a quarter window; this cap
        # only bites once the window has shrunk above.
        hop = spp * min(cfg.hop_periods, max(1, ppw // 4))
        return n_fft, hop

    def prepare_round(
        self,
        residual: np.ndarray,
        sampling_hz: float,
        f0_tracks: Mapping[str, np.ndarray],
        target: str,
        rng,
    ) -> "_RoundPrep":
        """Stages 1-3 of one round: alignment, STFT, masks, fit config.

        ``rng`` seeds the round's deep-prior fit.
        """
        cfg = self.spec

        # 1. Pattern alignment: target becomes strictly periodic at 1 Hz.
        alignment = unwarp(
            residual, sampling_hz, f0_tracks[target], cfg.samples_per_period
        )

        # 2. STFT with whole-period windows: target harmonics sit on bins.
        n_fft, hop = self._stft_geometry(alignment)
        spec = stft(alignment.samples, alignment.sampling_hz, n_fft=n_fft, hop=hop)

        # 3. Masks from the warped frequency tracks.
        warped = warp_all_f0_tracks(f0_tracks, target, alignment)
        f0_frames = {
            name: f0_track_to_frames(track, alignment.sampling_hz, spec)
            for name, track in warped.items()
        }
        f0_spread = {
            name: f0_spread_per_frame(track, alignment.sampling_hz, spec)
            for name, track in warped.items()
        }
        # Ridge half-width per harmonic k, in aligned-space Hz.
        spacing = 1.0 / cfg.periods_per_window
        base = cfg.bandwidth_bins * spacing
        slope = cfg.bandwidth_slope_bins * spacing
        masks = build_round_masks(
            spec, f0_frames, target, cfg.n_harmonics,
            lambda k: base + slope * (k - 1),
            f0_spread_by_source=f0_spread,
        )

        if cfg.time_dilation == "auto":
            dilation = auto_time_dilation(masks.visibility)
        else:
            dilation = int(cfg.time_dilation)
        return _RoundPrep(
            target=target,
            alignment=alignment,
            spec=spec,
            masks=masks,
            dilation=dilation,
            inpaint_cfg=cfg.inpainting_config(dilation),
            rng=rng,
            n_fft=n_fft,
            hop=hop,
        )

    def reference_magnitude(
        self,
        prep: "_RoundPrep",
        reference: np.ndarray,
        sampling_hz: float,
        f0_tracks: Mapping[str, np.ndarray],
    ) -> np.ndarray:
        """A ground-truth source's magnitude on a prepared round's grid
        (aligned to the round's target, same window, hop and frames)."""
        aligned = unwarp(
            np.asarray(reference, dtype=np.float64),
            sampling_hz, f0_tracks[prep.target], self.spec.samples_per_period,
        )
        magnitude = stft(
            aligned.samples, aligned.sampling_hz, n_fft=prep.n_fft, hop=prep.hop,
        ).magnitude
        return magnitude[:, : prep.spec.n_frames]

    def _finish_round(
        self,
        prep: "_RoundPrep",
        fit: Optional[InpaintingResult],
        sampling_hz: float,
        f0_tracks: Mapping[str, np.ndarray],
        reference_sources: Optional[Mapping[str, np.ndarray]] = None,
        round_index: int = 0,
    ) -> DHFRound:
        """Stages 5-7 of one round: magnitude/phase combine and inversion."""
        alignment, spec, masks = prep.alignment, prep.spec, prep.masks
        target = prep.target

        # 5. Separated magnitude: target ridge only; observed where visible.
        #    At concealed cells the in-painted value is capped by the
        #    observed residual magnitude: the target's energy in a cell can
        #    never exceed the mixture's, so min() discards prior
        #    over-shoots while keeping the in-painted value wherever
        #    interference inflates the observation.
        concealed = masks.interference
        if fit is None:
            separated_mag = spec.magnitude * masks.target_ridge
        else:
            inpainted = np.minimum(fit.output, spec.magnitude)
            separated_mag = np.where(concealed, inpainted, spec.magnitude)
            separated_mag = separated_mag * masks.target_ridge

        # 6. Phase: observed where visible; at concealed cells the policy
        #    decides.  'cyclic' always interpolates (Sec. 3.4); 'observed'
        #    trusts the residual phase (valid once stronger sources have
        #    been subtracted in earlier rounds); 'auto' interpolates on the
        #    first round only — before any subtraction the concealed cells
        #    are interference-dominated — then switches to the residual
        #    phase for later rounds.
        if self.spec.phase_policy == "cyclic" or (
            self.spec.phase_policy == "auto" and round_index == 0
        ):
            phase = interpolate_phase_cyclic(spec.values, concealed)
        else:
            phase = np.angle(spec.values)
        separated_values = combine_magnitude_phase(separated_mag, phase)

        # 7. Back to the time domain and the original grid.
        unwarped_estimate = istft(
            spec.with_values(separated_values), length=alignment.n_samples
        )
        estimate = rewarp(unwarped_estimate, alignment)

        mer = None
        if reference_sources is not None and target in reference_sources:
            reference = self.reference_magnitude(
                prep, reference_sources[target], sampling_hz, f0_tracks,
            )
            n_frames = reference.shape[1]
            mer = masked_energy_ratio(
                reference,
                spec.magnitude[:, :n_frames],
                concealed[:, :n_frames],
            )

        return DHFRound(
            target=target,
            alignment=alignment,
            masks=masks,
            time_dilation=prep.dilation,
            losses=fit.losses if fit is not None else np.empty(0),
            estimate=estimate,
            masked_energy_ratio=mer,
        )

    # ------------------------------------------------------------------ #
    # Batched separation: sibling rounds share one stacked deep-prior fit
    # ------------------------------------------------------------------ #
    def separate_batch(
        self,
        mixed_batch: Sequence,
        sampling_hz: float,
        f0_tracks_batch: Sequence[Mapping[str, np.ndarray]],
    ) -> List[Dict[str, np.ndarray]]:
        """Separate several records, batching their deep-prior fits.

        Round ``k`` of every record is independent of the other records,
        so the per-round fits of records sharing one spectrogram
        geometry and fit configuration are stacked into a single
        :func:`repro.core.inpainting.inpaint_spectrograms` pass; a record
        whose geometry matches no other fits as a stack of one, exactly
        as :meth:`separate` does.
        """
        results = self.separate_batch_detailed(
            mixed_batch, sampling_hz, f0_tracks_batch
        )
        return [result.estimates for result in results]

    def separate_batch_detailed(
        self,
        mixed_batch: Sequence,
        sampling_hz: float,
        f0_tracks_batch: Sequence[Mapping[str, np.ndarray]],
        reference_sources_batch: Optional[Sequence[Mapping[str, np.ndarray]]] = None,
    ) -> List[DHFResult]:
        """Batched :meth:`separate_detailed`: full diagnostics per record.

        Rounds advance in lockstep across records: each record's round
        ``k`` is prepared (alignment, STFT, masks), the prepared fits are
        grouped by ``(spectrogram shape, fit config)``, and every group —
        singletons included — runs as one stacked fit.  Seeding is per
        record, so a record's result does not depend on the batch it
        rode in beyond floating-point summation order.
        """
        if len(mixed_batch) != len(f0_tracks_batch):
            raise ConfigurationError(
                f"{len(mixed_batch)} mixed records but "
                f"{len(f0_tracks_batch)} f0-track mappings"
            )
        if reference_sources_batch is not None \
                and len(reference_sources_batch) != len(mixed_batch):
            raise ConfigurationError(
                f"{len(mixed_batch)} mixed records but "
                f"{len(reference_sources_batch)} reference mappings"
            )
        states: List[_BatchRecordState] = []
        for index, (mixed, tracks) in enumerate(
                zip(mixed_batch, f0_tracks_batch)):
            validated = self._validate(mixed, sampling_hz, tracks)
            order = self._extraction_order(validated, sampling_hz, tracks)
            rngs = spawn_generators(self.spec.seed, len(order))
            states.append(_BatchRecordState(
                index=index, f0_tracks=tracks, order=order, rngs=rngs,
                residual=validated.copy(),
            ))

        if not states:
            return []
        max_rounds = max(len(state.order) for state in states)
        for round_index in range(max_rounds):
            active = [s for s in states if round_index < len(s.order)]
            preps = [
                self.prepare_round(
                    state.residual, sampling_hz, state.f0_tracks,
                    state.order[round_index], state.rngs[round_index],
                )
                for state in active
            ]

            # Group fit-needing rounds by geometry + configuration.  When a
            # round conceals nothing (no interfering ridge crosses the
            # target's spectrogram) there is nothing to in-paint: the fit
            # is skipped and the observed magnitude passes through.
            groups: Dict[tuple, List[int]] = {}
            for i, prep in enumerate(preps):
                if prep.masks.visibility.all():
                    continue
                key = (prep.spec.magnitude.shape, prep.inpaint_cfg)
                groups.setdefault(key, []).append(i)

            fits: List[Optional[InpaintingResult]] = [None] * len(preps)
            for indices in groups.values():
                batched = inpaint_spectrograms(
                    [preps[i].spec.magnitude for i in indices],
                    [preps[i].masks.visibility for i in indices],
                    preps[indices[0]].inpaint_cfg,
                    rngs=[preps[i].rng for i in indices],
                )
                for i, fit in zip(indices, batched):
                    fits[i] = fit

            for state, prep, fit in zip(active, preps, fits):
                references = None
                if reference_sources_batch is not None:
                    references = reference_sources_batch[state.index]
                round_result = self._finish_round(
                    prep, fit, sampling_hz, state.f0_tracks,
                    reference_sources=references, round_index=round_index,
                )
                state.estimates[prep.target] = round_result.estimate
                state.rounds.append(round_result)
                state.residual = state.residual - round_result.estimate

        return [
            DHFResult(
                estimates={
                    name: state.estimates[name] for name in state.f0_tracks
                },
                rounds=state.rounds,
                residual=state.residual,
            )
            for state in states
        ]
