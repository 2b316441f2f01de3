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

A single record is a batch of one: :meth:`DHFSeparator.separate_detailed`
runs :meth:`DHFSeparator.separate_batch_detailed` on it, so every fit —
single or stacked — goes through the same engine with the same
early-stop, warm-start and geometry semantics.

Batch processing: record sets run through
:meth:`repro.service.SeparationService.separate_batch` — serially, or
in process shards on a ``workers > 1`` service (a
:class:`DHFSeparator` is a plain picklable object).  Every STFT in
a batch run shares the cached plans of :mod:`repro.dsp.plan`, so the
window and overlap-add normalizer of each alignment geometry are built
once per batch instead of once per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.config import Preset, get_preset
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
from repro.nn.batchfit import EarlyStopConfig
from repro.nn.zoo import FitCache, PriorGeometry, shared_fit_cache
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
from repro.utils.seeding import as_generator, spawn_generators, stable_hash_seed


@dataclass(frozen=True)
class DHFConfig:
    """Configuration of the full DHF pipeline.

    Frequency-domain quantities live in the *aligned* space where the
    target fundamental is 1 Hz and the STFT bin spacing is
    ``1 / periods_per_window`` Hz.
    """

    samples_per_period: int = 32
    periods_per_window: int = 8
    hop_periods: int = 2
    n_harmonics: int = 6
    bandwidth_bins: float = 1.25
    bandwidth_slope_bins: float = 0.35
    time_dilation: int | str = "auto"
    phase_policy: str = "auto"
    inpainting: InpaintingConfig = field(default_factory=InpaintingConfig)
    seed: int = 20240623  # DAC'24 opening day
    #: Early-stopping patience of every deep-prior fit (``separate``,
    #: ``separate_batch``, and the streaming and monitor paths built on
    #: them); ``0`` disables early stopping, so every fit runs the full
    #: iteration budget.
    early_stop_patience: int = 0
    #: Relative loss improvement that resets the patience counter.
    early_stop_rel_tol: float = 1e-3
    #: Warm-start every round's deep-prior fit from the process-wide
    #: :func:`repro.nn.zoo.shared_fit_cache` (exact geometry+config hit,
    #: else the nearest same-geometry cached fit) and feed finished fits
    #: back into it.  Off by default: a warm start changes the fit's
    #: starting point, so results are no longer bitwise identical to a
    #: cold run once the cache is non-empty.
    warm_start: bool = False
    #: Optional directory of a :class:`repro.nn.zoo.PriorZoo` backing
    #: the shared cache (checkpoints persist across processes); ``None``
    #: keeps the cache purely in-memory.  Only meaningful with
    #: ``warm_start=True``.
    zoo_path: Optional[str] = None

    def __post_init__(self):
        if self.samples_per_period < 4:
            raise ConfigurationError(
                f"samples_per_period must be >= 4, got {self.samples_per_period}"
            )
        if self.periods_per_window < 2:
            raise ConfigurationError(
                f"periods_per_window must be >= 2, got {self.periods_per_window}"
            )
        if self.hop_periods < 1 or self.hop_periods > self.periods_per_window // 2:
            raise ConfigurationError(
                f"hop_periods must be in [1, periods_per_window/2], got "
                f"{self.hop_periods}"
            )
        if isinstance(self.time_dilation, str) and self.time_dilation != "auto":
            raise ConfigurationError(
                f"time_dilation must be an int or 'auto', got {self.time_dilation!r}"
            )
        if self.phase_policy not in ("auto", "cyclic", "observed"):
            raise ConfigurationError(
                f"phase_policy must be 'auto', 'cyclic' or 'observed', got "
                f"{self.phase_policy!r}"
            )
        if not isinstance(self.early_stop_patience, int) \
                or self.early_stop_patience < 0:
            raise ConfigurationError(
                f"early_stop_patience must be an int >= 0, got "
                f"{self.early_stop_patience!r}"
            )
        if self.early_stop_patience:
            self.early_stop()  # validate rel_tol via EarlyStopConfig
        if not isinstance(self.warm_start, bool):
            raise ConfigurationError(
                f"warm_start must be a bool, got {self.warm_start!r}"
            )
        if self.zoo_path is not None and not isinstance(self.zoo_path, str):
            raise ConfigurationError(
                f"zoo_path must be None or a str, got {self.zoo_path!r}"
            )

    @property
    def bin_spacing_hz(self) -> float:
        """STFT bin spacing in the aligned space (Hz)."""
        return 1.0 / self.periods_per_window

    def early_stop(self) -> Optional[EarlyStopConfig]:
        """The deep-prior fits' early-stop criterion, or ``None`` (disabled)."""
        if not self.early_stop_patience:
            return None
        return EarlyStopConfig(
            patience=self.early_stop_patience,
            rel_tol=self.early_stop_rel_tol,
        )

    def fit_cache(self) -> Optional[FitCache]:
        """The process-wide fit cache, or ``None`` when warm starts are off.

        Resolved per call rather than stored on the config so that
        :class:`DHFSeparator` (and its configs) stay picklable for the
        service worker pool — every worker lands on the same shared
        cache for a given ``zoo_path``.
        """
        if not self.warm_start:
            return None
        return shared_fit_cache(self.zoo_path)

    def bandwidth_fn(self):
        """Ridge half-width (aligned-space Hz) as a function of harmonic."""
        base = self.bandwidth_bins * self.bin_spacing_hz
        slope = self.bandwidth_slope_bins * self.bin_spacing_hz
        return lambda k: base + slope * (k - 1)

    @classmethod
    def from_preset(cls, preset: Preset | str | None = None, **overrides) -> "DHFConfig":
        """Build a config from a :mod:`repro.config` preset."""
        if not isinstance(preset, Preset):
            preset = get_preset(preset)
        inpainting = InpaintingConfig(
            iterations=preset.deep_prior.iterations,
            learning_rate=preset.deep_prior.learning_rate,
            base_channels=preset.deep_prior.base_channels,
            depth=preset.deep_prior.depth,
            time_dilation=preset.time_dilation,
        )
        cfg = cls(
            samples_per_period=preset.alignment.samples_per_period,
            periods_per_window=preset.alignment.periods_per_window,
            hop_periods=preset.alignment.hop_periods,
            n_harmonics=preset.n_harmonics,
            inpainting=inpainting,
        )
        return replace(cfg, **overrides) if overrides else cfg


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
    geometry: PriorGeometry


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


class DHFSeparator(Separator):
    """Deep Harmonic Finesse separator (the paper's proposed method)."""

    name = "DHF"

    def __init__(self, config: Optional[DHFConfig] = None):
        self.config = config or DHFConfig()

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
        cfg = self.config
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
        hop = spp * min(cfg.hop_periods, max(1, ppw // 4))
        return n_fft, hop

    def _prepare_round(
        self,
        residual: np.ndarray,
        sampling_hz: float,
        f0_tracks: Mapping[str, np.ndarray],
        target: str,
        rng,
    ) -> "_RoundPrep":
        """Stages 1-3 of one round: alignment, STFT, masks, fit config."""
        cfg = self.config

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
        masks = build_round_masks(
            spec, f0_frames, target, cfg.n_harmonics, cfg.bandwidth_fn(),
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
            inpaint_cfg=replace(cfg.inpainting, time_dilation=dilation),
            rng=rng,
            n_fft=n_fft,
            hop=hop,
            geometry=PriorGeometry(
                n_freq=spec.magnitude.shape[0],
                n_frames=spec.magnitude.shape[1],
                n_fft=n_fft,
                hop=hop,
                samples_per_period=cfg.samples_per_period,
            ),
        )

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
        cfg = self.config
        alignment, spec, masks = prep.alignment, prep.spec, prep.masks
        target, n_fft, hop = prep.target, prep.n_fft, prep.hop

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
        if self.config.phase_policy == "cyclic" or (
            self.config.phase_policy == "auto" and round_index == 0
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
            ref_aligned = unwarp(
                np.asarray(reference_sources[target], dtype=np.float64),
                sampling_hz, f0_tracks[target], cfg.samples_per_period,
            )
            ref_spec = stft(
                ref_aligned.samples, ref_aligned.sampling_hz,
                n_fft=n_fft, hop=hop,
            )
            n_frames = min(ref_spec.n_frames, spec.n_frames)
            mer = masked_energy_ratio(
                ref_spec.magnitude[:, :n_frames],
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
        singletons included — runs as one stacked fit carrying the
        config's early stop, fit cache and geometry.  Seeding is
        per record, so a record's result does not depend on the batch it
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
            rngs = spawn_generators(self.config.seed, len(order))
            states.append(_BatchRecordState(
                index=index, f0_tracks=tracks, order=order, rngs=rngs,
                residual=validated.copy(),
            ))

        if not states:
            return []
        early_stop = self.config.early_stop()
        max_rounds = max(len(state.order) for state in states)
        for round_index in range(max_rounds):
            active = [s for s in states if round_index < len(s.order)]
            preps = [
                self._prepare_round(
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
                    early_stop=early_stop,
                    cache=self.config.fit_cache(),
                    geometry=preps[indices[0]].geometry,
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
