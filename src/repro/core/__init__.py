"""repro.core — the Deep Harmonic Finesse algorithm.

Public surface
--------------
:class:`DHFSeparator` is the entry point, configured by a
:class:`repro.service.DHFSpec`; the stage modules (``alignment``, ``masking``, ``inpainting``, ``phase``)
export the building blocks in pipeline order, and ``results`` the
:class:`DHFResult` / :class:`DHFRound` diagnostics.  For batches of
records, run a :class:`repro.service.SeparationService` and call its
``separate_batch``.
"""

from repro.core.alignment import (
    Alignment,
    rewarp,
    unrolled_phase,
    unwarp,
    warp_all_f0_tracks,
    warp_f0_track,
)
from repro.core.masking import (
    BandwidthSpec,
    RoundMasks,
    bandwidth_for_harmonic,
    build_round_masks,
    default_bandwidth,
    f0_spread_per_frame,
    f0_track_to_frames,
    harmonic_ridge_mask,
    interference_mask,
    masked_energy_ratio,
    visibility_mask,
)
from repro.core.phase import (
    combine_magnitude_phase,
    interpolate_phase_cyclic,
    interpolate_phase_naive,
)
from repro.core.inpainting import (
    PRIOR_KINDS,
    InpaintingConfig,
    InpaintingResult,
    auto_time_dilation,
    config_for_prior_kind,
    inpaint_spectrogram,
    inpaint_spectrograms,
)
from repro.core.results import DHFResult, DHFRound
from repro.core.dhf import DHFSeparator

__all__ = [
    "Alignment", "rewarp", "unrolled_phase", "unwarp", "warp_all_f0_tracks",
    "warp_f0_track",
    "BandwidthSpec", "RoundMasks", "bandwidth_for_harmonic",
    "build_round_masks", "default_bandwidth", "f0_spread_per_frame",
    "f0_track_to_frames", "harmonic_ridge_mask", "interference_mask",
    "masked_energy_ratio", "visibility_mask",
    "combine_magnitude_phase", "interpolate_phase_cyclic",
    "interpolate_phase_naive",
    "PRIOR_KINDS", "InpaintingConfig", "InpaintingResult",
    "auto_time_dilation", "config_for_prior_kind", "inpaint_spectrogram",
    "inpaint_spectrograms",
    "DHFResult", "DHFRound",
    "DHFSeparator",
]
