"""repro.baselines — the six comparison methods of Table 2.

All methods implement the :class:`repro.baselines.base.Separator`
interface; the :mod:`repro.service` registry names and builds them
(:func:`repro.experiments.table2_specs` gives the Table 2 line-up).
"""

from repro.baselines.base import (
    Separator,
    assign_components_to_sources,
    component_source_scores,
    residual_after,
)
from repro.baselines.emd import EMDSeparator, emd, envelope_mean, local_extrema, sift_imf
from repro.baselines.vmd import VMDSeparator, vmd
from repro.baselines.nmf import NMFSeparator, nmf_component_signals, nmf_kl
from repro.baselines.repet import (
    REPETSeparator,
    refine_period,
    repeating_mask,
    repeating_model,
    repet_extended_mask,
)
from repro.baselines.spectral_mask import SpectralMaskingSeparator

__all__ = [
    "Separator", "assign_components_to_sources", "component_source_scores",
    "residual_after",
    "EMDSeparator", "emd", "envelope_mean", "local_extrema", "sift_imf",
    "VMDSeparator", "vmd",
    "NMFSeparator", "nmf_component_signals", "nmf_kl",
    "REPETSeparator", "refine_period", "repeating_mask", "repeating_model",
    "repet_extended_mask",
    "SpectralMaskingSeparator",
]
