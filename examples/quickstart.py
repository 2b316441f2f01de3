"""Quickstart: separate a two-source quasi-periodic mixture with DHF.

Generates one of the paper's Table 1 mixtures, runs Deep Harmonic Finesse,
and prints per-source SDR against the known ground truth, next to the
spectral-masking baseline.

Run:  python examples/quickstart.py
"""

import time

from repro.baselines import SpectralMaskingSeparator
from repro.core import DHFSeparator
from repro.metrics import sdr_db
from repro.service import DHFSpec
from repro.synth import make_mixture


def main() -> None:
    # A 60-second realisation of Table 1's MSig1: maternal + fetal
    # pulsation with crossing harmonics.
    mixture = make_mixture("msig1", duration_s=60.0, seed=42)
    print(f"mixture: {mixture.spec.name} — {mixture.spec.description}")
    print(f"sources: {', '.join(mixture.source_names())}")
    print(f"samples: {mixture.n_samples} @ {mixture.sampling_hz:.0f} Hz\n")

    # DHF with the 'fast' preset (smaller deep-prior budget than the
    # paper-scale 'full' preset, same code path).
    separator = DHFSeparator(DHFSpec.from_preset("fast"))
    start = time.time()
    result = separator.separate_detailed(
        mixture.mixed, mixture.sampling_hz, mixture.f0_tracks,
        reference_sources=mixture.sources,
    )
    elapsed = time.time() - start
    print(f"DHF finished in {elapsed:.1f}s; extraction order: "
          f"{' -> '.join(result.extraction_order())}\n")

    baseline = SpectralMaskingSeparator()
    baseline_estimates = baseline.separate(
        mixture.mixed, mixture.sampling_hz, mixture.f0_tracks
    )

    print(f"{'source':<14}{'DHF SDR (dB)':>14}{'masking SDR (dB)':>18}"
          f"{'round MER':>12}")
    for name in mixture.source_names():
        dhf_sdr = sdr_db(result.estimates[name], mixture.sources[name])
        mask_sdr = sdr_db(baseline_estimates[name], mixture.sources[name])
        mer = result.round_for(name).masked_energy_ratio
        print(f"{name:<14}{dhf_sdr:>14.2f}{mask_sdr:>18.2f}{mer:>12.3f}")


if __name__ == "__main__":
    main()
