"""Cross-module integration tests at smoke scale."""

import numpy as np
import pytest

from repro.baselines import SpectralMaskingSeparator
from repro.core import DHFSeparator
from repro.metrics import sdr_db
from repro.service import DHFSpec
from repro.synth import make_mixture


@pytest.mark.slow
class TestEndToEnd:
    def test_dhf_beats_trivial_estimates(self):
        """DHF must beat both the 'mixture as estimate' and 'zeros'."""
        mixture = make_mixture("msig1", duration_s=30.0, seed=11)
        dhf = DHFSeparator(DHFSpec.from_preset("smoke"))
        estimates = dhf.separate(
            mixture.mixed, mixture.sampling_hz, mixture.f0_tracks
        )
        for name in mixture.source_names():
            ref = mixture.sources[name]
            dhf_sdr = sdr_db(estimates[name], ref)
            mix_sdr = sdr_db(mixture.mixed, ref)
            zero_sdr = sdr_db(np.zeros_like(ref) + 1e-12, ref)
            assert dhf_sdr > mix_sdr, name
            assert dhf_sdr > zero_sdr, name

    def test_three_source_extraction_order(self):
        """Respiration dominates MSig5 and must be extracted first."""
        mixture = make_mixture("msig5", duration_s=30.0, seed=12)
        dhf = DHFSeparator(DHFSpec.from_preset("smoke"))
        result = dhf.separate_detailed(
            mixture.mixed, mixture.sampling_hz, mixture.f0_tracks
        )
        assert result.extraction_order()[0] == "respiration"
        assert len(result.rounds) == 3
        resp_sdr = sdr_db(result.estimates["respiration"],
                          mixture.sources["respiration"])
        assert resp_sdr > 5.0

    def test_estimated_f0_tracks_good_enough(self):
        """The freq tracker's output can drive a full separation."""
        from repro.freq import FundamentalTracker

        mixture = make_mixture("msig3", duration_s=30.0, seed=13)
        tracker = FundamentalTracker(f_min=1.0, f_max=3.6, window_s=6.0)
        tracked = tracker.track(
            mixture.mixed, mixture.sampling_hz, n_sources=1
        )[0]
        # Strongest source is maternal (amp 0.4): tracker must find it.
        err = np.mean(np.abs(
            tracked.f0_samples - mixture.f0_tracks["maternal"]
        ))
        assert err < 0.15

    def test_separation_methods_agree_on_interface(self):
        """Every separator returns the same keys and lengths."""
        mixture = make_mixture("msig2", duration_s=20.0, seed=14)
        methods = [
            SpectralMaskingSeparator(),
            DHFSeparator(DHFSpec.from_preset("smoke")),
        ]
        for sep in methods:
            out = sep.separate(
                mixture.mixed, mixture.sampling_hz, mixture.f0_tracks
            )
            assert set(out) == set(mixture.f0_tracks), sep.name
            for est in out.values():
                assert est.shape == mixture.mixed.shape
                assert np.all(np.isfinite(est))
