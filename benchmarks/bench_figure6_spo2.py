"""E-F6 benchmark: batched in-vivo cohort vs the per-call loop.

The Fig. 6b study separates every (subject, wavelength) channel of a
cohort.  This benchmark runs that workload along two code paths:

``sequential-loop``
    The historical path: one ``Separator.separate`` call per (subject,
    wavelength) channel, each paying its own alignment/STFT/fit, then
    the Eq. 10/11 SpO2 fit per subject.

``batched-cohort``
    :func:`repro.tfo.run_in_vivo_batch`: the whole cohort flattened into
    one :meth:`repro.service.SeparationService.separate_batch` call.

Two cohorts are measured:

* **spectral masking** over the full cohort — the vectorized
  ``separate_batch`` hook must be *bitwise* identical to the loop (the
  speedup is reported, not asserted: on long records the FFT work
  dominates and batching the hot path is a wash on a single core);
* **DHF** over a two-ewe cohort with ``dtype="float64"`` fits — each
  subject's 740/850 wavelength pair shares its alignment geometry, so
  every round's two deep-prior fits run as one :func:`repro.nn.fit_batched`
  pass over a record-stacked :class:`repro.nn.SpAcLUNet` (the per-call
  loop fits each channel as a stack of one).  Both paths run the same
  fit engine, so the speedup is reported, not asserted; the run asserts
  that outputs match within ``1e-8`` (the documented float64 tolerance
  of the engine).

A shape check rides along, as before: DHF's SpO2 estimates must
correlate better with the blood-draw SaO2 than spectral masking's
(paper: 0.24->0.81 and 0.44->0.92) — asserted by the pytest entry point
via ``run_figure6`` so the full Fig. 6b runner stays covered.

Run:  PYTHONPATH=src python benchmarks/bench_figure6_spo2.py [--smoke]
"""

from __future__ import annotations

import argparse
import dataclasses
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.service import DHFSpec, build_separator, default_spec
from repro.tfo import (
    SheepRecording,
    fit_spo2,
    make_sheep_recording,
    modulation_ratio_at_draws,
    run_in_vivo_batch,
    sheep_names,
)
from repro.tfo.ppg import ac_component

#: Max |batched - sequential| tolerated on fetal estimates and SpO2
#: estimates: the batched DHF engine's documented float64 tolerance
#: (docs/architecture.md, "Deep-prior fitting engine"); vectorized
#: spectral masking must be bitwise identical (0.0).
OUTPUT_ATOL = 1e-8


def build_cohort(n_subjects: int, duration_s: float) -> List[SheepRecording]:
    """``n_subjects`` simulated ewes cycling the hypoxia profiles.

    Subjects beyond the two profiles are fresh seeds renamed to keep
    cohort names distinct (the cohort flattener requires it).
    """
    cohort = []
    profiles = sheep_names()
    for k in range(n_subjects):
        base = profiles[k % len(profiles)]
        rec = make_sheep_recording(base, duration_s=duration_s, seed=100 + k)
        cohort.append(dataclasses.replace(rec, name=f"{base}-{k}"))
    return cohort


def run_sequential(
    cohort: List[SheepRecording], separator,
) -> Dict[str, Tuple[Dict[int, np.ndarray], np.ndarray]]:
    """The historical path: one ``separate`` call per channel."""
    out = {}
    for rec in cohort:
        tracks = rec.f0_tracks()
        fetal = {}
        for wl in sorted(rec.signals.ppg):
            ac = ac_component(rec.signals.ppg[wl], rec.signals.dc[wl])
            fetal[wl] = separator.separate(ac, rec.sampling_hz, tracks)["fetal"]
        ratios = modulation_ratio_at_draws(
            fetal[740], fetal[850],
            rec.signals.ppg[740], rec.signals.ppg[850],
            rec.sampling_hz, rec.draw_times_s,
        )
        fit = fit_spo2(ratios, rec.draw_sao2)
        out[rec.name] = (fetal, fit.spo2_estimates)
    return out


def compare_paths(
    cohort: List[SheepRecording], spec, label: str,
) -> Tuple[float, float, float]:
    """Time both paths; return (speedup, fetal_err, fit_err)."""
    separator = build_separator(spec)
    start = time.perf_counter()
    sequential = run_sequential(cohort, separator)
    t_seq = time.perf_counter() - start

    start = time.perf_counter()
    batched = run_in_vivo_batch(cohort, {label: spec})
    t_bat = time.perf_counter() - start

    fetal_err = 0.0
    fit_err = 0.0
    for rec in cohort:
        seq_fetal, seq_estimates = sequential[rec.name]
        result = batched[rec.name][label]
        for wl in (740, 850):
            fetal_err = max(fetal_err, float(np.abs(
                result.fetal_estimates[wl] - seq_fetal[wl]
            ).max()))
        fit_err = max(fit_err, float(np.abs(
            result.fit.spo2_estimates - seq_estimates
        ).max()))
    speedup = t_seq / t_bat
    print(f"  [{label}]")
    print(f"  sequential loop       : {t_seq * 1e3:8.1f} ms")
    print(f"  batched cohort        : {t_bat * 1e3:8.1f} ms")
    print(f"  speedup               : {speedup:8.2f}x")
    print(f"  max |batched - seq|   : {fetal_err:8.2e} (fetal), "
          f"{fit_err:.2e} (SpO2 estimates)")
    return speedup, fetal_err, fit_err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subjects", type=int, default=8,
                        help="masking-cohort size (default 8)")
    parser.add_argument("--duration", type=float, default=180.0,
                        help="masking-cohort recording length in seconds "
                             "(default 180)")
    parser.add_argument("--dhf-duration", type=float, default=120.0,
                        help="DHF-cohort recording length in seconds "
                             "(default 120)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast cohorts")
    args = parser.parse_args(argv)
    if args.subjects < 1:
        parser.error("--subjects must be >= 1")

    dhf_subjects = 2
    if args.smoke:
        args.subjects = min(args.subjects, 2)
        args.duration = min(args.duration, 120.0)
        # One subject still exercises the stacked wavelength-pair fit;
        # 90 s is the shortest protocol whose smoke-budget DHF fits give
        # a non-degenerate Eq. 10 calibration.
        args.dhf_duration = min(args.dhf_duration, 90.0)
        dhf_subjects = 1

    # ------------------------------------------------------------------ #
    # Spectral masking: full cohort, bitwise equality.
    # ------------------------------------------------------------------ #
    cohort = build_cohort(args.subjects, args.duration)
    print(
        f"bench_figure6_spo2: {len(cohort)} subjects x 2 wavelengths "
        f"({2 * len(cohort)} records of {args.duration:.0f}s @ "
        f"{cohort[0].sampling_hz:.0f} Hz)"
    )
    speedup, fetal_err, fit_err = compare_paths(
        cohort, default_spec("spectral-masking"), "Spect. Masking",
    )
    assert fetal_err == 0.0 and fit_err == 0.0, (
        f"vectorized masking cohort must be bitwise identical to the "
        f"loop, got {fetal_err:.2e} / {fit_err:.2e}"
    )

    # ------------------------------------------------------------------ #
    # DHF: wavelength pairs share stacked deep-prior fits.
    # ------------------------------------------------------------------ #
    dhf_cohort = build_cohort(dhf_subjects, args.dhf_duration)
    print(
        f"  DHF cohort: {dhf_subjects} subject(s) x 2 wavelengths "
        f"({args.dhf_duration:.0f}s records, float64 fits, smoke-preset "
        f"deep-prior budget)"
    )
    dhf_spec = DHFSpec.from_preset("smoke", dtype="float64")
    _, fetal_err, fit_err = compare_paths(dhf_cohort, dhf_spec, "DHF")
    assert fetal_err <= OUTPUT_ATOL, (
        f"batched DHF cohort fetal estimates diverged from the "
        f"sequential loop: {fetal_err:.2e} > {OUTPUT_ATOL:.0e}"
    )
    assert fit_err <= OUTPUT_ATOL, (
        f"batched DHF cohort SpO2 fits diverged from the sequential "
        f"loop: {fit_err:.2e} > {OUTPUT_ATOL:.0e}"
    )
    print("bench_figure6_spo2: OK")
    return 0


def test_bench_figure6(benchmark, smoke_context):
    """pytest-benchmark entry: the full Fig. 6b runner (shape check)."""
    from conftest import run_once

    from repro.experiments import run_figure6

    result = run_once(
        benchmark, run_figure6, smoke_context, duration_s=240.0,
        sheep=["sheep1"],
    )
    print()
    print(result.render())
    dhf = [m["DHF"] for m in result.correlations.values()]
    masking = [m["Spect. Masking"] for m in result.correlations.values()]
    assert np.mean(dhf) > np.mean(masking), (
        f"DHF correlations {dhf} should beat spectral masking {masking}"
    )


if __name__ == "__main__":
    raise SystemExit(main())
