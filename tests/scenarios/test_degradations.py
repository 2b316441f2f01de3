"""Property suite for the degradation ops (repro.scenarios.degradations).

Every registered kind must satisfy the module's two contract invariants
(bitwise identity at zero severity, monotone damage with severity for a
fixed seed) plus seeded determinism and a lossless JSON round-trip; the
parametrized tests here run each invariant against each built-in kind so
a new registered op inherits the whole contract for free.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError, ShapeError
from repro.scenarios import (
    CompressionSpec,
    DegradationSpec,
    MotionArtifactSpec,
    NoiseSpec,
    SensorDropoutSpec,
    available_degradations,
    default_degradation,
    degradation_entry,
    register_degradation,
    resolve_degradation,
    unregister_degradation,
)

FS = 100.0
KINDS = ("dropout", "motion", "noise", "compression")


@pytest.fixture(scope="module")
def clean():
    rng = np.random.default_rng(7)
    t = np.arange(2000) / FS
    x = np.sin(2 * np.pi * 1.3 * t) + 0.4 * np.sin(2 * np.pi * 2.1 * t)
    return x + 0.02 * rng.standard_normal(t.size)


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
def test_builtin_kinds_registered():
    assert available_degradations() == sorted(KINDS)


def test_degradation_entry_did_you_mean():
    with pytest.raises(ConfigurationError, match="dropout"):
        degradation_entry("dropuot")


def test_register_unregister_roundtrip():
    register_degradation("dropout2", SensorDropoutSpec, "extra gaps")
    try:
        assert "dropout2" in available_degradations()
        spec = default_degradation("dropout2", severity=0.2)
        assert isinstance(spec, SensorDropoutSpec)
        assert spec.kind == "dropout2"
        with pytest.raises(ConfigurationError, match="already registered"):
            register_degradation("dropout2", SensorDropoutSpec)
    finally:
        unregister_degradation("dropout2")
    assert "dropout2" not in available_degradations()


def test_register_rejects_non_spec_class():
    with pytest.raises(ConfigurationError, match="subclass"):
        register_degradation("bogus", dict)


def test_resolve_degradation_forms():
    by_name = resolve_degradation("noise")
    assert isinstance(by_name, NoiseSpec)
    by_dict = resolve_degradation({"kind": "noise", "severity": 0.25})
    assert by_dict.severity == 0.25
    spec = NoiseSpec(severity=0.1)
    assert resolve_degradation(spec) is spec
    with pytest.raises(ConfigurationError, match="expected a degradation"):
        resolve_degradation(3.5)


# ---------------------------------------------------------------------- #
# Contract invariants, each kind
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
def test_seeded_determinism(kind, clean):
    spec = default_degradation(kind, severity=0.5, seed=11)
    out1 = spec.apply(clean, FS)
    out2 = spec.apply(clean, FS)
    np.testing.assert_array_equal(out1, out2)
    if kind != "compression":  # compression is the one noise-free op
        other_seed = default_degradation(kind, severity=0.5, seed=12)
        assert np.any(other_seed.apply(clean, FS) != out1)


@pytest.mark.parametrize("kind", KINDS)
def test_zero_severity_is_bitwise_identity(kind, clean):
    spec = default_degradation(kind, severity=0.0)
    out = spec.apply(clean, FS)
    np.testing.assert_array_equal(out, clean)
    # Fresh array, never an alias of the caller's buffer.
    assert out is not clean
    out[0] = 123.0
    assert clean[0] != 123.0


@pytest.mark.parametrize("kind", KINDS)
def test_monotone_damage_with_severity(kind, clean):
    severities = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
    damages = []
    for severity in severities:
        spec = default_degradation(kind, severity=severity, seed=3)
        out = spec.apply(clean, FS)
        damages.append(float(np.mean((out - clean) ** 2)))
    assert damages[0] == 0.0
    for lo, hi in zip(damages, damages[1:]):
        assert hi >= lo
    assert damages[-1] > 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_dict_and_json_roundtrip(kind, clean):
    spec = default_degradation(kind, severity=0.4, seed=21)
    data = spec.to_dict()
    assert data["kind"] == kind
    rebuilt = DegradationSpec.from_dict(json.loads(json.dumps(data)))
    assert rebuilt == spec
    np.testing.assert_array_equal(
        rebuilt.apply(clean, FS), spec.apply(clean, FS)
    )


@pytest.mark.parametrize("kind", KINDS)
def test_apply_validates_inputs(kind, clean):
    spec = default_degradation(kind, severity=0.5)
    with pytest.raises(ConfigurationError):
        spec.apply(clean, 0.0)
    with pytest.raises(ShapeError):
        spec.apply(np.zeros((4, 4)), FS)


# ---------------------------------------------------------------------- #
# Malformed specs
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("severity", [-0.1, float("nan"), float("inf"), "hi"])
def test_bad_severity_rejected(severity):
    with pytest.raises(ConfigurationError):
        NoiseSpec(severity=severity)


def test_dropout_severity_beyond_one_rejected():
    with pytest.raises(ConfigurationError):
        SensorDropoutSpec(severity=1.5)


def test_compression_severity_beyond_one_rejected():
    with pytest.raises(ConfigurationError):
        CompressionSpec(severity=1.5)


def test_bad_seed_rejected():
    with pytest.raises(ConfigurationError, match="seed"):
        NoiseSpec(seed=1.5)
    with pytest.raises(ConfigurationError, match="seed"):
        NoiseSpec(seed=True)


def test_zero_length_gap_rejected():
    with pytest.raises(ConfigurationError, match="positive duration"):
        SensorDropoutSpec(gaps=((1.0, 0.0),))
    with pytest.raises(ConfigurationError, match="positive duration"):
        SensorDropoutSpec(gaps=((1.0, -0.5),))
    with pytest.raises(ConfigurationError, match=">= 0"):
        SensorDropoutSpec(gaps=((-1.0, 0.5),))
    with pytest.raises(ConfigurationError, match="pairs"):
        SensorDropoutSpec(gaps=(3.0,))


@pytest.mark.parametrize("gaps", [
    True,
    None,
    (("x", 1.0),),
    ((1.0, "0.5"),),
    ((True, 1.0),),
    ((1.0, float("inf")),),
    ((float("nan"), 1.0),),
])
def test_malformed_gaps_rejected(gaps):
    with pytest.raises(ConfigurationError, match="gaps"):
        SensorDropoutSpec(gaps=gaps)


def test_bad_dropout_knobs_rejected():
    with pytest.raises(ConfigurationError, match="gap_seconds"):
        SensorDropoutSpec(gap_seconds=0.0)
    with pytest.raises(ConfigurationError, match="hold"):
        SensorDropoutSpec(mode="sticky")


def test_bad_compression_knobs_rejected():
    with pytest.raises(ConfigurationError, match="bits"):
        CompressionSpec(bits=0)
    with pytest.raises(ConfigurationError, match="clip_fraction"):
        CompressionSpec(clip_fraction=1.0)


def test_bad_motion_knobs_rejected():
    with pytest.raises(ConfigurationError, match="cutoff_hz"):
        MotionArtifactSpec(cutoff_hz=-0.1)


def test_from_dict_unknown_kind_and_field():
    with pytest.raises(ConfigurationError, match="noise"):
        DegradationSpec.from_dict({"kind": "nois"})
    with pytest.raises(ConfigurationError, match="severity"):
        DegradationSpec.from_dict({"kind": "noise", "sevrity": 0.5})
    with pytest.raises(ConfigurationError, match="'kind'"):
        DegradationSpec.from_dict({"severity": 0.5})
    with pytest.raises(ConfigurationError, match="does not match"):
        NoiseSpec.from_dict({"kind": "dropout"})


# ---------------------------------------------------------------------- #
# Kind-specific behavior
# ---------------------------------------------------------------------- #
def test_dropout_explicit_gap_placement(clean):
    spec = SensorDropoutSpec(severity=0.5, gaps=((5.0, 1.0), (10.0, 0.5)))
    mask = spec.gap_mask(clean.size, FS)
    assert mask[500:600].all() and mask[1000:1050].all()
    assert mask.sum() == 150
    out = spec.apply(clean, FS)
    assert np.all(out[mask] == 0.0)
    np.testing.assert_array_equal(out[~mask], clean[~mask])


def test_dropout_gap_beyond_record_raises(clean):
    spec = SensorDropoutSpec(gaps=((clean.size / FS + 1.0, 0.5),))
    with pytest.raises(DataError, match="beyond"):
        spec.apply(clean, FS)
    too_long = SensorDropoutSpec(severity=0.5, gap_seconds=clean.size / FS * 2)
    with pytest.raises(DataError, match="longer than"):
        too_long.apply(clean, FS)


def test_dropout_random_mask_fraction(clean):
    for severity in (0.2, 0.5, 0.8):
        spec = SensorDropoutSpec(severity=severity, gap_seconds=0.25)
        frac = spec.gap_mask(clean.size, FS).mean()
        assert severity - 0.05 <= frac <= severity + 0.05


def test_dropout_masks_nested_across_severities(clean):
    lo = SensorDropoutSpec(severity=0.3, seed=5).gap_mask(clean.size, FS)
    hi = SensorDropoutSpec(severity=0.7, seed=5).gap_mask(clean.size, FS)
    assert np.all(hi[lo])  # every low-severity gap is also a high one


def test_dropout_hold_mode(clean):
    spec = SensorDropoutSpec(severity=0.3, mode="hold", gaps=((5.0, 1.0),))
    out = spec.apply(clean, FS)
    np.testing.assert_array_equal(out[500:600], np.full(100, clean[499]))
    # A gap starting at sample 0 has no last-good sample: reads 0.
    lead = SensorDropoutSpec(severity=0.3, mode="hold", gaps=((0.0, 0.5),))
    assert np.all(lead.apply(clean, FS)[:50] == 0.0)


def test_dropout_saturate_mode(clean):
    spec = SensorDropoutSpec(severity=0.3, mode="saturate", gaps=((5.0, 1.0),))
    out = spec.apply(clean, FS)
    assert np.all(out[500:600] == np.max(np.abs(clean)))


def test_noise_snr_conversion(clean):
    spec = NoiseSpec.from_snr_db(20.0)
    assert spec.severity == pytest.approx(0.1)
    assert spec.snr_db == pytest.approx(20.0)
    assert NoiseSpec(severity=0.0).snr_db == float("inf")
    with pytest.raises(ConfigurationError, match="snr_db"):
        NoiseSpec.from_snr_db(float("nan"))
    out = spec.apply(clean, FS)
    clean_rms = np.sqrt(np.mean(clean ** 2))
    noise_rms = np.sqrt(np.mean((out - clean) ** 2))
    measured_snr = 20 * np.log10(clean_rms / noise_rms)
    assert measured_snr == pytest.approx(20.0, abs=1.0)


def test_motion_adds_low_frequency_wander(clean):
    spec = MotionArtifactSpec(severity=0.8, cutoff_hz=0.1)
    drift = spec.apply(clean, FS) - clean
    spectrum = np.abs(np.fft.rfft(drift))
    freqs = np.fft.rfftfreq(drift.size, 1.0 / FS)
    in_band = spectrum[freqs <= 2 * spec.cutoff_hz].sum()
    assert in_band / spectrum.sum() > 0.9


def test_compression_clips_and_quantizes(clean):
    spec = CompressionSpec(severity=1.0, bits=4, clip_fraction=0.5)
    out = spec.apply(clean, FS)
    peak = np.max(np.abs(clean))
    assert np.max(np.abs(out)) <= 0.5 * peak + 1e-12
    step = peak / 2 ** 4
    np.testing.assert_allclose(out / step, np.round(out / step), atol=1e-9)


def test_severity_independent_realisation(clean):
    # The dropout slots chosen at severity 0.4 appear within those at
    # 0.8, and the noise shape at two severities is a pure rescale.
    lo = NoiseSpec(severity=0.2, seed=9).apply(clean, FS) - clean
    hi = NoiseSpec(severity=0.4, seed=9).apply(clean, FS) - clean
    # (x + 2n) - x vs 2((x + n) - x): equal up to cancellation rounding.
    np.testing.assert_allclose(hi, 2.0 * lo, atol=1e-9)


def test_replace_keeps_other_knobs():
    base = SensorDropoutSpec(severity=0.5, gap_seconds=0.25, mode="hold")
    bumped = base.replace(severity=0.9)
    assert bumped.gap_seconds == 0.25 and bumped.mode == "hold"
    assert bumped.severity == 0.9 and base.severity == 0.5
