"""Tests for the frozen separator specs (repro.service.specs)."""

import dataclasses

import pytest

from repro.config import get_preset
from repro.errors import ConfigurationError
from repro.service import (
    DHFSpec,
    EMDSpec,
    NMFSpec,
    RepetSpec,
    SeparatorSpec,
    SpectralMaskingSpec,
    VMDSpec,
    available_separators,
    build_separator,
    default_spec,
    resolve_spec,
)

ALL_SPEC_CLASSES = (
    DHFSpec, EMDSpec, VMDSpec, NMFSpec, RepetSpec, SpectralMaskingSpec,
)


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        n for n in ("dhf", "emd", "vmd", "nmf", "repet", "repet-ext",
                    "spectral-masking")
    ])
    def test_default_spec_round_trips(self, name):
        spec = default_spec(name)
        data = spec.to_dict()
        assert data["method"] == spec.method
        rebuilt = SeparatorSpec.from_dict(data)
        assert rebuilt == spec
        assert type(rebuilt) is type(spec)

    def test_custom_values_survive(self):
        spec = VMDSpec(modes_per_source=2, alpha=900.0)
        rebuilt = SeparatorSpec.from_dict(spec.to_dict())
        assert rebuilt.modes_per_source == 2
        assert rebuilt.alpha == 900.0

    def test_subclass_from_dict_without_method_key(self):
        spec = EMDSpec.from_dict({"max_imfs": 6})
        assert spec == EMDSpec(max_imfs=6)

    def test_repet_ext_dict_applies_entry_defaults(self):
        # Naming 'repet-ext' in a spec dict must build the *extended*
        # variant even without an explicit extended field.
        spec = SeparatorSpec.from_dict({"method": "repet-ext"})
        assert spec.extended is True
        spec = SeparatorSpec.from_dict(
            {"method": "repet-ext", "n_fft_seconds": 4.0}
        )
        assert spec.extended is True and spec.n_fft_seconds == 4.0
        # An explicit field still wins over the entry default.
        spec = SeparatorSpec.from_dict(
            {"method": "repet-ext", "extended": False}
        )
        assert spec.extended is False

    @pytest.mark.parametrize("data,method", [
        ({"method": "repet-ext", "extended": False}, "repet"),
        ({"method": "repet", "extended": True}, "repet-ext"),
    ])
    def test_repet_label_follows_the_variant_that_runs(self, data, method):
        # The label a job reports (spec.method) names the variant the
        # separator runs (spec.extended), whichever field a dict names.
        spec = SeparatorSpec.from_dict(data)
        assert spec.extended is data["extended"]
        assert spec.method == method
        assert build_separator(data).spec == spec
        assert spec.to_dict()["method"] == method

    def test_repet_ext_round_trips_with_own_method_name(self):
        # repet-ext shares RepetSpec with repet, but a spec built from
        # the repet-ext entry remembers its entry name and round-trips.
        spec = default_spec("repet-ext")
        data = spec.to_dict()
        assert data["method"] == "repet-ext"
        assert data["extended"] is True
        assert SeparatorSpec.from_dict(data) == spec

    def test_dict_is_json_compatible(self):
        import json

        for name in available_separators():
            spec = default_spec(name)
            assert SeparatorSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            ) == spec


class TestFromDictErrors:
    @pytest.mark.parametrize("spec_cls", [SeparatorSpec, EMDSpec])
    @pytest.mark.parametrize("data", ["emd", [("method", "emd")]],
                             ids=["str", "pairs"])
    def test_needs_a_mapping(self, spec_cls, data):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            spec_cls.from_dict(data)

    def test_missing_method_on_base(self):
        with pytest.raises(ConfigurationError, match="method"):
            SeparatorSpec.from_dict({"max_imfs": 3})

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            SeparatorSpec.from_dict({"method": "dfh"})

    def test_unknown_field_suggests(self):
        with pytest.raises(ConfigurationError, match="max_imfs"):
            SeparatorSpec.from_dict({"method": "emd", "max_imf": 3})
        # Fields DHFSpec does not have (every fit starts cold, at its
        # round's own time dilation).
        for field, value in (("batch_fit", True), ("warm_start", True),
                             ("zoo_path", "fits/"),
                             ("prior_time_dilation", 13)):
            with pytest.raises(ConfigurationError,
                               match=f"unknown DHFSpec field '{field}'"):
                SeparatorSpec.from_dict({"method": "dhf", field: value})

    @pytest.mark.parametrize("build", [
        lambda: DHFSpec(early_stop_patience=3),
        lambda: DHFSpec.from_preset("smoke", early_stop_rel_tol=0.1),
        lambda: resolve_spec({"method": "dhf", "early_stop_patience": 5}),
    ], ids=["constructor", "from-preset", "resolve-spec"])
    def test_removed_early_stop_fields_are_unknown(self, build):
        # Every fit runs its full budget; the early-stop knobs are gone.
        with pytest.raises(ConfigurationError,
                           match="unknown DHFSpec field 'early_stop_"):
            build()

    @pytest.mark.parametrize("spec_cls", ALL_SPEC_CLASSES,
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("build", [
        lambda cls, name: cls(**{name: 1}),
        lambda cls, name: cls().replace(**{name: 1}),
    ], ids=["constructor", "replace"])
    def test_misspelled_keyword_suggests(self, spec_cls, build):
        # The did-you-mean ConfigurationError of from_dict, not the
        # generated __init__'s TypeError, however the spec is built.
        field = dataclasses.fields(spec_cls)[1].name
        with pytest.raises(
            ConfigurationError,
            match=f"unknown {spec_cls.__name__} field '{field}x' "
                  f"— did you mean '{field}'",
        ):
            build(spec_cls, field + "x")

    def test_method_mismatch_on_subclass(self):
        with pytest.raises(ConfigurationError, match="does not match"):
            EMDSpec.from_dict({"method": "vmd"})


class TestValidation:
    @pytest.mark.parametrize("spec_cls, bad", [
        (EMDSpec, {"max_imfs": 0}),
        (EMDSpec, {"sd_threshold": -0.1}),
        (EMDSpec, {"n_harmonics": 2.5}),
        (VMDSpec, {"alpha": -1.0}),
        (VMDSpec, {"max_iterations": 0}),
        (NMFSpec, {"components_per_source": 0}),
        (NMFSpec, {"n_iterations": True}),
        (RepetSpec, {"extended": "yes"}),
        (RepetSpec, {"n_fft_seconds": 0.0}),
        (SpectralMaskingSpec, {"hop_fraction": 1.5}),
        (SpectralMaskingSpec, {"hop_fraction": 0.0}),
        (SpectralMaskingSpec, {"n_harmonics": 0}),
        (DHFSpec, {"samples_per_period": 0}),
        (DHFSpec, {"phase_policy": "bogus"}),
        (DHFSpec, {"hop_periods": 40}),       # > periods_per_window // 4
        (DHFSpec, {"periods_per_window": 6, "hop_periods": 2}),
        (DHFSpec, {"time_dilation": "fast"}),
        (DHFSpec, {"time_dilation": -3}),
        (DHFSpec, {"time_dilation": 0}),
        (DHFSpec, {"time_dilation": True}),
        (DHFSpec, {"iterations": -3}),
        (DHFSpec, {"seed": "x"}),
        (DHFSpec, {"seed": None}),
        (DHFSpec, {"seed": -1}),
        (DHFSpec, {"seed": 1.5}),
        (DHFSpec, {"seed": True}),
        (DHFSpec, {"bandwidth_slope_bins": "x"}),
        (DHFSpec, {"bandwidth_slope_bins": -1}),
        (DHFSpec, {"bandwidth_slope_bins": float("nan")}),
        (DHFSpec, {"bandwidth_slope_bins": True}),
        (NMFSpec, {"seed": "x"}),
        (NMFSpec, {"seed": -1}),
        (NMFSpec, {"seed": True}),
        (SpectralMaskingSpec, {"hop_fraction": "x"}),
        (SpectralMaskingSpec, {"hop_fraction": None}),
        (SpectralMaskingSpec, {"hop_fraction": True}),
        (SpectralMaskingSpec, {"exclusive": "x"}),
        (SpectralMaskingSpec, {"exclusive": 0}),
        (SpectralMaskingSpec, {"exclusive": None}),
    ])
    def test_bad_values_raise(self, spec_cls, bad):
        with pytest.raises(ConfigurationError):
            spec_cls(**bad)

    def test_specs_are_frozen(self):
        spec = EMDSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.max_imfs = 3

    def test_replace_revalidates(self):
        spec = VMDSpec()
        assert spec.replace(alpha=500.0).alpha == 500.0
        with pytest.raises(ConfigurationError):
            spec.replace(alpha=-1.0)


class TestDHFSpec:
    def test_from_preset_accepts_name(self):
        assert DHFSpec.from_preset("smoke") == \
            DHFSpec.from_preset(get_preset("smoke"))

    def test_from_preset_overrides(self):
        spec = DHFSpec.from_preset("smoke", phase_policy="cyclic")
        assert spec.phase_policy == "cyclic"
        assert spec.samples_per_period == \
            get_preset("smoke").alignment.samples_per_period

    def test_unknown_preset_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            DHFSpec.from_preset("smok")
