"""Tests for the separator registry (repro.service.registry)."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.baselines import (
    EMDSeparator,
    NMFSeparator,
    REPETSeparator,
    SpectralMaskingSeparator,
    VMDSeparator,
)
from repro.core import DHFSeparator
from repro.errors import ConfigurationError
from repro.separation import Separator
from repro.service import (
    EMDSpec,
    SeparatorSpec,
    SpectralMaskingSpec,
    available_separators,
    build_separator,
    default_spec,
    register_separator,
    resolve_spec,
    separator_entry,
    unregister_separator,
)


@dataclass(frozen=True)
class _ToySpec(SeparatorSpec):
    method: str = "toy"

    gain: float = 1.0


class _ToySeparator(Separator):
    name = "Toy"

    def __init__(self, gain: float = 1.0):
        self.gain = gain

    def separate(self, mixed, sampling_hz, f0_tracks):
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        return {name: self.gain * mixed for name in f0_tracks}


@pytest.fixture
def toy_registration():
    entry = register_separator(
        "toy", lambda spec: _ToySeparator(gain=spec.gain), _ToySpec,
        description="identity-ish toy method",
    )
    yield entry
    unregister_separator("toy", missing_ok=True)


class TestBuiltins:
    def test_all_builtin_methods_registered(self):
        assert set(available_separators()) >= {
            "dhf", "emd", "vmd", "nmf", "repet", "repet-ext",
            "spectral-masking",
        }

    @pytest.mark.parametrize("name, cls", [
        ("dhf", DHFSeparator),
        ("emd", EMDSeparator),
        ("vmd", VMDSeparator),
        ("nmf", NMFSeparator),
        ("repet", REPETSeparator),
        ("repet-ext", REPETSeparator),
        ("spectral-masking", SpectralMaskingSeparator),
    ])
    def test_build_by_name(self, name, cls):
        assert isinstance(build_separator(name), cls)

    @pytest.mark.parametrize("alias, canonical", [
        ("DHF", "dhf"),
        ("EMD", "emd"),
        ("REPET-Ext.", "repet-ext"),
        ("Spect. Masking", "spectral-masking"),
        ("SPECTRAL-MASKING", "spectral-masking"),  # case-insensitive
    ])
    def test_aliases_resolve(self, alias, canonical):
        assert separator_entry(alias).name == canonical

    @pytest.mark.parametrize("name, separator", [
        pytest.param(name, separator, id=name) for name, separator in (
            ("emd", EMDSeparator()),
            ("vmd", VMDSeparator()),
            ("nmf", NMFSeparator()),
            ("repet", REPETSeparator()),
            ("repet-ext", REPETSeparator(extended=True)),
            ("spectral-masking", SpectralMaskingSeparator()),
        )
    ])
    def test_entry_equals_class_defaults(self, name, separator):
        assert build_separator(name) == separator

    def test_dhf_entry_equals_class_default(self):
        assert build_separator("dhf").config == DHFSeparator().config

    def test_repet_ext_defaults_flip_extended(self):
        sep = build_separator("repet-ext")
        assert sep.extended is True
        assert sep.name == "REPET-Ext."
        assert default_spec("repet").extended is False

    def test_build_from_spec_and_dict(self):
        sep = build_separator(EMDSpec(max_imfs=5))
        assert sep.max_imfs == 5
        sep = build_separator({"method": "emd", "max_imfs": 4})
        assert sep.max_imfs == 4

    def test_build_with_overrides(self):
        sep = build_separator("spectral-masking", n_harmonics=3)
        assert sep.n_harmonics == 3

    def test_unknown_name_did_you_mean(self):
        with pytest.raises(ConfigurationError, match="did you mean 'DHF'"):
            build_separator("dfh")
        with pytest.raises(ConfigurationError, match="did you mean"):
            separator_entry("spectral masking")

    def test_resolve_spec_rejects_junk(self):
        with pytest.raises(ConfigurationError, match="separator name"):
            resolve_spec(42)


class TestRegistration:
    def test_register_build_unregister(self, toy_registration):
        assert "toy" in available_separators()
        sep = build_separator("toy", gain=2.0)
        out = sep.separate([1.0, 2.0], 10.0, {"a": [1.0, 1.0]})
        assert np.allclose(out["a"], [2.0, 4.0])
        unregister_separator("toy")
        with pytest.raises(ConfigurationError):
            separator_entry("toy")

    def test_duplicate_name_raises(self, toy_registration):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_separator(
                "toy", lambda spec: _ToySeparator(), _ToySpec,
            )

    def test_duplicate_builtin_raises(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_separator(
                "dhf", lambda spec: _ToySeparator(), _ToySpec,
            )

    def test_alias_clash_with_other_entry_raises(self, toy_registration):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_separator(
                "toy2", lambda spec: _ToySeparator(), _ToySpec,
                aliases=("toy",),
            )
        assert "toy2" not in available_separators()

    def test_replace_reregisters(self, toy_registration):
        register_separator(
            "toy", lambda spec: _ToySeparator(gain=-spec.gain), _ToySpec,
            replace=True,
        )
        sep = build_separator("toy", gain=3.0)
        assert sep.gain == -3.0

    def test_unregister_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown separator"):
            unregister_separator("never-registered")

    def test_bad_factory_rejected(self):
        with pytest.raises(ConfigurationError, match="callable"):
            register_separator("bad", None, _ToySpec)

    def test_bad_spec_cls_rejected(self):
        with pytest.raises(ConfigurationError, match="SeparatorSpec"):
            register_separator("bad", lambda s: _ToySeparator(), dict)

    def test_defaults_must_name_spec_fields(self):
        with pytest.raises(ConfigurationError, match="gain"):
            register_separator(
                "bad", lambda s: _ToySeparator(), _ToySpec,
                defaults={"gian": 2.0},
            )

    def test_factory_must_return_separator(self):
        register_separator("broken", lambda spec: object(), _ToySpec)
        try:
            with pytest.raises(ConfigurationError, match="not a Separator"):
                build_separator("broken")
        finally:
            unregister_separator("broken", missing_ok=True)

    def test_shared_spec_class_dispatches_to_own_factory(self):
        # A plugin may reuse a built-in spec class; specs built from its
        # entry must come back to *its* factory, not the built-in's.
        from repro.service import SpectralMaskingSpec

        register_separator(
            "plugin-mask", lambda spec: _ToySeparator(gain=0.5),
            SpectralMaskingSpec,
        )
        try:
            spec = default_spec("plugin-mask")
            assert spec.method == "plugin-mask"
            assert isinstance(build_separator(spec), _ToySeparator)
            assert isinstance(build_separator("plugin-mask"), _ToySeparator)
            # The built-in entry is untouched.
            from repro.baselines import SpectralMaskingSeparator
            assert isinstance(
                build_separator(SpectralMaskingSpec()),
                SpectralMaskingSeparator,
            )
        finally:
            unregister_separator("plugin-mask", missing_ok=True)
