"""Tests for the separator registry (repro.service.registry)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.baselines import (
    EMDSeparator,
    NMFSeparator,
    REPETSeparator,
    SpectralMaskingSeparator,
    VMDSeparator,
)
from repro.core import DHFSeparator
from repro.errors import ConfigurationError
from repro.service import (
    DHFSpec,
    EMDSpec,
    NMFSpec,
    RepetSpec,
    SpectralMaskingSpec,
    VMDSpec,
    available_separators,
    build_separator,
    default_spec,
    resolve_spec,
    separator_entry,
)

#: Every separator class with the spec class that configures it.
SEPARATOR_SPECS = [
    (DHFSeparator, DHFSpec),
    (EMDSeparator, EMDSpec),
    (VMDSeparator, VMDSpec),
    (NMFSeparator, NMFSpec),
    (REPETSeparator, RepetSpec),
    (SpectralMaskingSeparator, SpectralMaskingSpec),
]


class TestBuiltins:
    def test_all_builtin_methods_registered(self):
        assert available_separators() == [
            "dhf", "emd", "vmd", "nmf", "repet", "repet-ext",
            "spectral-masking",
        ]

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

    @pytest.mark.parametrize("name", [
        "dhf", "emd", "vmd", "nmf", "repet", "repet-ext", "spectral-masking",
    ])
    def test_entry_equals_class_defaults(self, name):
        # One declaration per knob: the entry builds its default spec,
        # and a separator without a spec has its spec class's defaults.
        separator = build_separator(name)
        assert separator.spec == default_spec(name)
        separator_cls = type(separator)
        spec_cls = separator_entry(name).spec_cls
        assert separator_cls() == separator_cls(spec_cls())
        assert separator_cls().spec == spec_cls()

    @pytest.mark.parametrize(
        "separator_cls, spec_cls", SEPARATOR_SPECS,
        ids=[cls.__name__ for cls, _ in SEPARATOR_SPECS],
    )
    def test_spec_of_another_class_raises(self, separator_cls, spec_cls):
        other = EMDSpec() if spec_cls is not EMDSpec else VMDSpec()
        with pytest.raises(ConfigurationError, match=spec_cls.__name__):
            separator_cls(other)

    def test_spec_naming_another_method_raises(self):
        with pytest.raises(ConfigurationError, match="VMDSpec"):
            build_separator(EMDSpec(method="vmd"))

    def test_repet_ext_defaults_flip_extended(self):
        sep = build_separator("repet-ext")
        assert sep.spec.extended is True
        assert sep.name == "REPET-Ext."
        assert default_spec("repet").extended is False

    def test_build_from_spec_and_dict(self):
        sep = build_separator(EMDSpec(max_imfs=5))
        assert sep.spec == EMDSpec(max_imfs=5)
        sep = build_separator({"method": "emd", "max_imfs": 4})
        assert sep.spec.max_imfs == 4

    def test_build_with_overrides(self):
        sep = build_separator("spectral-masking", n_harmonics=3)
        assert sep.spec.n_harmonics == 3

    def test_unknown_name_did_you_mean(self):
        with pytest.raises(ConfigurationError, match="did you mean 'DHF'"):
            build_separator("dfh")
        with pytest.raises(ConfigurationError, match="did you mean"):
            separator_entry("spectral masking")

    def test_resolve_spec_rejects_junk(self):
        with pytest.raises(ConfigurationError, match="separator name"):
            resolve_spec(42)

    def test_import_loads_no_separator_module(self):
        # The gateway child times its imports; separators load on build.
        code = (
            "import sys, repro.service; "
            "print(any(m.startswith('repro.baselines') for m in sys.modules))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"
