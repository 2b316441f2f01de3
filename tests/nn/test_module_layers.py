"""Tests for the network's parameters and the initialisers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import Parameter
from repro.nn import init


class TestParameter:
    def test_parameters_require_grad(self):
        assert Parameter(np.zeros(1)).requires_grad


#: Every initialiser, called on a (3, 3) shape with any extra keywords.
INITIALISERS = {
    "kaiming_uniform": lambda **kw: init.kaiming_uniform(
        (3, 3), np.random.default_rng(0), **kw),
    "zeros": lambda **kw: init.zeros((3, 3), **kw),
    "ones": lambda **kw: init.ones((3, 3), **kw),
}


class TestInit:
    @pytest.mark.parametrize("name", sorted(INITIALISERS))
    def test_default_is_float32(self, name):
        assert INITIALISERS[name]().dtype == np.float32

    @pytest.mark.parametrize("name", sorted(INITIALISERS))
    def test_explicit_dtype_preserved(self, name):
        assert INITIALISERS[name](dtype=np.float64).dtype == np.float64

    def test_kaiming_bound_uses_fan_in(self):
        # fan_in = 4 input channels x 3 x 5 taps; gain sqrt(2).
        values = init.kaiming_uniform((2, 4, 3, 5), np.random.default_rng(1),
                                      dtype=np.float64)
        assert np.abs(values).max() <= np.sqrt(2.0) * np.sqrt(3.0 / 60)

    def test_kaiming_needs_two_axes(self):
        with pytest.raises(ConfigurationError):
            init.kaiming_uniform((3,), np.random.default_rng(0))
