"""Shared fixtures for the test suite."""

import numpy as np
import pytest


def pytest_configure(config):
    # Marks the minutes-scale end-to-end tests; they still run in the
    # default suite.
    config.addinivalue_line(
        "markers", "slow: minutes-scale end-to-end test (runs by default)"
    )


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_mixture():
    """A short two-source Table 1 mixture shared across tests (read-only)."""
    from repro.synth import make_mixture

    return make_mixture("msig1", duration_s=30.0, seed=99)


@pytest.fixture(scope="session")
def three_source_mixture():
    """A short three-source mixture (MSig5) shared across tests."""
    from repro.synth import make_mixture

    return make_mixture("msig5", duration_s=30.0, seed=99)


@pytest.fixture
def two_tone(rng):
    """A two-sinusoid mixture with known components at 100 Hz."""
    t = np.arange(3000) / 100.0
    a = np.sin(2 * np.pi * 1.1 * t)
    b = 0.5 * np.sin(2 * np.pi * 2.9 * t + 0.7)
    return {"t": t, "a": a, "b": b, "mix": a + b, "fs": 100.0}
