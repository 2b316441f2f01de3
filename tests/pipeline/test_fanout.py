"""Every ``workers`` entry point fans out in worker processes.

:class:`PidSeparator` writes the pid of the process that ran it into
every estimate, so each test can tell where the separation happened:
with ``workers=2`` and at least two records no estimate may carry this
process's pid, and with ``workers=0`` every one must.  A service
pickles its separator once for the workers, whether it was built from
a spec or by hand; both kinds of service are covered.
"""

import os

import numpy as np
import pytest

from repro.pipeline import records_from_arrays
from repro.separation import Separator
from repro.service import SeparationService, default_spec
from repro.synth import make_mixture
from repro.tfo import make_sheep_recording
from repro.tfo.monitor import run_in_vivo_batch

FS = 100.0


class PidSeparator(Separator):
    """Source k gets ``mixed / (k + 1)`` with its first sample set to
    the pid of the separating process (module level, so picklable)."""

    name = "pid"

    def separate(self, mixed, sampling_hz, f0_tracks):
        mixed = self._validate(mixed, sampling_hz, f0_tracks)
        out = {}
        for k, name in enumerate(f0_tracks):
            estimate = mixed / (k + 1.0)
            estimate[0] = os.getpid()
            out[name] = estimate
        return out


def _records(n=4, n_samples=300):
    rng = np.random.default_rng(0)
    return records_from_arrays(
        rng.standard_normal((n, n_samples)), FS,
        {"a": np.full(n_samples, 1.2), "b": np.full(n_samples, 2.3)},
    )


def _pids(estimates):
    return {int(estimate[0]) for estimate in estimates}


def _batch_pids(batch):
    return _pids(
        estimate for result in batch.results
        for estimate in result.estimates.values()
    )


def _batch(method, records, workers):
    with SeparationService(method, workers=workers) as service:
        return service.separate_batch(records).batch


def test_batch_fans_out_in_processes():
    parent = os.getpid()
    assert _batch_pids(_batch(PidSeparator(), _records(), 0)) == {parent}
    fanned = _batch_pids(_batch(PidSeparator(), _records(), 2))
    assert fanned and parent not in fanned


def _mixture_records(n=3):
    mixture = make_mixture("msig1", duration_s=6.0, seed=4)
    return records_from_arrays(
        [mixture.mixed * (1.0 + 0.1 * i) for i in range(n)],
        mixture.sampling_hz, mixture.f0_tracks,
    )


@pytest.mark.parametrize("method, records, start", [
    (default_spec("spectral-masking"), _mixture_records(), 0),
    (PidSeparator(), _records(), 1),
], ids=["spec", "separator"])
def test_sharded_estimates_equal_serial(method, records, start):
    """Workers run a copy of the service's own separator, so their
    estimates equal the serial ones bitwise (from sample ``start`` on:
    :class:`PidSeparator` stamps its first sample with the pid)."""
    serial = _batch(method, records, 0)
    fanned = _batch(method, records, 2)
    for ours, ref in zip(fanned.results, serial.results):
        assert list(ours.estimates) == list(ref.estimates)
        for source, estimate in ref.estimates.items():
            assert np.array_equal(
                ours.estimates[source][start:], estimate[start:]
            )


def test_in_vivo_batch_fans_out_in_processes():
    recording = make_sheep_recording(
        "sheep1", duration_s=120.0, sampling_hz=20.0, seed=3,
    )
    parent = os.getpid()

    def fetal_pids(workers):
        result = run_in_vivo_batch([recording], PidSeparator(), workers=workers)
        (fit,) = result[recording.name].values()
        assert len(fit.fetal_estimates) == 2  # both wavelengths
        return _pids(fit.fetal_estimates.values())

    assert fetal_pids(0) == {parent}
    fanned = fetal_pids(2)
    assert fanned and parent not in fanned


def test_sharded_service_streams_in_process():
    records = _records()
    kwargs = dict(segment_samples=120, overlap_samples=40, chunk_samples=50)
    with SeparationService(PidSeparator()) as serial:
        expected = serial.stream_batch(records, **kwargs).batch
    with SeparationService(PidSeparator(), workers=2) as sharded:
        streamed = sharded.stream_batch(records, **kwargs).batch
        single = sharded.stream(records[0], **kwargs)
        assert sharded._engine._pool is None  # no worker ever started
    assert _batch_pids(streamed) == {os.getpid()}
    for ours, ref in zip(streamed.results, expected.results):
        assert ours.name == ref.name
        for source in ref.estimates:
            assert np.array_equal(ours.estimates[source], ref.estimates[source])
    for source in single.estimates:
        assert np.array_equal(
            single.estimates[source], expected.results[0].estimates[source]
        )
