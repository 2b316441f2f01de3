"""SHA-256 of deep-prior results, for a bitwise check between two trees.

Prints one ``case sha256`` line per case:

* ``dhf/separate/<mixture>`` and ``dhf/separate_batch/<mixture>``: the
  DHF estimates of msig1..msig5 at the ``smoke`` preset, one record at a
  time through ``DHFSeparator.separate`` and all five through one
  ``DHFSeparator.separate_batch``;
* ``inpaint/<prior kind>/<dtype>``: the outputs, losses and concealed
  errors of one seeded 3-record ``inpaint_spectrograms`` run, for every
  prior kind at float32 and float64.

A change that must leave every fit bitwise unchanged prints the same
lines as its parent: run it in both trees and diff the outputs::

    python scripts/fit_hashes.py > change.txt

It imports ``repro`` from the tree it lives in and pins its own process
to one OpenBLAS thread before NumPy loads, since the GEMMs' summation
order depends on the thread count.  It takes no flags.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.config import get_preset  # noqa: E402
from repro.core import DHFSeparator  # noqa: E402
from repro.core.inpainting import (  # noqa: E402
    PRIOR_KINDS,
    InpaintingConfig,
    config_for_prior_kind,
    inpaint_spectrograms,
)
from repro.service import DHFSpec  # noqa: E402
from repro.synth import make_mixture  # noqa: E402

MIXTURES = ("msig1", "msig2", "msig3", "msig4", "msig5")
#: Spectrogram geometry and fit of the in-painting cases: the smoke
#: preset's network at a small extent.
INPAINT_SHAPE = (33, 40)
INPAINT_BASE = dict(iterations=12, learning_rate=8e-3, base_channels=6,
                    depth=2, time_dilation=5)


def digest(arrays) -> str:
    """SHA-256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def estimate_arrays(estimates) -> list:
    return [estimates[name] for name in sorted(estimates)]


def dhf_cases():
    preset = get_preset("smoke")
    separator = DHFSeparator(DHFSpec.from_preset(preset))
    mixtures = [make_mixture(name, duration_s=preset.signal_duration_s)
                for name in MIXTURES]
    fs = mixtures[0].sampling_hz
    for name, mixture in zip(MIXTURES, mixtures):
        estimates = separator.separate(mixture.mixed, fs, mixture.f0_tracks)
        yield f"dhf/separate/{name}", digest(estimate_arrays(estimates))
    batch = separator.separate_batch(
        [m.mixed for m in mixtures], fs, [m.f0_tracks for m in mixtures]
    )
    for name, estimates in zip(MIXTURES, batch):
        yield f"dhf/separate_batch/{name}", digest(estimate_arrays(estimates))


def inpaint_cases():
    rng = np.random.default_rng(2024)
    magnitudes = [rng.uniform(0.0, 2.0, INPAINT_SHAPE) for _ in range(3)]
    visibilities = [rng.random(INPAINT_SHAPE) < 0.7 for _ in range(3)]
    references = [m + rng.uniform(0.0, 0.1, INPAINT_SHAPE)
                  for m in magnitudes]
    for kind in PRIOR_KINDS:
        for dtype in (np.float32, np.float64):
            config = config_for_prior_kind(
                kind, InpaintingConfig(dtype=dtype, **INPAINT_BASE))
            results = inpaint_spectrograms(
                magnitudes, visibilities, config, rngs=[0, 1, 2],
                references=references,
            )
            arrays = []
            for result in results:
                arrays += [result.output, result.losses,
                           result.concealed_errors]
            yield f"inpaint/{kind}/{np.dtype(dtype).name}", digest(arrays)


def main() -> None:
    for case, value in (*dhf_cases(), *inpaint_cases()):
        print(case, value, flush=True)


if __name__ == "__main__":
    main()
