"""Compare all seven separation methods on a three-source mixture.

Reproduces one column-group of Table 2: every method separates MSig5
(respiration + maternal + fetal) and is scored with the paper's SDR/MSE
metrics, printed as an aligned table.

Run:  python examples/baseline_showdown.py
"""

import time

from repro.config import SCORING_BAND_HZ, get_preset
from repro.dsp import bandpass_filter
from repro.experiments import table2_specs
from repro.metrics import mse, sdr_db
from repro.service import build_separator
from repro.synth import make_mixture
from repro.utils.tables import TextTable


def main() -> None:
    preset = get_preset("fast")
    mixture = make_mixture("msig5", duration_s=preset.signal_duration_s,
                           seed=5)
    low, high = SCORING_BAND_HZ
    references = {
        name: bandpass_filter(signal, mixture.sampling_hz, low, high)
        for name, signal in mixture.sources.items()
    }

    table = TextTable(
        ["method", "time (s)"] + [
            f"{name} SDR/MSE" for name in mixture.source_names()
        ],
        title=f"Table 2 excerpt — {mixture.spec.name} "
              f"({mixture.spec.description})",
    )
    for name, spec in table2_specs(preset).items():
        separator = build_separator(spec)
        start = time.time()
        estimates = separator.separate(
            mixture.mixed, mixture.sampling_hz, mixture.f0_tracks
        )
        elapsed = time.time() - start
        row = [name, f"{elapsed:.1f}"]
        for src in mixture.source_names():
            est = bandpass_filter(estimates[src], mixture.sampling_hz,
                                  low, high)
            row.append(
                f"{sdr_db(est, references[src]):.2f}/"
                f"{mse(est, references[src]):.1e}"
            )
        table.add_row(row)
    print(table.render())


if __name__ == "__main__":
    main()
