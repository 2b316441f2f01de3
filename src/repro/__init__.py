"""repro — reproduction of Deep Harmonic Finesse (DHF), DAC 2024.

Quasi-periodic signal separation from a single mixed measurement using
pattern alignment, harmonic masking, and deep-prior spectrogram in-painting
with a Spectrally Accurate Light U-Net.

The names most users need are re-exported here, so typical sessions start
with ``from repro import DHFSeparator, SeparationService, stft`` — see
the Public API table in the top-level ``README.md``.

Subpackages
-----------
``repro.core``
    The DHF algorithm (pattern alignment, masking, in-painting, phase).
``repro.pipeline``
    Record sets: :class:`SeparationRecord`, the scored
    :class:`BatchResult`, and the process-shard engine
    (:class:`ShardedExecutor`) a ``workers > 1`` service fans out on.
``repro.streaming``
    Stateful chunked separation: :class:`StreamingSeparator` windows a
    live stream into overlapping segments, runs any separator per
    segment, and cross-fades outputs with bounded latency.
``repro.nn``
    The deep prior: the SpAc LU-Net (one graph node over raw-array
    harmonic-convolution kernels) and its Eq. 9 fit with Adam.
``repro.dsp``
    The one STFT/iSTFT pair (a record or a stack of records), the
    scoring band-pass filter, and the aligner's interpolation.
``repro.synth``
    Quasi-periodic signal generator and the paper's Table-1 mixtures.
``repro.scenarios``
    Degradation scenario suite: seeded sensor-dropout / motion / noise /
    compression specs, N>2-source mixtures, and the :class:`ScenarioGrid`
    robustness scoreboard over every registered separator.
``repro.service``
    The separator registry (named, spec-configured methods) and the
    :class:`SeparationService` facade routing one configured method
    through the offline, batch, or streaming execution path; the only
    runner of record sets.
``repro.baselines``
    EMD, VMD, NMF, REPET(-Extended), spectral masking.
``repro.metrics``
    SDR, MSE, correlation, paper-style aggregation.
``repro.freq``
    Fundamental-frequency tracking.
``repro.tfo``
    Transabdominal fetal pulse-oximetry simulator and SpO2 estimation.
``repro.experiments``
    Runners regenerating every table and figure of the paper.
"""

__version__ = "1.4.0"

from repro import errors
from repro.config import available_presets, get_preset
from repro.core import DHFResult, DHFSeparator
from repro.dsp import StftPlan, StftResult, get_stft_plan, istft, stft
from repro.metrics import average_mse, average_sdr_db, mse, sdr_db
from repro.pipeline import (
    BatchResult,
    SeparationRecord,
    ShardedExecutor,
    records_from_arrays,
)
from repro.scenarios import (
    DegradationSpec,
    Scenario,
    ScenarioGrid,
    Scoreboard,
    available_degradations,
    default_degradation,
    run_scenario_grid,
)
from repro.separation import Separator
from repro.service import (
    SeparationOutcome,
    SeparationService,
    SeparatorSpec,
    available_separators,
    build_separator,
    default_spec,
    register_separator,
)
from repro.streaming import StreamingSeparator, stream_record

__all__ = [
    "errors", "get_preset", "available_presets", "__version__",
    "DHFResult", "DHFSeparator",
    "StftPlan", "StftResult", "get_stft_plan", "istft", "stft",
    "average_mse", "average_sdr_db", "mse", "sdr_db",
    "BatchResult", "SeparationRecord", "ShardedExecutor",
    "records_from_arrays",
    "StreamingSeparator", "stream_record",
    "DegradationSpec", "Scenario", "ScenarioGrid", "Scoreboard",
    "available_degradations", "default_degradation", "run_scenario_grid",
    "Separator",
    "SeparationService", "SeparationOutcome", "SeparatorSpec",
    "available_separators", "build_separator", "default_spec",
    "register_separator",
]
