"""repro.experiments — one runner per paper table/figure plus ablations."""

from repro.experiments.common import (
    ExperimentContext,
    FIGURE6_METHODS,
    TABLE2_METHOD_ORDER,
    display_method_name,
    table2_specs,
)
from repro.experiments.paper_reference import (
    PAPER_CLAIMS,
    PAPER_FIG6_CORRELATION,
    PAPER_LOW_POWER_CASES,
    PAPER_TABLE2,
    PAPER_TABLE2_AVERAGE,
)
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.figure5 import Figure5Point, Figure5Result, run_figure5
from repro.experiments.figure6 import Figure6Result, run_figure6
from repro.experiments.figure7 import Figure7Result, run_figure7
from repro.experiments.monitor import MonitorResult, run_monitor
from repro.experiments.scoreboard import (
    DEFAULT_FAMILIES,
    DEFAULT_SEVERITIES,
    ScoreboardResult,
    run_scoreboard,
)
from repro.experiments.ablations import (
    SweepResult,
    run_anchor_pooling_ablation,
    run_dilation_ablation,
    run_phase_policy_ablation,
)

__all__ = [
    "ExperimentContext", "FIGURE6_METHODS", "TABLE2_METHOD_ORDER",
    "display_method_name", "table2_specs",
    "PAPER_CLAIMS", "PAPER_FIG6_CORRELATION", "PAPER_LOW_POWER_CASES",
    "PAPER_TABLE2", "PAPER_TABLE2_AVERAGE",
    "Table1Result", "run_table1",
    "Table2Result", "run_table2",
    "Figure3Result", "run_figure3",
    "Figure4Result", "run_figure4",
    "Figure5Point", "Figure5Result", "run_figure5",
    "Figure6Result", "run_figure6",
    "Figure7Result", "run_figure7",
    "MonitorResult", "run_monitor",
    "DEFAULT_FAMILIES", "DEFAULT_SEVERITIES",
    "ScoreboardResult", "run_scoreboard",
    "SweepResult", "run_anchor_pooling_ablation", "run_dilation_ablation",
    "run_phase_policy_ablation",
]
