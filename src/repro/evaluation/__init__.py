"""Experiment harness implementing the paper's section 7 protocols."""

from repro.evaluation.pruning import (
    PruningResult,
    fraction_examined,
    pruning_power_experiment,
)
from repro.evaluation.reporting import format_float, format_table
from repro.evaluation.tightness import TightnessResult, bound_tightness_experiment
from repro.evaluation.timing import (
    TimingResult,
    TimingRow,
    index_vs_scan_experiment,
)

__all__ = [
    "format_table",
    "format_float",
    "TightnessResult",
    "bound_tightness_experiment",
    "PruningResult",
    "fraction_examined",
    "pruning_power_experiment",
    "TimingRow",
    "TimingResult",
    "index_vs_scan_experiment",
]
