"""Experiment harness: runners, sweeps, tables, and the E1–E13 registry."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .registry import EXPERIMENTS, available_experiments, run_experiment_by_id
    from .results_io import (
        ResultsIOError,
        load_table_json,
        save_table,
        save_table_csv,
        save_table_json,
    )
    from .runner import ExperimentRunner, repeat_broadcast
    from .tables import Table
    from .workloads import DEFAULT_DEGREE, LARGE_DEGREE, SweepSizes, full_sizes, quick_sizes

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "Table",
    "ExperimentRunner",
    "repeat_broadcast",
    "SweepSizes",
    "quick_sizes",
    "full_sizes",
    "DEFAULT_DEGREE",
    "LARGE_DEGREE",
    "EXPERIMENTS",
    "available_experiments",
    "run_experiment_by_id",
    "save_table",
    "save_table_json",
    "save_table_csv",
    "load_table_json",
    "ResultsIOError",
]
