"""Theory-side helpers: closed-form bounds, scaling-law fits, statistics, plots."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .ascii_plot import ascii_informed_curve, ascii_multi_series, ascii_series
    from .bounds import (
        algorithm1_transmission_bound,
        fountoulakis_panagiotou_constant,
        karp_phase_estimates,
        lower_bound_transmissions,
        pull_endgame_rounds,
        push_round_estimate,
        push_transmission_estimate,
    )
    from .scaling import (
        GROWTH_LAWS,
        ScalingFit,
        best_scaling_law,
        compare_scaling_laws,
        fit_scaling_law,
    )
    from .stats import Summary, confidence_interval, mean, median, percentile, std

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "lower_bound_transmissions",
    "algorithm1_transmission_bound",
    "push_transmission_estimate",
    "push_round_estimate",
    "fountoulakis_panagiotou_constant",
    "pull_endgame_rounds",
    "karp_phase_estimates",
    "ScalingFit",
    "GROWTH_LAWS",
    "fit_scaling_law",
    "compare_scaling_laws",
    "best_scaling_law",
    "Summary",
    "mean",
    "std",
    "median",
    "percentile",
    "confidence_interval",
    "ascii_series",
    "ascii_informed_curve",
    "ascii_multi_series",
]
