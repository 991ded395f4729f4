"""Registry mapping experiment ids to their runner functions.

Benchmarks, the CLI, and ``docs/API.md`` all refer to experiments by the same
short ids (``"E1"`` .. ``"E13"``); this module is the single source of truth
for that mapping.
"""

from __future__ import annotations

import inspect
from typing import Dict

from ..core.errors import ExperimentError
from . import (
    exp_choices_ablation,
    exp_churn,
    exp_counterexample,
    exp_degree_sweep,
    exp_lower_bound,
    exp_message_complexity,
    exp_p2p_db,
    exp_phase_dynamics,
    exp_push_vs_pull,
    exp_robustness,
    exp_round_complexity,
    exp_sequential,
)
from .tables import Table

__all__ = ["EXPERIMENTS", "run_experiment_by_id", "available_experiments"]


#: Experiment id -> (description, runner callable).
EXPERIMENTS: Dict[str, tuple] = {
    "E1": ("round complexity (O(log n) rounds)", exp_round_complexity.run_experiment),
    "E2": (
        "message complexity (O(n log log n) vs Θ(n log n))",
        exp_message_complexity.run_experiment,
    ),
    "E3": ("one-call lower bound Ω(n log n / log d)", exp_lower_bound.run_experiment),
    "E4": ("Algorithm 1 phase dynamics and α ablation", exp_phase_dynamics.run_experiment),
    "E5": ("push vs pull vs push&pull on complete graphs", exp_push_vs_pull.run_experiment),
    "E6": ("robustness to message loss", exp_robustness.run_experiment),
    "E7": ("robustness to size-estimate error", exp_robustness.run_experiment),
    "E8": ("broadcast under membership churn", exp_churn.run_experiment),
    "E9": ("fanout (number of choices) ablation", exp_choices_ablation.run_experiment),
    "E10": ("sequentialised memory variant", exp_sequential.run_experiment),
    "E11": ("replicated database over a P2P overlay", exp_p2p_db.run_experiment),
    "E12": ("degree sweep: Algorithm 1 vs Algorithm 2", exp_degree_sweep.run_experiment),
    "E13": ("counterexample: product with K5", exp_counterexample.run_experiment),
}


def available_experiments() -> Dict[str, str]:
    """Mapping of experiment id to its one-line description."""
    return {key: description for key, (description, _) in EXPERIMENTS.items()}


def run_experiment_by_id(experiment_id: str, quick: bool = True, **kwargs) -> Table:
    """Run one experiment by id and return its table.

    Keyword arguments are validated against the experiment's signature so
    an option only some experiments support (e.g. ``workers``, which every
    broadcast experiment forwards to :func:`repro.spec.run_spec` but E11
    does not take) fails with a clear message instead of a raw
    ``TypeError``.
    """
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    _, runner = EXPERIMENTS[key]
    accepted = inspect.signature(runner).parameters
    unsupported = sorted(set(kwargs) - set(accepted))
    if unsupported:
        raise ExperimentError(
            f"experiment {key} does not support option(s) "
            f"{', '.join(map(repr, unsupported))}; accepted: "
            f"{', '.join(accepted)}"
        )
    return runner(quick=quick, **kwargs)
