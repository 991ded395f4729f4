"""Spec provenance and worker parity for the multi-spec broadcast experiments.

E2, E3, E4, E6/E7, E8, E10, E12 and E13 declare their grids with the
``scenario`` / ``scenarios`` builders next to their ``run_experiment`` and
record what ran in ``table.metadata``.  The recorded dicts must rebuild the
declared specs exactly, so that a saved table names every knob its rows came
from (churn, size estimates, config overrides, non-regular families).
``workers=2`` must give the serial table; E2, E8 and E13 are covered by
``tests/test_dist.py::TestExecutorValidation::test_multi_spec_experiments_support_workers``.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    exp_churn,
    exp_counterexample,
    exp_degree_sweep,
    exp_lower_bound,
    exp_message_complexity,
    exp_phase_dynamics,
    exp_robustness,
    exp_sequential,
)
from repro.experiments.workloads import SweepSizes
from repro.spec import ScenarioSpec

TINY = SweepSizes(sizes=[64, 128], repetitions=2)


def _robustness_specs(**kwargs):
    loss = {k: v for k, v in kwargs.items() if k != "estimate_factors"}
    estimate = {k: v for k, v in kwargs.items() if k != "loss_probabilities"}
    return [exp_robustness.scenario(**loss), exp_robustness.estimate_scenario(**estimate)]


# (run_experiment, declared-spec builder, tiny kwargs shared by both)
CASES = {
    "E2": (
        exp_message_complexity.run_experiment,
        exp_message_complexity.scenarios,
        {"sizes": TINY},
    ),
    "E3": (
        exp_lower_bound.run_experiment,
        exp_lower_bound.scenarios,
        {"sizes": TINY, "degrees": [4, 8]},
    ),
    "E4": (
        exp_phase_dynamics.run_experiment,
        exp_phase_dynamics.scenarios,
        {"n": 128, "alphas": [0.5, 1.0]},
    ),
    "E6-E7": (
        exp_robustness.run_experiment,
        _robustness_specs,
        {"n": 128, "loss_probabilities": [0.0, 0.2], "estimate_factors": [0.5, 2.0]},
    ),
    "E8": (
        exp_churn.run_experiment,
        exp_churn.scenarios,
        {"n": 128, "churn_rates": [(0.0, 0.0), (0.01, 0.01)]},
    ),
    "E10": (
        exp_sequential.run_experiment,
        exp_sequential.scenario,
        {"sizes": TINY},
    ),
    "E12": (
        exp_degree_sweep.run_experiment,
        exp_degree_sweep.scenario,
        {"n": 128, "degrees": [4, 6]},
    ),
    "E13": (
        exp_counterexample.run_experiment,
        exp_counterexample.scenarios,
        {"base_nodes": 32, "degree": 4, "clique_size": 3},
    ),
}


def _recorded_specs(table):
    if "specs" in table.metadata:
        return [ScenarioSpec.from_dict(data) for data in table.metadata["specs"]]
    return [ScenarioSpec.from_dict(table.metadata["spec"])]


def _declared_specs(builder, kwargs):
    declared = builder(quick=True, **kwargs)
    return [declared] if isinstance(declared, ScenarioSpec) else list(declared)


@pytest.mark.parametrize("experiment", list(CASES))
def test_recorded_specs_rebuild_the_declared_grid(experiment):
    run_experiment, builder, kwargs = CASES[experiment]
    table = run_experiment(quick=True, **kwargs)
    assert _recorded_specs(table) == _declared_specs(builder, kwargs)


@pytest.mark.parametrize("experiment", ["E3", "E4", "E6-E7", "E10", "E12"])
def test_workers_give_the_serial_table(experiment):
    run_experiment, _, kwargs = CASES[experiment]
    serial = run_experiment(quick=True, **kwargs)
    parallel = run_experiment(quick=True, workers=2, **kwargs)
    assert parallel.rows == serial.rows
    assert parallel.notes == serial.notes
    assert _recorded_specs(parallel) == _recorded_specs(serial)
    provenance = parallel.metadata["distributed"]
    if isinstance(provenance, dict):
        provenance = [provenance]
    assert [p["workers"] for p in provenance] == [2] * len(_recorded_specs(serial))
    assert "distributed" not in serial.metadata
