"""E6/E7 — Robustness to message loss and to wrong size estimates.

Paper claim (abstract and Section 1): the algorithm "efficiently handles
limited communication failures" and "only requires rough estimates of the
number of nodes".

* **E6** sweeps an independent per-transmission loss probability and reports
  success rate, completion rounds, and transmissions for Algorithm 1 and for
  the push baseline.  Expected shape: moderate loss (say up to 20–30%) slows
  the broadcast by a modest factor but does not break it, because every
  informed node keeps participating in later phases.  The loss × protocol
  grid is declared as a :class:`ScenarioSpec` (:func:`scenario`, axes over
  ``failure.params.transmission_loss_probability`` and ``protocol.name``).
* **E7** feeds Algorithm 1 a size estimate that is off by powers of two and
  reports the same metrics.  Expected shape: the phase boundaries move by a
  constant number of rounds, so completion and cost change only mildly.
  Its grid (:func:`estimate_scenario`) sweeps ``protocol.n_estimate``; the
  run seeds key off the distorted estimate (label ``e7-{n_estimate}``).
"""

from __future__ import annotations

from typing import List, Optional

from ..failures.estimates import EstimateError
from ..spec.run import run_spec
from ..spec.scenario import (
    FailureSpec,
    GraphSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepAxis,
    SweepSpec,
)
from .tables import Table

__all__ = ["run_experiment", "scenario", "estimate_scenario"]

TITLE = "E6/E7 — robustness to message loss and size-estimate error"

#: Default E7 distortion factors of the size estimate.
ESTIMATE_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)


def scenario(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degree: int = 8,
    loss_probabilities: Optional[List[float]] = None,
) -> ScenarioSpec:
    """The E6 message-loss sweep as a declarative scenario record."""
    size = n if n is not None else (1024 if quick else 8192)
    losses = (
        tuple(loss_probabilities)
        if loss_probabilities is not None
        else (0.0, 0.05, 0.1, 0.2, 0.3)
    )
    return ScenarioSpec(
        name="e6-message-loss",
        graph=GraphSpec(
            family="connected-random-regular", params={"n": size, "d": degree}
        ),
        protocol=ProtocolSpec(name="algorithm1"),
        failure=FailureSpec(
            model="independent-loss",
            params={"transmission_loss_probability": losses[0]},
        ),
        sweep=SweepSpec(
            axes=(
                SweepAxis(
                    path="failure.params.transmission_loss_probability",
                    values=losses,
                    key="loss",
                ),
                SweepAxis(
                    path="protocol.name", values=("algorithm1", "push"), key="protocol"
                ),
            )
        ),
        repetitions=3 if quick else 5,
        master_seed=master_seed,
        label="e6-{protocol}-{loss}",
    )


def estimate_scenario(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degree: int = 8,
    estimate_factors: Optional[List[float]] = None,
) -> ScenarioSpec:
    """The E7 size-estimate sweep: Algorithm 1 told ``factor · n`` nodes."""
    size = n if n is not None else (1024 if quick else 8192)
    factors = estimate_factors if estimate_factors is not None else ESTIMATE_FACTORS
    estimates = tuple(EstimateError(factor).apply(size) for factor in factors)
    return ScenarioSpec(
        name="e7-size-estimate",
        graph=GraphSpec(
            family="connected-random-regular", params={"n": size, "d": degree}
        ),
        protocol=ProtocolSpec(name="algorithm1", n_estimate=estimates[0]),
        sweep=SweepSpec(axes=(SweepAxis(path="protocol.n_estimate", values=estimates),)),
        repetitions=3 if quick else 5,
        master_seed=master_seed,
        label="e7-{n_estimate}",
    )


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degree: int = 8,
    loss_probabilities: Optional[List[float]] = None,
    estimate_factors: Optional[List[float]] = None,
    workers: Optional[int] = None,
) -> Table:
    """Run the loss sweep (E6) and the estimate sweep (E7)."""
    factors = estimate_factors if estimate_factors is not None else ESTIMATE_FACTORS
    loss_spec = scenario(
        quick=quick,
        master_seed=master_seed,
        n=n,
        degree=degree,
        loss_probabilities=loss_probabilities,
    )
    estimate_spec = estimate_scenario(
        quick=quick, master_seed=master_seed, n=n, degree=degree, estimate_factors=factors
    )
    runs = run_spec(loss_spec, workers=workers), run_spec(estimate_spec, workers=workers)
    size = loss_spec.graph.params["n"]

    table = Table(
        title=f"{TITLE} (n = {size}, d = {degree})",
        columns=[
            "block",
            "protocol",
            "loss_probability",
            "estimate_factor",
            "success_rate",
            "rounds_mean",
            "tx_per_node",
        ],
    )

    for point in runs[0].points:
        aggregate = point.aggregate
        table.add_row(
            block="message-loss",
            protocol=point.values["protocol"],
            loss_probability=point.values["loss"],
            estimate_factor=1.0,
            success_rate=aggregate.success_rate,
            rounds_mean=aggregate.rounds.mean,
            tx_per_node=aggregate.transmissions_per_node.mean,
        )

    # Algorithm 1 only: push has no size parameter beyond its horizon.
    for factor, point in zip(factors, runs[1].points):
        aggregate = point.aggregate
        table.add_row(
            block="size-estimate",
            protocol="algorithm1",
            loss_probability=0.0,
            estimate_factor=factor,
            success_rate=aggregate.success_rate,
            rounds_mean=aggregate.rounds.mean,
            tx_per_node=aggregate.transmissions_per_node.mean,
        )

    table.add_note(
        "Paper claim: limited communication failures and constant-factor errors "
        "in the size estimate neither break completion nor blow up the cost."
    )
    table.record_runs(*runs)
    return table
