"""E8 — Broadcasting while the network churns.

Paper claim (abstract): the algorithm "is robust against limited changes in
the size of the network".  The experiment runs Algorithm 1 while a
:class:`~repro.failures.churn.UniformChurn` model removes and adds peers every
round, and reports the fraction of the *surviving* peers that end up informed
(peers that joined mid-broadcast can only be reached while the message is
still being transmitted, so perfect coverage of late joiners is not expected —
in the replicated-database application they catch up from the next update or
an anti-entropy pass).

Each ``(leave_rate, join_rate)`` pair is one :class:`ScenarioSpec` with a
protocol axis (:func:`scenarios`); the static pair ``(0, 0)`` declares no
churn model at all, so it runs on the batched static engine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..spec.run import run_spec
from ..spec.scenario import (
    ChurnSpec,
    GraphSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepAxis,
    SweepSpec,
)
from .tables import Table

__all__ = ["run_experiment", "scenarios"]

TITLE = "E8 — broadcast under membership churn"

PROTOCOL_NAMES = ("algorithm1", "push-pull")

#: Default ``(leave_rate, join_rate)`` pairs per round.
CHURN_RATES = ((0.0, 0.0), (0.005, 0.005), (0.01, 0.01), (0.02, 0.02))


def scenarios(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degree: int = 8,
    churn_rates: Optional[List[Tuple[float, float]]] = None,
) -> List[ScenarioSpec]:
    """One churn scenario per ``(leave_rate, join_rate)`` pair."""
    size = n if n is not None else (1024 if quick else 4096)
    rates = churn_rates if churn_rates is not None else CHURN_RATES
    specs = []
    for leave_rate, join_rate in rates:
        churn = ChurnSpec()
        if leave_rate > 0 or join_rate > 0:
            churn = ChurnSpec(
                model="uniform",
                params={
                    "leave_rate": leave_rate,
                    "join_rate": join_rate,
                    "target_degree": degree,
                },
            )
        specs.append(
            ScenarioSpec(
                name=f"e8-churn-{leave_rate}-{join_rate}",
                graph=GraphSpec(
                    family="connected-random-regular", params={"n": size, "d": degree}
                ),
                protocol=ProtocolSpec(name=PROTOCOL_NAMES[0]),
                churn=churn,
                sweep=SweepSpec(
                    axes=(
                        SweepAxis(
                            path="protocol.name", values=PROTOCOL_NAMES, key="protocol"
                        ),
                    )
                ),
                repetitions=3 if quick else 5,
                master_seed=master_seed,
                label=f"e8-{{protocol}}-{leave_rate}-{join_rate}",
            )
        )
    return specs


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degree: int = 8,
    churn_rates: Optional[List[Tuple[float, float]]] = None,
    workers: Optional[int] = None,
) -> Table:
    """Run the churn sweep; each entry is ``(leave_rate, join_rate)`` per round."""
    specs = scenarios(
        quick=quick, master_seed=master_seed, n=n, degree=degree, churn_rates=churn_rates
    )
    runs = [run_spec(spec, workers=workers) for spec in specs]
    size = specs[0].graph.params["n"]

    table = Table(
        title=f"{TITLE} (n = {size}, d = {degree})",
        columns=[
            "protocol",
            "leave_rate",
            "join_rate",
            "informed_fraction",
            "rounds_mean",
            "tx_per_node",
            "final_size_mean",
        ],
    )

    rates = churn_rates if churn_rates is not None else CHURN_RATES
    for (leave_rate, join_rate), run in zip(rates, runs):
        for point in run.points:
            results = point.results
            survivors = [r.metadata.get("final_node_count", r.n) for r in results]
            # Extreme regimes can depopulate the network entirely; a run with
            # no survivors contributes 0.0 (nobody left to be informed)
            # instead of dividing by zero.
            informed_fraction = sum(
                r.final_informed / alive if alive > 0 else 0.0
                for r, alive in zip(results, survivors)
            ) / len(results)
            table.add_row(
                protocol=point.values["protocol"],
                leave_rate=leave_rate,
                join_rate=join_rate,
                informed_fraction=informed_fraction,
                rounds_mean=point.aggregate.rounds.mean,
                tx_per_node=point.aggregate.transmissions_per_node.mean,
                final_size_mean=sum(survivors) / len(results),
            )

    table.add_note(
        "informed_fraction counts informed peers among peers alive at the end; "
        "limited churn should leave it near 1.0 for algorithm1.  A run whose "
        "churn removes every peer reports informed_fraction = 0.0."
    )
    table.record_runs(*runs)
    return table
