"""E10 — The sequentialised memory variant vs the simultaneous model.

Footnote 2 of the paper: choosing four distinct neighbours at once is
equivalent (up to a factor-of-four stretch in time) to the sequential model in
which a node calls one neighbour per round, avoiding the partners contacted in
the previous three rounds.  The experiment runs both variants and reports
rounds, transmissions per node, and success rate.  Expected shape: the
sequential variant takes roughly four times as many rounds but a comparable
number of transmissions, and both complete reliably.  The size × variant grid
is one :class:`ScenarioSpec` (:func:`scenario`).
"""

from __future__ import annotations

from typing import Optional

from ..spec.run import run_spec
from ..spec.scenario import GraphSpec, ProtocolSpec, ScenarioSpec, SweepAxis, SweepSpec
from .tables import Table
from .workloads import SweepSizes, full_sizes, quick_sizes

__all__ = ["run_experiment", "scenario"]

TITLE = "E10 — simultaneous (4 distinct calls) vs sequential (memory 3) variant"

PROTOCOL_NAMES = ("algorithm1", "algorithm1-sequential")


def scenario(
    quick: bool = True,
    master_seed: int = 2008,
    degree: int = 8,
    sizes: Optional[SweepSizes] = None,
) -> ScenarioSpec:
    """The E10 comparison as a declarative scenario record."""
    sweep = sizes if sizes is not None else (quick_sizes() if quick else full_sizes())
    return ScenarioSpec(
        name="e10-sequential",
        graph=GraphSpec(
            family="connected-random-regular",
            params={"n": sweep.sizes[0], "d": degree},
        ),
        protocol=ProtocolSpec(name=PROTOCOL_NAMES[0]),
        sweep=SweepSpec(
            axes=(
                SweepAxis(path="graph.params.n", values=tuple(sweep.sizes)),
                SweepAxis(path="protocol.name", values=PROTOCOL_NAMES, key="protocol"),
            )
        ),
        repetitions=sweep.repetitions,
        master_seed=master_seed,
        label="e10-{protocol}",
    )


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    degree: int = 8,
    sizes: Optional[SweepSizes] = None,
    workers: Optional[int] = None,
) -> Table:
    """Run the sequential-vs-simultaneous comparison."""
    spec = scenario(quick=quick, master_seed=master_seed, degree=degree, sizes=sizes)
    run = run_spec(spec, workers=workers)

    table = Table(
        title=f"{TITLE} (d = {degree})",
        columns=[
            "protocol",
            "n",
            "rounds_mean",
            "tx_per_node",
            "channels_per_node",
            "success_rate",
        ],
    )

    for point in run.points:
        aggregate = point.aggregate
        table.add_row(
            protocol=point.values["protocol"],
            n=point.values["n"],
            rounds_mean=aggregate.rounds.mean,
            tx_per_node=aggregate.transmissions_per_node.mean,
            channels_per_node=aggregate.channels_per_node.mean,
            success_rate=aggregate.success_rate,
        )

    table.add_note(
        "Footnote 2 of the paper: four sequential memory-avoiding calls emulate "
        "one simultaneous four-distinct-call round, so rounds scale by ~4x while "
        "transmissions stay comparable."
    )
    table.record_runs(run)
    return table
