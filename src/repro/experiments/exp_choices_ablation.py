"""E9 — How many distinct choices per round are needed?

The paper proves that **four** distinct neighbours per round suffice for the
``O(n·log log n)`` transmission bound, conjectures that three are enough, and
leaves two as an open question (Section 1.2 and Conclusions); one choice is
provably insufficient (Theorem 1).  The experiment runs the Algorithm 1 phase
structure with fanout ``k ∈ {1, 2, 3, 4, 5}`` and reports success rate, rounds
and transmissions.  The mechanism the fanout feeds is visible in Phase 1: a
newly informed node pushes to ``k`` random neighbours, so the "epidemic
branching factor" is about ``k·(1 − informed fraction)`` — with ``k = 1`` the
process is subcritical and Phase 1 stalls, which the phase-1 informed count
column shows directly.

The fanout grid is declared as a :class:`ScenarioSpec` (one sweep axis over
``protocol.params.fanout``) and runs through :func:`repro.spec.run_spec`.
"""

from __future__ import annotations

from typing import List, Optional

from ..spec.run import run_spec
from ..spec.scenario import GraphSpec, ProtocolSpec, ScenarioSpec, SweepAxis, SweepSpec
from .tables import Table

__all__ = ["run_experiment", "scenario"]

TITLE = "E9 — fanout (number of distinct choices) ablation"


def scenario(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degree: int = 8,
    fanouts: Optional[List[int]] = None,
) -> ScenarioSpec:
    """The E9 fanout ablation as a declarative scenario record."""
    size = n if n is not None else (1024 if quick else 8192)
    fanout_values = tuple(fanouts) if fanouts is not None else (1, 2, 3, 4, 5)
    return ScenarioSpec(
        name="e9-choices-ablation",
        graph=GraphSpec(
            family="connected-random-regular", params={"n": size, "d": degree}
        ),
        protocol=ProtocolSpec(name="algorithm1", params={"fanout": fanout_values[0]}),
        sweep=SweepSpec(
            axes=(SweepAxis(path="protocol.params.fanout", values=fanout_values),)
        ),
        repetitions=3 if quick else 5,
        master_seed=master_seed,
        label="e9-f{fanout}",
        config={"stop_when_informed": False},
    )


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degree: int = 8,
    fanouts: Optional[List[int]] = None,
    workers: Optional[int] = None,
) -> Table:
    """Run the fanout ablation on the Algorithm 1 phase structure."""
    spec = scenario(
        quick=quick, master_seed=master_seed, n=n, degree=degree, fanouts=fanouts
    )
    run = run_spec(spec, workers=workers)
    size = spec.graph.params["n"]

    table = Table(
        title=f"{TITLE} (n = {size}, d = {degree})",
        columns=[
            "fanout",
            "success_rate",
            "rounds_mean",
            "tx_per_node",
            "informed_after_phase1",
        ],
    )

    for point in run.points:
        results = point.results
        aggregate = point.aggregate
        phase1_informed = []
        for result in results:
            phase1_rounds = [r for r in result.history if r.phase == "phase1"]
            if phase1_rounds:
                phase1_informed.append(phase1_rounds[-1].informed_after)
        completion_rounds = [
            float(r.rounds_to_completion)
            for r in results
            if r.rounds_to_completion is not None
        ]
        table.add_row(
            fanout=point.values["fanout"],
            success_rate=aggregate.success_rate,
            rounds_mean=(
                sum(completion_rounds) / len(completion_rounds)
                if completion_rounds
                else aggregate.rounds.mean
            ),
            tx_per_node=aggregate.transmissions_per_node.mean,
            informed_after_phase1=(
                sum(phase1_informed) / len(phase1_informed) if phase1_informed else 0
            ),
        )

    table.add_note(
        "Paper: 4 choices proven sufficient, 3 conjectured, 2 open, 1 provably "
        "expensive.  With fanout 1 the phase-1 epidemic is subcritical, visible "
        "in the informed_after_phase1 column."
    )
    table.record_runs(run)
    return table
