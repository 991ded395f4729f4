"""E5 — Push vs pull vs push&pull on the complete graph (Karp et al. picture).

The paper's introduction recounts the behaviour Karp et al. established for
complete graphs: push and pull both take ``Θ(log n)`` rounds to reach half the
nodes, but from there pull finishes in ``O(log log n)`` additional rounds
while push needs ``Θ(log n)`` more — so push&pull with the right termination
broadcasts with only ``O(n·log log n)`` transmissions, while push alone needs
``Θ(n·log n)``.

The experiment runs the three classical protocols on complete graphs and
reports rounds to completion, rounds until half the nodes are informed, the
length of the "tail" (completion minus half), and transmissions per node.
The expected shape: the tail of pull and push&pull is much shorter than the
tail of push and grows far more slowly with ``n``.

The size × protocol grid is declared as a :class:`ScenarioSpec` over the
``"complete"`` graph family.  Migration note: the previous hand-wired loop
derived run seeds from Python's builtin ``hash`` of the protocol name, which
is salted per process (``PYTHONHASHSEED``) — its numbers were never
reproducible across runs.  The spec path uses the stable
:func:`derive_seed` discipline, so E5 now reproduces bit-for-bit from its
``master_seed`` like every other experiment.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.metrics import RunResult
from ..spec.run import run_spec
from ..spec.scenario import GraphSpec, ProtocolSpec, ScenarioSpec, SweepAxis, SweepSpec
from .tables import Table

__all__ = ["run_experiment", "scenario"]

TITLE = "E5 — push vs pull vs push&pull on complete graphs"

PROTOCOL_NAMES = ("push", "pull", "push-pull")


def _rounds_to_half(result: RunResult) -> Optional[int]:
    """First round after which at least half the nodes are informed."""
    for record in result.history:
        if record.informed_after >= result.n / 2:
            return record.round_index
    return None


def scenario(
    quick: bool = True,
    master_seed: int = 2008,
    sizes: Optional[List[int]] = None,
) -> ScenarioSpec:
    """The E5 complete-graph comparison as a declarative scenario record."""
    size_list = (
        tuple(sizes)
        if sizes is not None
        else ((128, 256, 512) if quick else (256, 512, 1024, 2048))
    )
    return ScenarioSpec(
        name="e5-push-vs-pull",
        graph=GraphSpec(family="complete", params={"n": size_list[0]}),
        protocol=ProtocolSpec(name=PROTOCOL_NAMES[0]),
        sweep=SweepSpec(
            axes=(
                SweepAxis(path="graph.params.n", values=size_list),
                SweepAxis(path="protocol.name", values=PROTOCOL_NAMES, key="protocol"),
            )
        ),
        repetitions=3 if quick else 5,
        master_seed=master_seed,
        label="e5-{protocol}",
    )


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    sizes: Optional[List[int]] = None,
    workers: Optional[int] = None,
) -> Table:
    """Run the complete-graph comparison."""
    spec = scenario(quick=quick, master_seed=master_seed, sizes=sizes)
    run = run_spec(spec, workers=workers)

    table = Table(
        title=TITLE,
        columns=[
            "protocol",
            "n",
            "rounds_mean",
            "rounds_to_half",
            "tail_rounds",
            "tx_per_node",
            "success_rate",
        ],
    )

    for point in run.points:
        aggregate = point.aggregate
        halves = [
            h for h in (_rounds_to_half(r) for r in point.results) if h is not None
        ]
        mean_half = sum(halves) / len(halves) if halves else float("nan")
        table.add_row(
            protocol=point.values["protocol"],
            n=point.values["n"],
            rounds_mean=aggregate.rounds.mean,
            rounds_to_half=mean_half,
            tail_rounds=aggregate.rounds.mean - mean_half,
            tx_per_node=aggregate.transmissions_per_node.mean,
            success_rate=aggregate.success_rate,
        )

    table.add_note(
        "Karp et al.: the pull/push&pull tail (rounds after half the nodes are "
        "informed) is O(log log n), while the push tail is Θ(log n); the "
        "transmissions-per-node gap follows the same pattern."
    )
    table.record_runs(run)
    return table
