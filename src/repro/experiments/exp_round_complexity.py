"""E1 — Round complexity of the paper's algorithms vs the classical baselines.

Paper claim (Theorems 2 and 3): Algorithms 1 and 2 inform every node of a
random d-regular graph within ``O(log n)`` rounds.  The experiment sweeps the
network size, measures the number of rounds until the last node is informed,
and reports the ratio ``rounds / log₂ n``, which should stay roughly constant
across the sweep for every protocol that is genuinely ``O(log n)``.

The sweep itself is declared as a :class:`ScenarioSpec` (see
:func:`scenario`), so the full grid — protocols × sizes × seeds — is one
serialisable record, run through :func:`repro.spec.run_spec`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..spec.run import run_spec
from ..spec.scenario import GraphSpec, ProtocolSpec, ScenarioSpec, SweepAxis, SweepSpec
from .tables import Table
from .workloads import DEFAULT_DEGREE, SweepSizes, full_sizes, quick_sizes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dist.progress import ProgressCallback

__all__ = ["run_experiment", "scenario"]

TITLE = "E1 — round complexity on random d-regular graphs"

PROTOCOL_NAMES = ("push", "push-pull", "algorithm1")


def scenario(
    quick: bool = True,
    master_seed: int = 2008,
    degree: int = DEFAULT_DEGREE,
    sizes: Optional[SweepSizes] = None,
) -> ScenarioSpec:
    """The E1 sweep as a declarative scenario record."""
    sweep = sizes if sizes is not None else (quick_sizes() if quick else full_sizes())
    return ScenarioSpec(
        name="e1-round-complexity",
        graph=GraphSpec(
            family="connected-random-regular",
            params={"n": sweep.sizes[0], "d": degree},
        ),
        protocol=ProtocolSpec(name=PROTOCOL_NAMES[0]),
        sweep=SweepSpec(
            axes=(
                SweepAxis(path="protocol.name", values=PROTOCOL_NAMES, key="protocol"),
                SweepAxis(path="graph.params.n", values=tuple(sweep.sizes)),
            )
        ),
        repetitions=sweep.repetitions,
        master_seed=master_seed,
        label="e1-{protocol}",
    )


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    degree: int = DEFAULT_DEGREE,
    sizes: Optional[SweepSizes] = None,
    workers: Optional[int] = None,
    progress: Optional["ProgressCallback"] = None,
) -> Table:
    """Run the E1 sweep and return its table.

    ``workers`` fans the grid points out over that many processes through
    :mod:`repro.dist`; the table is built from results bit-identical to the
    serial run (only ``metadata["distributed"]`` records the difference).
    """
    spec = scenario(quick=quick, master_seed=master_seed, degree=degree, sizes=sizes)
    run = run_spec(spec, workers=workers, progress=progress)

    table = Table(
        title=f"{TITLE} (d = {degree})",
        columns=[
            "protocol",
            "n",
            "rounds_mean",
            "rounds_max",
            "rounds_over_log2n",
            "success_rate",
        ],
    )
    for point in run.points:
        aggregate = point.aggregate
        n = point.values["n"]
        table.add_row(
            protocol=point.values["protocol"],
            n=n,
            rounds_mean=aggregate.rounds.mean,
            rounds_max=aggregate.rounds.maximum,
            rounds_over_log2n=aggregate.rounds.mean / math.log2(n),
            success_rate=aggregate.success_rate,
        )

    table.add_note(
        "Paper claim: Algorithm 1 finishes in O(log n) rounds — the "
        "rounds/log2(n) column should stay roughly flat as n grows."
    )
    table.record_runs(run)
    return table
