"""E12 — Small-degree vs large-degree regimes (Algorithm 1 vs Algorithm 2).

The paper gives two algorithms: Algorithm 1 for ``δ ≤ d ≤ δ·log log n`` and
Algorithm 2 for ``δ·log log n ≤ d ≤ δ·log n``.  The experiment sweeps the
degree at a fixed network size and runs both algorithms, reporting rounds,
transmissions and success rate, so the hand-over between the regimes (and the
fact that both behave well near the boundary) is visible in one table.  The
degree × algorithm grid is one :class:`ScenarioSpec` (:func:`scenario`).
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..spec.run import run_spec
from ..spec.scenario import GraphSpec, ProtocolSpec, ScenarioSpec, SweepAxis, SweepSpec
from .tables import Table

__all__ = ["run_experiment", "scenario"]

TITLE = "E12 — degree sweep: Algorithm 1 vs Algorithm 2"

PROTOCOL_NAMES = ("algorithm1", "algorithm2")


def scenario(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degrees: Optional[List[int]] = None,
) -> ScenarioSpec:
    """The E12 degree sweep as a declarative scenario record."""
    size = n if n is not None else (1024 if quick else 4096)
    log_n = math.log2(size)
    # The defaults coincide at some sizes (log2 256 = 8): keep the first of each.
    defaults = dict.fromkeys([4, 6, 8, int(log_n), int(2 * log_n)])
    degree_list = degrees if degrees is not None else list(defaults)
    return ScenarioSpec(
        name="e12-degree-sweep",
        graph=GraphSpec(
            family="connected-random-regular", params={"n": size, "d": degree_list[0]}
        ),
        protocol=ProtocolSpec(name=PROTOCOL_NAMES[0]),
        sweep=SweepSpec(
            axes=(
                SweepAxis(path="graph.params.d", values=tuple(degree_list)),
                SweepAxis(path="protocol.name", values=PROTOCOL_NAMES, key="protocol"),
            )
        ),
        repetitions=3 if quick else 5,
        master_seed=master_seed,
        label="e12-{protocol}-{d}",
    )


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degrees: Optional[List[int]] = None,
    workers: Optional[int] = None,
) -> Table:
    """Run the degree sweep with both algorithms."""
    spec = scenario(quick=quick, master_seed=master_seed, n=n, degrees=degrees)
    run = run_spec(spec, workers=workers)
    size = spec.graph.params["n"]
    log_n = math.log2(size)

    table = Table(
        title=f"{TITLE} (n = {size}, log2 n = {log_n:.1f})",
        columns=[
            "protocol",
            "d",
            "regime",
            "rounds_mean",
            "tx_per_node",
            "success_rate",
        ],
    )

    loglog_n = math.log2(max(2.0, log_n))
    for point in run.points:
        d = point.values["d"]
        if d <= 2 * loglog_n:
            regime = "small (Alg.1)"
        elif d >= log_n:
            regime = "large (Alg.2)"
        else:
            regime = "intermediate"
        aggregate = point.aggregate
        table.add_row(
            protocol=point.values["protocol"],
            d=d,
            regime=regime,
            rounds_mean=aggregate.rounds.mean,
            tx_per_node=aggregate.transmissions_per_node.mean,
            success_rate=aggregate.success_rate,
        )

    table.add_note(
        "Algorithm 1 targets d up to ~log log n (times a constant), Algorithm 2 "
        "targets d up to ~log n; both should succeed across the sweep, with "
        "Algorithm 2's pull tail paying off as d grows."
    )
    table.record_runs(run)
    return table
