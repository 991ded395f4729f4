"""E3 — The Ω(n·log n / log d) lower bound for the one-call model.

Paper claim (Theorem 1): every strictly address-oblivious distributed
algorithm in the *standard* random phone call model (one call per round) that
broadcasts on a random d-regular graph in ``O(log n)`` rounds needs
``Ω(n·log n / log d)`` transmissions.

The experiment measures the best one-call protocol we have (push&pull, which
the lower bound applies to and which matches its shape: the pull endgame needs
``log_d n`` rounds at ``≈ n`` transmissions each) and checks two shape
predictions of the bound:

* at fixed ``n`` the per-node cost *decreases* roughly like ``1 / log d`` as
  the degree grows;
* at fixed ``d`` it *increases* roughly like ``log n``.

It also reports the four-choice Algorithm 1 alongside, whose cost is bounded
by ``O(log log n)`` per node independently of ``d`` — the "exponential
decrease in the number of transmissions" headline of the paper refers to this
``log n / log d → log log n`` drop.

Both sweeps are declared as :class:`ScenarioSpec` grids (:func:`scenarios`).
The table names push&pull ``push-pull-1``; its run-seed label uses the
registry id ``push-pull``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Optional, Tuple

from ..analysis.bounds import lower_bound_transmissions
from ..spec.run import run_spec
from ..spec.scenario import GraphSpec, ProtocolSpec, ScenarioSpec, SweepAxis, SweepSpec
from .tables import Table
from .workloads import SweepSizes, full_sizes, quick_sizes

__all__ = ["run_experiment", "scenarios"]

TITLE = "E3 — one-call lower bound Ω(n·log n / log d) vs four choices"

#: Registry id -> the name the table shows (push&pull is the one-call model).
PROTOCOL_NAMES = {"push-pull": "push-pull-1", "algorithm1": "algorithm1"}

#: Degree of the size sweep.
FIXED_DEGREE = 8


def scenarios(
    quick: bool = True,
    master_seed: int = 2008,
    degrees: Optional[List[int]] = None,
    sizes: Optional[SweepSizes] = None,
) -> Tuple[ScenarioSpec, ScenarioSpec]:
    """The E3 sweeps: degrees at the largest size, then sizes at d = 8."""
    sweep = sizes if sizes is not None else (quick_sizes() if quick else full_sizes())
    degree_list = degrees if degrees is not None else ([4, 8, 16] if quick else [4, 8, 16, 32])
    protocol_axis = SweepAxis(
        path="protocol.name", values=tuple(PROTOCOL_NAMES), key="protocol"
    )
    degree_sweep = ScenarioSpec(
        name="e3-degree-sweep",
        graph=GraphSpec(
            family="connected-random-regular",
            params={"n": sweep.sizes[-1], "d": degree_list[0]},
        ),
        protocol=ProtocolSpec(name="push-pull"),
        sweep=SweepSpec(
            axes=(SweepAxis(path="graph.params.d", values=tuple(degree_list)), protocol_axis)
        ),
        repetitions=sweep.repetitions,
        master_seed=master_seed,
        label="e3-deg-{protocol}",
    )
    size_sweep = replace(
        degree_sweep,
        name="e3-size-sweep",
        graph=GraphSpec(
            family="connected-random-regular",
            params={"n": sweep.sizes[0], "d": FIXED_DEGREE},
        ),
        sweep=SweepSpec(
            axes=(SweepAxis(path="graph.params.n", values=tuple(sweep.sizes)), protocol_axis)
        ),
        label="e3-size-{protocol}",
    )
    return degree_sweep, size_sweep


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    degrees: Optional[List[int]] = None,
    sizes: Optional[SweepSizes] = None,
    workers: Optional[int] = None,
) -> Table:
    """Run the E3 sweeps (degree sweep at fixed n, size sweep at fixed d)."""
    degree_spec, size_spec = scenarios(
        quick=quick, master_seed=master_seed, degrees=degrees, sizes=sizes
    )
    runs = run_spec(degree_spec, workers=workers), run_spec(size_spec, workers=workers)

    table = Table(
        title=TITLE,
        columns=[
            "sweep",
            "protocol",
            "n",
            "d",
            "tx_per_node",
            "bound_per_node",
            "ratio_to_bound",
        ],
    )

    # Degree sweep at fixed n: the one-call cost should fall like 1/log d.
    # Size sweep at fixed d: the one-call cost should grow like log n.
    for block, run in zip(("degree", "size"), runs):
        for point in run.points:
            n, d = point.spec.graph.params["n"], point.spec.graph.params["d"]
            bound = lower_bound_transmissions(n, d) / n
            measured = point.aggregate.transmissions_per_node.mean
            table.add_row(
                sweep=block,
                protocol=PROTOCOL_NAMES[point.values["protocol"]],
                n=n,
                d=d,
                tx_per_node=measured,
                bound_per_node=bound,
                ratio_to_bound=measured / bound if bound else float("nan"),
            )

    fixed_n = degree_spec.graph.params["n"]
    degree_list = degree_spec.sweep.axes[0].values
    table.add_note(
        "bound_per_node = log2(n)/log2(d) (Theorem 1 with unit constant); every "
        "one-call measurement must lie above a constant multiple of it, and its "
        "trend across d and n should follow the bound's shape."
    )
    table.add_note(
        f"log2(n)/log2(d) at n={fixed_n}: "
        + ", ".join(
            f"d={d}: {math.log2(fixed_n) / math.log2(d):.2f}" for d in degree_list
        )
    )
    table.record_runs(*runs)
    return table
