"""E2 — Message complexity: O(n·log log n) vs Θ(n·log n).

Paper claim (Theorems 2 and 3 vs the classical analysis of push): with four
distinct choices per round, the whole broadcast needs only ``O(n·log log n)``
transmissions, whereas the classical push protocol needs ``Θ(n·log n)``.

At simulatable sizes the two growth laws differ by small absolute amounts, so
the experiment reports, for every protocol, the per-node transmission count
across a size sweep together with least-squares fits against
``a + b·log log n`` and ``a + b·log n``: the protocol reproduces the paper's
claim if the ``loglog`` law explains its curve at least as well as the ``log``
law, and vice versa for push.

Two accountings are reported for Algorithm 1:

* ``algorithm1`` — transmissions until the last node is informed (what an
  oracle-terminated run would pay);
* ``algorithm1-full`` — transmissions of the complete schedule, which is what
  the distributed algorithm actually sends since no node knows when everyone
  is informed.  This is the quantity the O(n·log log n) bound is about.

Both accountings are declared as :class:`ScenarioSpec` grids
(:func:`scenarios`); the full schedule is the ``stop_when_informed: false``
config override.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from ..analysis.scaling import fit_scaling_law
from ..spec.run import run_spec
from ..spec.scenario import GraphSpec, ProtocolSpec, ScenarioSpec, SweepAxis, SweepSpec
from .tables import Table
from .workloads import DEFAULT_DEGREE, SweepSizes, full_sizes, quick_sizes

__all__ = ["run_experiment", "scenarios"]

TITLE = "E2 — transmissions per node vs network size"

PROTOCOL_NAMES = ("push", "push-pull", "algorithm1")


def scenarios(
    quick: bool = True,
    master_seed: int = 2008,
    degree: int = DEFAULT_DEGREE,
    sizes: Optional[SweepSizes] = None,
) -> Tuple[ScenarioSpec, ScenarioSpec]:
    """The E2 sweeps: early-stopped protocols, then Algorithm 1's full schedule."""
    sweep = sizes if sizes is not None else (quick_sizes() if quick else full_sizes())
    size_axis = SweepAxis(path="graph.params.n", values=tuple(sweep.sizes))
    early_stop = ScenarioSpec(
        name="e2-message-complexity",
        graph=GraphSpec(
            family="connected-random-regular", params={"n": sweep.sizes[0], "d": degree}
        ),
        protocol=ProtocolSpec(name=PROTOCOL_NAMES[0]),
        sweep=SweepSpec(
            axes=(
                SweepAxis(path="protocol.name", values=PROTOCOL_NAMES, key="protocol"),
                size_axis,
            )
        ),
        repetitions=sweep.repetitions,
        master_seed=master_seed,
        label="e2-{protocol}",
    )
    full_schedule = replace(
        early_stop,
        name="e2-algorithm1-full",
        protocol=ProtocolSpec(name="algorithm1"),
        sweep=SweepSpec(axes=(size_axis,)),
        label="e2-algorithm1-full",
        config={"stop_when_informed": False},
    )
    return early_stop, full_schedule


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    degree: int = DEFAULT_DEGREE,
    sizes: Optional[SweepSizes] = None,
    workers: Optional[int] = None,
) -> Table:
    """Run the E2 sweeps and return their table (``workers`` as in E1)."""
    early_stop, full_schedule = scenarios(
        quick=quick, master_seed=master_seed, degree=degree, sizes=sizes
    )
    runs = run_spec(early_stop, workers=workers), run_spec(full_schedule, workers=workers)
    points = [(point.values["protocol"], point) for point in runs[0].points]
    points += [("algorithm1-full", point) for point in runs[1].points]

    table = Table(
        title=f"{TITLE} (d = {degree})",
        columns=[
            "protocol",
            "n",
            "tx_per_node",
            "rounds_mean",
            "success_rate",
        ],
    )

    series: dict = {}
    for name, point in points:
        aggregate = point.aggregate
        n = point.values["n"]
        table.add_row(
            protocol=name,
            n=n,
            tx_per_node=aggregate.transmissions_per_node.mean,
            rounds_mean=aggregate.rounds.mean,
            success_rate=aggregate.success_rate,
        )
        ns, values = series.setdefault(name, ([], []))
        ns.append(n)
        values.append(aggregate.transmissions_per_node.mean)

    for name, (ns, values) in series.items():
        if len(ns) < 2:
            continue
        loglog_fit = fit_scaling_law(ns, values, "loglog")
        log_fit = fit_scaling_law(ns, values, "log")
        better = "loglog" if loglog_fit.residual_rms <= log_fit.residual_rms else "log"
        table.add_note(
            f"{name}: slope {log_fit.slope:+.2f} per log2(n) unit; best-fitting "
            f"growth law = {better} "
            f"(rms loglog {loglog_fit.residual_rms:.3f} vs log {log_fit.residual_rms:.3f})"
        )
    table.add_note(
        "Paper claim: algorithm1 transmissions grow like n·log log n while push "
        "grows like n·log n; at finite n the distinguishing signal is the growth "
        "law, not the absolute values."
    )
    table.record_runs(*runs)
    return table
