"""E4 — Per-phase dynamics of Algorithm 1 and the α ablation.

The paper's analysis (Section 4) predicts a specific profile for Algorithm 1:

* **Phase 1** — the set of informed nodes grows by a constant factor per
  round (Lemmas 1–2) and reaches at least a constant fraction of the network
  by the end of the phase (Corollary 1), at ``O(n)`` transmissions.
* **Phase 2** — the *uninformed* set shrinks by a constant factor per round
  (Lemma 3), leaving at most ``n/log⁵ n`` uninformed nodes (Corollary 2).
* **Phase 3** — one pull round informs everybody except nodes with at least
  four uninformed neighbours.
* **Phase 4** — the few remaining nodes are reached over short paths.

The experiment runs Algorithm 1 with full round history and reports, per
phase: rounds spent, transmissions, informed count at the end, and the
geometric growth/decay factors the lemmas predict.  A second block ablates the
phase-length constant ``α``.  Both blocks are :class:`ScenarioSpec` records
(:func:`scenarios`): the profile is one full-schedule broadcast, the
ablation a sweep over ``protocol.params.alpha``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.metrics import RunResult
from ..spec.run import run_spec
from ..spec.scenario import GraphSpec, ProtocolSpec, ScenarioSpec, SweepAxis, SweepSpec
from .tables import Table

__all__ = ["run_experiment", "scenarios"]

TITLE = "E4 — Algorithm 1 phase dynamics"


def _phase_summary(result: RunResult) -> List[dict]:
    """Aggregate the run history into one record per phase."""
    records = []
    for phase_number in range(1, 5):
        label = f"phase{phase_number}"
        rounds = [r for r in result.history if r.phase == label]
        if not rounds:
            continue
        informed_start = rounds[0].informed_before
        informed_end = rounds[-1].informed_after
        growth_factors = [
            r.informed_after / r.informed_before
            for r in rounds
            if r.informed_before > 0 and r.newly_informed > 0
        ]
        shrink_factors = [
            (result.n - r.informed_before) / (result.n - r.informed_after)
            for r in rounds
            if r.informed_after < result.n and r.newly_informed > 0
        ]
        records.append(
            {
                "phase": label,
                "rounds": len(rounds),
                "transmissions": sum(r.transmissions for r in rounds),
                "informed_start": informed_start,
                "informed_end": informed_end,
                "mean_growth_factor": (
                    sum(growth_factors) / len(growth_factors) if growth_factors else 1.0
                ),
                "mean_shrink_factor": (
                    sum(shrink_factors) / len(shrink_factors) if shrink_factors else 1.0
                ),
            }
        )
    return records


def scenarios(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degree: int = 8,
    alphas: Optional[List[float]] = None,
) -> Tuple[ScenarioSpec, ScenarioSpec]:
    """The E4 blocks: the phase profile (one run), then the α ablation."""
    size = n if n is not None else (1024 if quick else 8192)
    alpha_values = tuple(alphas) if alphas is not None else (0.5, 1.0, 2.0)
    # The profile runs the full schedule, so every phase actually executes.
    profile = ScenarioSpec(
        name="e4-profile",
        graph=GraphSpec(family="connected-random-regular", params={"n": size, "d": degree}),
        protocol=ProtocolSpec(name="algorithm1", params={"alpha": 1.0}),
        repetitions=1,
        master_seed=master_seed,
        label="e4-profile",
        config={"stop_when_informed": False},
    )
    # The ablation reports success rate and rounds with early stopping.
    ablation = ScenarioSpec(
        name="e4-alpha-ablation",
        graph=profile.graph,
        protocol=ProtocolSpec(name="algorithm1", params={"alpha": alpha_values[0]}),
        sweep=SweepSpec(axes=(SweepAxis(path="protocol.params.alpha", values=alpha_values),)),
        repetitions=3 if quick else 5,
        master_seed=master_seed,
        label="e4-alpha-{alpha}",
    )
    return profile, ablation


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degree: int = 8,
    alphas: Optional[List[float]] = None,
    workers: Optional[int] = None,
) -> Table:
    """Run the E4 phase profile plus the α ablation."""
    profile, ablation = scenarios(
        quick=quick, master_seed=master_seed, n=n, degree=degree, alphas=alphas
    )
    runs = run_spec(profile, workers=workers), run_spec(ablation, workers=workers)
    size = profile.graph.params["n"]

    table = Table(
        title=f"{TITLE} (n = {size}, d = {degree})",
        columns=[
            "block",
            "alpha",
            "phase",
            "rounds",
            "transmissions",
            "informed_start",
            "informed_end",
            "growth_factor",
            "shrink_factor",
            "success_rate",
        ],
    )

    (profile_point,) = runs[0].points
    reference = profile_point.results[0]
    for record in _phase_summary(reference):
        table.add_row(
            block="profile",
            alpha=profile.protocol.params["alpha"],
            phase=record["phase"],
            rounds=record["rounds"],
            transmissions=record["transmissions"],
            informed_start=record["informed_start"],
            informed_end=record["informed_end"],
            growth_factor=record["mean_growth_factor"],
            shrink_factor=record["mean_shrink_factor"],
            success_rate=1.0 if reference.success else 0.0,
        )

    for point in runs[1].points:
        aggregate = point.aggregate
        table.add_row(
            block="alpha-ablation",
            alpha=point.values["alpha"],
            phase="all",
            rounds=aggregate.rounds.mean,
            transmissions=aggregate.transmissions_per_node.mean,
            informed_start=1,
            informed_end=int(
                sum(r.final_informed for r in point.results) / len(point.results)
            ),
            growth_factor=None,
            shrink_factor=None,
            success_rate=aggregate.success_rate,
        )

    table.add_note(
        "Lemmas 1-2: phase-1 growth_factor should exceed 1 by a constant; "
        "Lemma 3: phase-2 shrink_factor (uninformed_before/uninformed_after) "
        "should exceed 1 by a constant; phase 3 is a single pull round."
    )
    table.record_runs(*runs)
    return table
