#!/usr/bin/env python3
"""Scenario specs: describe a whole sweep as one serialisable record.

Builds a ScenarioSpec — protocol × loss-probability grid over a random
regular graph — runs it, round-trips it through JSON, and shows that the
reloaded spec reproduces the exact same results (every seed derives from the
spec's master seed and each point's label).

Run with:  python examples/scenario_specs.py
"""

from __future__ import annotations

from repro import (
    FailureSpec,
    GraphSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepAxis,
    SweepSpec,
    run_spec,
)


def main() -> None:
    spec = ScenarioSpec(
        name="loss-robustness-demo",
        graph=GraphSpec(family="connected-random-regular", params={"n": 512, "d": 8}),
        protocol=ProtocolSpec(name="algorithm1"),
        failure=FailureSpec(
            model="independent-loss", params={"transmission_loss_probability": 0.0}
        ),
        sweep=SweepSpec(
            axes=(
                SweepAxis(
                    path="protocol.name", values=("push", "algorithm1"), key="protocol"
                ),
                SweepAxis(
                    path="failure.params.transmission_loss_probability",
                    values=(0.0, 0.1, 0.2),
                    key="loss",
                ),
            )
        ),
        repetitions=3,
        master_seed=2008,
        label="demo-{protocol}-{loss}",
    )

    print("The spec as JSON (write this to a file and run it with "
          "`python -m repro run-spec <file>`):\n")
    print(spec.to_json())

    print("\nRunning the 2 x 3 grid...")
    run = run_spec(spec)
    print(run.to_table().render())

    print("\nRound-tripping through JSON and re-running...")
    reloaded = ScenarioSpec.from_json(spec.to_json())
    assert reloaded == spec
    rerun = run_spec(reloaded)
    for before, after in zip(run.results(), rerun.results()):
        assert before.total_transmissions == after.total_transmissions
        assert before.rounds_executed == after.rounds_executed
    print("identical results — the spec file IS the experiment.")

    print("\nEvery result also records the exact single-point spec that "
          "reproduces it:")
    point_spec = run.points[0].results[0].metadata["spec"]
    print(f"  metadata['spec']['name'] = {point_spec['name']!r}, "
          f"protocol = {point_spec['protocol']['name']!r}, "
          f"loss = {point_spec['failure']['params']['transmission_loss_probability']}")


if __name__ == "__main__":
    main()
