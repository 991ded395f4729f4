#!/usr/bin/env python3
"""Parallel sweeps: shard a scenario grid across worker processes.

Runs one protocol x size grid four ways and shows they are bit-identical:

1. serially (`run_spec(spec)`),
2. fanned out over two worker processes (`run_spec(spec, workers=2)`),
3. as two independent shard runs merged with `repro.merge_runs` — the
   pattern for spreading one sweep across several hosts,
4. interrupted after half the grid and resumed from its stream directory.

The label-keyed seed derivation makes every grid point's randomness
independent of where (and in which order) it executes, so parallelism never
changes a single number — only `run.provenance` / the saved table's
`metadata["distributed"]` record how the result was produced.

Run with:  python examples/parallel_sweep.py
"""

from __future__ import annotations

import tempfile

from repro import (
    GraphSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepAxis,
    SweepSpec,
    merge_runs,
    run_spec,
)
from repro.dist import print_point_progress


def main() -> None:
    spec = ScenarioSpec(
        name="parallel-sweep-demo",
        graph=GraphSpec(family="connected-random-regular", params={"n": 256, "d": 8}),
        protocol=ProtocolSpec(name="push"),
        sweep=SweepSpec(
            axes=(
                SweepAxis(
                    path="protocol.name",
                    values=("push", "push-pull", "algorithm1"),
                    key="protocol",
                ),
                SweepAxis(path="graph.params.n", values=(256, 512)),
            )
        ),
        repetitions=5,
        master_seed=2008,
        label="par-{protocol}",
    )

    print(f"Grid: {spec.sweep.size} points x {spec.repetitions} seeds\n")

    print("1. Serial baseline...")
    serial = run_spec(spec)

    print("2. Two worker processes (one line per completed point):")
    parallel = run_spec(spec, workers=2, progress=print_point_progress)
    assert parallel.results() == serial.results()
    print(f"   bit-identical to serial; provenance: {parallel.provenance}\n")

    print("3. Two shards run independently (as two hosts would), then merged:")
    shards = [run_spec(spec, shard=f"{i}/2") for i in range(2)]
    merged = merge_runs(shards)
    assert merged.results() == serial.results()
    print(
        f"   shard sizes {[len(s.points) for s in shards]} -> "
        f"{len(merged.points)} points, bit-identical to serial\n"
    )

    print("4. Interrupt after half the grid, then resume from the stream:")
    with tempfile.TemporaryDirectory() as stream_dir:
        run_spec(spec, points=slice(0, 3), stream_dir=stream_dir)
        print("   ...pretend the machine died here...")
        resumed = run_spec(spec, workers=2, stream_dir=stream_dir, resume=True)
        assert resumed.results() == serial.results()
        print(
            "   resumed run re-executed only "
            f"{resumed.provenance['points_run']} of "
            f"{resumed.provenance['points_total']} points "
            f"({resumed.provenance['points_resumed']} from the stream "
            "directory), still bit-identical\n"
        )

    print(merged.to_table().render())


if __name__ == "__main__":
    main()
