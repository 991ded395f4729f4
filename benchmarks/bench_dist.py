"""Benchmarks for the parallel sweep executor (repro.dist).

The smoke test runs an E1-scale round-complexity sweep serially and with two
worker processes, alternating, five times each; it asserts every merged
result is **bit-identical** to the serial one (per-round history included —
parallelism must never change a number) and compares the median times.  A
single pair of runs on a shared 2-vCPU machine spreads from about 1.05x to
1.5x, so one pair cannot hold a 1.2x floor; the median of five can.  The
speedup floor is only asserted when the machine actually has more than one
usable core: on a single-core container the parallel run cannot beat
serial, so there the test instead bounds the orchestration overhead (wire
serialisation, result-payload round trip, pool management) to at most 2x.

Recorded numbers live in ``BENCH_micro.json`` under ``parallel_sweep_e1``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import pytest

from repro.experiments.exp_round_complexity import scenario as e1_scenario
from repro.experiments.workloads import SweepSizes
from repro.spec import run_spec

#: E1-scale: 3 protocols x 3 sizes x 20 seeds = 9 grid points, 180 runs —
#: heavy enough that per-point compute dominates pool startup and the
#: workers' duplicate graph builds.
BENCH_SIZES = SweepSizes(sizes=[2048, 4096, 8192], repetitions=20)

#: Serial / two-worker run pairs timed, alternating; the floor compares
#: their medians.
TIMED_PAIRS = 5


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.smoke
def test_parallel_e1_sweep_parity_and_speedup(capsys):
    spec = e1_scenario(sizes=BENCH_SIZES)

    serial_times = []
    parallel_times = []
    for _ in range(TIMED_PAIRS):
        start = time.perf_counter()
        serial = run_spec(spec)
        serial_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        parallel = run_spec(spec, workers=2)
        parallel_times.append(time.perf_counter() - start)

        # Bit-identical merging: the whole point of the label-keyed seeding.
        serial_results = serial.results()
        parallel_results = parallel.results()
        assert len(serial_results) == len(parallel_results) == 180
        for ours, theirs in zip(serial_results, parallel_results):
            assert ours.history == theirs.history
            assert ours == theirs

    serial_seconds = statistics.median(serial_times)
    parallel_seconds = statistics.median(parallel_times)
    speedup = serial_seconds / parallel_seconds
    cpus = usable_cpus()
    with capsys.disabled():
        print()
        print(
            json.dumps(
                {
                    "bench": "parallel_sweep_e1",
                    "grid_points": len(serial.points),
                    "runs": len(serial_results),
                    "cpus": cpus,
                    "pairs": TIMED_PAIRS,
                    "serial_seconds": round(serial_seconds, 3),
                    "workers2_seconds": round(parallel_seconds, 3),
                    "speedup": round(speedup, 3),
                }
            )
        )

    if cpus >= 2:
        # Real parallel hardware: two workers must deliver a real speedup.
        assert speedup >= 1.2, (
            f"2-worker sweep only {speedup:.2f}x faster than serial "
            f"on {cpus} cpus"
        )
    else:
        # Single core: parallelism cannot win; bound the overhead instead.
        assert speedup >= 0.5, (
            f"2-worker sweep {1 / speedup:.2f}x slower than serial on one "
            "cpu — orchestration overhead regressed"
        )


@pytest.mark.smoke
def test_sharded_execution_overhead_is_bounded(capsys):
    """Running the grid as two merged shards stays close to one serial run."""
    from repro.dist import merge_runs

    spec = e1_scenario(sizes=SweepSizes(sizes=[1024, 2048], repetitions=5))

    start = time.perf_counter()
    serial = run_spec(spec)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    merged = merge_runs([run_spec(spec, shard=(i, 2)) for i in range(2)])
    sharded_seconds = time.perf_counter() - start

    assert merged.results() == serial.results()
    with capsys.disabled():
        print()
        print(
            json.dumps(
                {
                    "bench": "sharded_e1_two_shards",
                    "serial_seconds": round(serial_seconds, 3),
                    "sharded_seconds": round(sharded_seconds, 3),
                }
            )
        )
    # Shards re-derive graphs their sibling already built, so allow slack;
    # anything beyond 3x means the shard path grew a real inefficiency.
    assert sharded_seconds <= max(3.0 * serial_seconds, serial_seconds + 1.0)
