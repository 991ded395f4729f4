#!/usr/bin/env python
"""Compare current hot-path timings *and memory* against BENCH_micro.json.

Re-measures the micro-benchmark medians (graph generation, including the
connected n = 32768 and n = 2²⁰ builds with their connectivity check, one
broadcast per protocol at n = 4096, push and Algorithm 1 at n = 256, where
the engine's per-round bookkeeping dominates, push, push-pull, Algorithm 1
and quasirandom at n = 10⁶, where most rounds' rows run from the receiver
side, the 20-seed batched push sweep at n = 4096 and Algorithm 1 sweep at
n = 32768, and Algorithm 1 under churn at n = 4096 and n = 10⁵)
and the tracemalloc peak of the headline allocations (the million-node
pairing build with its CSR stats, the connected n = 2²⁰ build, million-node
push, push-pull, Algorithm 1 and quasirandom broadcasts, batched push,
push-pull and Algorithm 1 sweeps, churn at n = 10⁵), and fails — exit code
1 — if any of them regressed beyond its factor over the recorded baseline.
Every timing is gated against a baseline recorded with this script's own
statistic, the median of its repetitions.  It also prints the minor page
faults of each n = 10⁶ run in a fresh process that builds the graph and
runs the four protocols in ``bcast_1e6``'s order, ungated: the count
depends on the allocator's state, which earlier frees in the process move.

Timings are compared at ``--tolerance``: a coarse tripwire for "someone made
the hot path 2× slower", generous enough to absorb runner jitter.  Memory
peaks are compared at a fixed :data:`MEMORY_TOLERANCE` (1.25×) whatever
``--tolerance`` says: tracemalloc peaks do not jitter (they re-measure to the
tenth of a MB), and a reverted scratch bound — a full-size temporary coming
back, a state array silently going back to int64 — is often less than 2×.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py [--tolerance 2.0]

Baselines are re-recorded by editing BENCH_micro.json (see its "recorded"
field); do that deliberately whenever an engine's hot path changes shape.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _memtrace import traced_peak_mb  # noqa: E402

from repro.core.config import SimulationConfig  # noqa: E402
from repro.core.engine import run_broadcast, run_broadcast_batch  # noqa: E402
from repro.core.rng import RandomSource  # noqa: E402
from repro.failures.churn import UniformChurn  # noqa: E402
from repro.graphs.configuration_model import (  # noqa: E402
    connected_random_regular_graph,
    pairing_multigraph,
    random_regular_graph,
)
from repro.protocols.algorithm1 import Algorithm1  # noqa: E402
from repro.protocols.algorithm2 import Algorithm2  # noqa: E402
from repro.protocols.push import PushProtocol  # noqa: E402
from repro.protocols.push_pull import PushPullProtocol  # noqa: E402
from repro.protocols.quasirandom import QuasirandomPushProtocol  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_micro.json"
N, D = 4096, 8
#: The small size whose runs are mostly per-round bookkeeping.
SMALL_N = 256
SWEEP_SEEDS = list(range(20))
#: The E1 shape at its largest size, and the large simple build.
SWEEP_N, LARGE_N = 32768, 2**20
#: Fixed factor for the memory entries (see the module docstring).
MEMORY_TOLERANCE = 1.25


def median_ms(fn, repetitions: int = 5) -> float:
    """Median wall-clock of ``fn`` in milliseconds (first call warms caches)."""
    fn()
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def million_graph():
    """The million-node pairing multigraph with its CSR view and stats: what
    every engine run on a fresh graph pays first."""
    graph = pairing_multigraph(1_000_000, 8, RandomSource(seed=7))
    graph.csr()
    graph.csr_stats()
    return graph


#: The protocols timed and traced at n = 10⁶.
MILLION_PROTOCOLS = {
    "push": PushProtocol,
    "push_pull": PushPullProtocol,
    "algorithm1": Algorithm1,
    "quasirandom": QuasirandomPushProtocol,
}


def million_runs(graph_million, config) -> dict:
    """``protocol name -> one n = 10⁶ broadcast`` on ``graph_million``."""
    def run(protocol_class):
        return lambda: run_broadcast(
            graph_million, protocol_class(n_estimate=1_000_000), seed=11, config=config
        )

    return {name: run(cls) for name, cls in MILLION_PROTOCOLS.items()}


def churn_graph():
    """The n = 10⁵ pairing multigraph of the churn entries, CSR and stats ready."""
    graph = pairing_multigraph(100_000, 8, RandomSource(seed=7))
    graph.csr()
    graph.csr_stats()
    return graph


def churn_run(graph, config):
    """One Algorithm 1 broadcast on ``graph`` under uniform 1% churn."""
    return lambda: run_broadcast(
        graph,
        Algorithm1(n_estimate=graph.node_count),
        seed=11,
        config=config,
        churn_model=UniformChurn(leave_rate=0.01, join_rate=0.01, target_degree=8),
    )


def million_faults() -> dict:
    """``protocol name -> minor page faults`` of one n = 10⁶ run each, after
    the graph build, in this process."""
    vector = SimulationConfig(engine="vectorized", collect_round_history=False)
    faults = {}
    for name, run in million_runs(million_graph(), vector).items():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run()
        faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults


def fresh_process_faults() -> dict:
    """:func:`million_faults` in a fresh interpreter."""
    code = "import json, check_regression; print(json.dumps(check_regression.million_faults()))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).resolve().parent,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def measure_current(graph_million) -> dict:
    """Re-run every baseline measurement and return name -> median ms."""
    vector = SimulationConfig(engine="vectorized", collect_round_history=False)
    graph = random_regular_graph(N, D, RandomSource(seed=2), strategy="repair")
    graph.csr()
    small = random_regular_graph(SMALL_N, D, RandomSource(seed=2), strategy="repair")
    small.csr()
    sweep_graph = connected_random_regular_graph(SWEEP_N, D, RandomSource(seed=1))
    sweep_graph.csr()
    churn_100k = churn_run(churn_graph(), vector)

    def broadcast(protocol_factory, on=graph):
        return lambda: run_broadcast(on, protocol_factory(), seed=3, config=vector)

    return {
        "generate_regular_graph_4096": median_ms(
            lambda: random_regular_graph(
                N, D, RandomSource(seed=1), strategy="repair"
            ),
            repetitions=3,
        ),
        "pairing_multigraph_1e6_d8": median_ms(
            lambda: pairing_multigraph(1_000_000, 8, RandomSource(seed=1)),
            repetitions=3,
        ),
        # The experiment default family: draw plus connectivity check.
        "connected_regular_graph_32768": median_ms(
            lambda: connected_random_regular_graph(SWEEP_N, D, RandomSource(seed=1)),
            repetitions=3,
        ),
        "connected_regular_graph_1048576": median_ms(
            lambda: connected_random_regular_graph(LARGE_N, D, RandomSource(seed=1)),
            repetitions=3,
        ),
        "push_vectorized_4096": median_ms(
            broadcast(lambda: PushProtocol(n_estimate=N))
        ),
        "algorithm1_vectorized_4096": median_ms(
            broadcast(lambda: Algorithm1(n_estimate=N))
        ),
        "algorithm2_vectorized_4096": median_ms(
            broadcast(lambda: Algorithm2(n_estimate=N))
        ),
        "quasirandom_vectorized_4096": median_ms(
            broadcast(lambda: QuasirandomPushProtocol(n_estimate=N))
        ),
        "push_vectorized_256": median_ms(
            broadcast(lambda: PushProtocol(n_estimate=SMALL_N), on=small),
            repetitions=21,
        ),
        "algorithm1_vectorized_256": median_ms(
            broadcast(lambda: Algorithm1(n_estimate=SMALL_N), on=small),
            repetitions=21,
        ),
        **{
            f"{name}_broadcast_1e6": median_ms(run, repetitions=3)
            for name, run in million_runs(graph_million, vector).items()
        },
        "batched_push_sweep_20x_4096": median_ms(
            lambda: run_broadcast_batch(
                graph, PushProtocol(n_estimate=N), SWEEP_SEEDS, config=vector
            ),
            repetitions=3,
        ),
        # The k-distinct draw at the E1 sweep's largest size.
        "batched_algorithm1_20x_32768": median_ms(
            lambda: run_broadcast_batch(
                sweep_graph, Algorithm1(n_estimate=SWEEP_N), SWEEP_SEEDS, config=vector
            ),
            repetitions=3,
        ),
        # Dynamic membership: tombstones + stub-stealing joins must stay a
        # small constant factor over the static algorithm1 broadcast.
        "algorithm1_churn_vectorized_4096": median_ms(
            lambda: run_broadcast(
                graph,
                Algorithm1(n_estimate=N),
                seed=3,
                config=vector,
                churn_model=UniformChurn(
                    leave_rate=0.01, join_rate=0.01, target_degree=D
                ),
            )
        ),
        # The E8 regime at scale: joins, departures and node compactions
        # are most of the run.
        "churn_broadcast_1e5": median_ms(churn_100k),
    }


def measure_memory(graph_million) -> dict:
    """Tracemalloc peaks of the headline engine allocations, name -> MB.

    Kept separate from the timing pass: tracing every allocation skews
    wall-clock, so a measurement participates in exactly one of the two.
    """
    vector = SimulationConfig(engine="vectorized", collect_round_history=False)
    graph_4096 = random_regular_graph(N, D, RandomSource(seed=2), strategy="repair")
    graph_4096.csr()
    graph_4096.csr_stats()

    graph_ready_peak = traced_peak_mb(million_graph)
    connected_large_peak = traced_peak_mb(
        lambda: connected_random_regular_graph(LARGE_N, D, RandomSource(seed=1))
    )
    million_peaks = {
        f"{name}_broadcast_1e6_peak": run
        for name, run in million_runs(graph_million, vector).items()
    }

    def batched_sweep():
        run_broadcast_batch(
            graph_4096, PushProtocol(n_estimate=N), SWEEP_SEEDS, config=vector
        )

    graph_32768 = connected_random_regular_graph(SWEEP_N, D, RandomSource(seed=1))
    graph_32768.csr()
    graph_32768.csr_stats()

    def batched_push_pull():
        run_broadcast_batch(
            graph_32768, PushPullProtocol(n_estimate=SWEEP_N), SWEEP_SEEDS, config=vector
        )

    def batched_algorithm1():
        run_broadcast_batch(
            graph_32768, Algorithm1(n_estimate=SWEEP_N), SWEEP_SEEDS, config=vector
        )

    churn_100k = churn_run(churn_graph(), vector)

    for run in million_peaks.values():  # warm graph-side caches out of the traces
        run()
    batched_sweep()
    batched_push_pull()
    batched_algorithm1()
    churn_100k()
    return {
        "graph_ready_1e6_peak": graph_ready_peak,
        "connected_regular_graph_1048576_peak": connected_large_peak,
        **{name: traced_peak_mb(run) for name, run in million_peaks.items()},
        "batched_push_sweep_20x_4096_peak": traced_peak_mb(batched_sweep),
        "batched_push_pull_20x_32768_peak": traced_peak_mb(batched_push_pull),
        "batched_algorithm1_20x_32768_peak": traced_peak_mb(batched_algorithm1),
        "churn_broadcast_1e5_peak": traced_peak_mb(churn_100k),
    }


def baseline_map(recorded: dict) -> dict:
    """Flatten the BENCH_micro.json baselines into name -> ms."""
    baselines = recorded["baselines_ms"]
    return {
        "generate_regular_graph_4096": baselines["generate_regular_graph_4096"],
        "pairing_multigraph_1e6_d8": baselines["pairing_multigraph_1e6_d8"]["ms"],
        "connected_regular_graph_32768": baselines["connected_regular_graph_32768"]["ms"],
        "connected_regular_graph_1048576": baselines["connected_regular_graph_1048576"]["ms"],
        "push_vectorized_4096": baselines["push_broadcast_4096"]["vectorized"],
        "algorithm1_vectorized_4096": baselines["algorithm1_broadcast_4096"]["vectorized"],
        "algorithm2_vectorized_4096": baselines["algorithm2_broadcast_4096"]["vectorized"],
        "quasirandom_vectorized_4096": baselines["quasirandom_broadcast_4096"]["vectorized"],
        "push_vectorized_256": baselines["push_broadcast_256"]["vectorized"],
        "algorithm1_vectorized_256": baselines["algorithm1_broadcast_256"]["vectorized"],
        **{
            f"{name}_broadcast_1e6": baselines[f"{name}_broadcast_1e6"]["ms"]
            for name in MILLION_PROTOCOLS
        },
        "batched_push_sweep_20x_4096": baselines["batched_push_sweep_20x_4096"]["batched"],
        "batched_algorithm1_20x_32768": baselines["batched_algorithm1_20x_32768"]["ms"],
        "algorithm1_churn_vectorized_4096": baselines["algorithm1_churn_4096"]["median_ms"],
        "churn_broadcast_1e5": baselines["churn_broadcast_1e5"]["ms"],
    }


def memory_baseline_map(recorded: dict) -> dict:
    """Flatten the BENCH_micro.json memory baselines into name -> MB."""
    memory = recorded["memory_mb"]
    names = (
        "graph_ready_1e6_peak",
        "connected_regular_graph_1048576_peak",
        "push_broadcast_1e6_peak",
        "push_pull_broadcast_1e6_peak",
        "algorithm1_broadcast_1e6_peak",
        "quasirandom_broadcast_1e6_peak",
        "batched_push_sweep_20x_4096_peak",
        "batched_push_pull_20x_32768_peak",
        "batched_algorithm1_20x_32768_peak",
        "churn_broadcast_1e5_peak",
    )
    return {name: memory[name]["mb"] for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="fail when a timing's current/baseline exceeds this factor "
        f"(default 2.0; memory peaks always use {MEMORY_TOLERANCE}x)",
    )
    args = parser.parse_args(argv)

    recorded = json.loads(BASELINE_PATH.read_text())
    baselines = baseline_map(recorded)
    graph_million = million_graph()
    current = measure_current(graph_million)
    memory_baselines = memory_baseline_map(recorded)
    memory_current = measure_memory(graph_million)

    width = max(
        len(name) for name in list(current) + list(memory_current)
    )
    regressions = []
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  ratio")
    for name, now in current.items():
        base = baselines[name]
        ratio = now / base
        marker = ""
        if ratio > args.tolerance:
            marker = "  << REGRESSION"
            regressions.append((name, base, now, ratio))
        print(f"{name:<{width}}  {base:>8.1f}ms  {now:>8.1f}ms  {ratio:5.2f}x{marker}")
    for name, now in memory_current.items():
        base = memory_baselines[name]
        ratio = now / base
        marker = ""
        if ratio > MEMORY_TOLERANCE:
            marker = "  << REGRESSION"
            regressions.append((name, base, now, ratio))
        print(f"{name:<{width}}  {base:>8.1f}MB  {now:>8.1f}MB  {ratio:5.2f}x{marker}")

    print(
        "\nminor page faults per n = 10^6 run in a fresh process (not gated): "
        + ", ".join(f"{name} {count}" for name, count in fresh_process_faults().items())
    )

    limits = (
        f"{args.tolerance:.1f}x (timings) / {MEMORY_TOLERANCE}x (memory) "
        "of the recorded baselines"
    )
    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed beyond {limits} "
            f"(recorded {recorded['recorded']}).",
            file=sys.stderr,
        )
        return 1
    print(f"\nAll benchmarks within {limits}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
