"""Micro-benchmarks of the vectorized round engine.

Two tiers:

* ``-m smoke`` — seconds-scale checks that the bulk engine actually delivers
  its headline speedup over the scalar engine at ``n = 4096`` (the ISSUE's
  acceptance bar is ≥ 10×; the measured margin is far larger, so a genuine
  regression trips the assertion long before it reaches 10×).
* ``-m perf`` — the million-node regime the vectorized engine exists for: a
  full push broadcast over a configuration-model multigraph with
  ``n = 10⁶``, required to finish in well under 30 s.

Run with ``pytest benchmarks/bench_vectorized.py`` (add ``-m smoke`` to skip
the million-node sweep); tier-1 (`pytest` from the repo root) does not collect
this file.
"""

from __future__ import annotations

import time

import pytest

from _memtrace import traced_peak_mb
from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast
from repro.core.rng import RandomSource
from repro.graphs.configuration_model import pairing_multigraph, random_regular_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.algorithm2 import Algorithm2
from repro.protocols.push import PushProtocol
from repro.protocols.quasirandom import QuasirandomPushProtocol

SPEEDUP_FLOOR = 10.0
MILLION_NODE_BUDGET_SECONDS = 30.0
#: Traced-allocation ceiling for one million-node push broadcast.  With
#: rounds delivered in blocks the engine measures ~22 MB (42 MB with
#: whole-round scratch, ~67 MB before the dtype audit — see BENCH_micro.json
#: "memory_mb"); the budget leaves headroom for allocator jitter while still
#: catching a whole-round temporary or an accidental int64 state array.
MILLION_NODE_PEAK_BUDGET_MB = 30.0
#: Traced-allocation ceiling for one million-node Algorithm 1 broadcast.  Its
#: four-choice rounds draw and deliver one top-k block at a time and measure
#: ~30 MB; whole-round channel arrays measured ~66 MB, and a sampler with
#: full-size temporaries ~167 MB (see BENCH_micro.json "memory_mb").
ALGORITHM1_MILLION_NODE_PEAK_BUDGET_MB = 45.0


@pytest.fixture(scope="module")
def graph_4096():
    return random_regular_graph(4096, 8, RandomSource(seed=2), strategy="repair")


def _best_of(runs, fn):
    best = float("inf")
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _measure_speedup(graph, protocol_factory, seed):
    scalar_config = SimulationConfig(engine="scalar", collect_round_history=False)
    vector_config = SimulationConfig(engine="vectorized", collect_round_history=False)
    scalar_time, scalar_result = _best_of(
        3, lambda: run_broadcast(graph, protocol_factory(), seed=seed, config=scalar_config)
    )
    vector_time, vector_result = _best_of(
        5, lambda: run_broadcast(graph, protocol_factory(), seed=seed, config=vector_config)
    )
    assert scalar_result.success and vector_result.success
    return scalar_time / vector_time, scalar_time, vector_time


@pytest.mark.smoke
def test_push_4096_speedup(graph_4096):
    speedup, scalar_time, vector_time = _measure_speedup(
        graph_4096, lambda: PushProtocol(n_estimate=4096), seed=3
    )
    print(
        f"\npush n=4096: scalar {scalar_time * 1e3:.1f} ms, "
        f"vectorized {vector_time * 1e3:.2f} ms, speedup {speedup:.0f}x"
    )
    assert speedup >= SPEEDUP_FLOOR


@pytest.mark.smoke
def test_algorithm1_4096_speedup(graph_4096):
    speedup, scalar_time, vector_time = _measure_speedup(
        graph_4096, lambda: Algorithm1(n_estimate=4096), seed=3
    )
    print(
        f"\nalgorithm1 n=4096: scalar {scalar_time * 1e3:.1f} ms, "
        f"vectorized {vector_time * 1e3:.2f} ms, speedup {speedup:.0f}x"
    )
    assert speedup >= SPEEDUP_FLOOR


@pytest.mark.perf
def test_push_broadcast_million_nodes():
    # The regime the vectorized engine exists for: one full push broadcast
    # over a 10⁶-node configuration-model multigraph (the multigraph is the
    # process the paper analyses directly; skipping the simple-graph repair
    # keeps setup time out of the measurement's way).
    graph = pairing_multigraph(10**6, 8, RandomSource(seed=7))
    config = SimulationConfig(engine="vectorized", collect_round_history=False)
    start = time.perf_counter()
    result = run_broadcast(graph, PushProtocol(n_estimate=10**6), seed=11, config=config)
    elapsed = time.perf_counter() - start
    print(
        f"\npush n=1e6: {elapsed:.2f} s, rounds={result.rounds_to_completion}, "
        f"transmissions={result.total_transmissions}"
    )
    assert result.success
    assert elapsed < MILLION_NODE_BUDGET_SECONDS


@pytest.mark.perf
def test_push_million_nodes_peak_memory():
    # The dtype/scratch audit's acceptance: one million-node push broadcast
    # must stay memory-lean (int32 CSR + int32 state + reused sampling
    # buffers).  Timing is asserted separately — tracing skews it.
    graph = pairing_multigraph(10**6, 8, RandomSource(seed=7))
    graph.csr()
    graph.csr_stats()
    config = SimulationConfig(engine="vectorized", collect_round_history=False)

    def broadcast():
        result = run_broadcast(
            graph, PushProtocol(n_estimate=10**6), seed=11, config=config
        )
        assert result.success

    broadcast()  # warm the graph-side caches out of the measurement
    peak_mb = traced_peak_mb(broadcast)
    print(f"\npush n=1e6 peak traced allocations: {peak_mb:.1f} MB")
    assert peak_mb < MILLION_NODE_PEAK_BUDGET_MB


@pytest.mark.perf
def test_algorithm1_million_nodes_peak_memory():
    # The blocked delivery pipeline's bound: a round's sampling scratch is
    # one block of channels, so the peak stays near the engine state.
    # Measured like the push test above (warm graph caches).
    graph = pairing_multigraph(10**6, 8, RandomSource(seed=7))
    graph.csr()
    graph.csr_stats()
    config = SimulationConfig(engine="vectorized", collect_round_history=False)

    def broadcast():
        result = run_broadcast(
            graph, Algorithm1(n_estimate=10**6), seed=11, config=config
        )
        assert result.success

    broadcast()
    peak_mb = traced_peak_mb(broadcast)
    print(f"\nalgorithm1 n=1e6 peak traced allocations: {peak_mb:.1f} MB")
    assert peak_mb < ALGORITHM1_MILLION_NODE_PEAK_BUDGET_MB


@pytest.mark.perf
def test_algorithm2_broadcast_million_nodes():
    # The large-degree regime of the paper's Theorem 3: phases 1-2 push with
    # four distinct choices, then the pull tail in which every informed node
    # answers all incoming calls.  d = 16 sits inside the
    # δ·log log n ≤ d ≤ δ·log n window at n = 10⁶.
    graph = pairing_multigraph(10**6, 16, RandomSource(seed=7))
    config = SimulationConfig(engine="vectorized", collect_round_history=False)
    start = time.perf_counter()
    result = run_broadcast(
        graph, Algorithm2(n_estimate=10**6), seed=11, config=config
    )
    elapsed = time.perf_counter() - start
    print(
        f"\nalgorithm2 n=1e6: {elapsed:.2f} s, rounds={result.rounds_executed}, "
        f"transmissions={result.total_transmissions} "
        f"({result.transmissions_per_node:.1f}/node)"
    )
    assert result.success
    assert elapsed < MILLION_NODE_BUDGET_SECONDS


@pytest.mark.perf
def test_quasirandom_broadcast_million_nodes():
    # The cyclic-list pointer protocol: one random starting offset per node,
    # then deterministic list order — the bulk pointer table makes each round
    # a couple of gathers.
    graph = pairing_multigraph(10**6, 8, RandomSource(seed=7))
    config = SimulationConfig(engine="vectorized", collect_round_history=False)
    start = time.perf_counter()
    result = run_broadcast(
        graph, QuasirandomPushProtocol(n_estimate=10**6), seed=11, config=config
    )
    elapsed = time.perf_counter() - start
    print(
        f"\nquasirandom n=1e6: {elapsed:.2f} s, "
        f"rounds={result.rounds_to_completion}, "
        f"transmissions={result.total_transmissions}"
    )
    assert result.success
    assert elapsed < MILLION_NODE_BUDGET_SECONDS
