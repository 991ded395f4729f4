"""Micro-benchmarks of the substrates (not tied to a paper table).

These measure the hot paths of the library — configuration-model graph
generation and full broadcasts on both round engines — so performance
regressions in the simulator itself are visible separately from the
experiment tables.  The broadcast benchmarks are parametrized over the
``engine`` knob; comparing the ``scalar`` and ``vectorized`` rows of one run
gives the current speedup (see ``BENCH_micro.json`` for recorded baselines).
"""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast
from repro.core.rng import RandomSource
from repro.graphs.configuration_model import pairing_multigraph, random_regular_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.push import PushProtocol

ENGINES = ["scalar", "vectorized"]


def test_generate_regular_graph_4096(benchmark):
    result = benchmark(
        lambda: random_regular_graph(4096, 8, RandomSource(seed=1), strategy="repair")
    )
    assert result.node_count == 4096


@pytest.mark.perf
def test_pairing_multigraph_million_nodes(benchmark):
    """The raw pairing draw at n = 10^6 (one in-place sort of packed keys).

    This is the construction path of the million-node broadcast benches; the
    build avoids the O(m log m) stable argsort over the 2m stubs entirely
    (see ``pairing_multigraph``) and is asserted bit-identical to the
    edge-array build in tests/test_configuration_model.py.
    """
    result = benchmark(lambda: pairing_multigraph(1_000_000, 8, RandomSource(seed=1)))
    assert result.node_count == 1_000_000
    assert result.edge_count == 4_000_000


@pytest.mark.parametrize("engine", ENGINES)
def test_algorithm1_broadcast_4096(benchmark, engine):
    graph = random_regular_graph(4096, 8, RandomSource(seed=2), strategy="repair")
    config = SimulationConfig(engine=engine)
    result = benchmark(
        lambda: run_broadcast(graph, Algorithm1(n_estimate=4096), seed=3, config=config)
    )
    assert result.success
    assert result.metadata["engine"] == engine


@pytest.mark.parametrize("engine", ENGINES)
def test_push_broadcast_4096(benchmark, engine):
    graph = random_regular_graph(4096, 8, RandomSource(seed=2), strategy="repair")
    config = SimulationConfig(engine=engine)
    result = benchmark(
        lambda: run_broadcast(graph, PushProtocol(n_estimate=4096), seed=3, config=config)
    )
    assert result.success
    assert result.metadata["engine"] == engine
