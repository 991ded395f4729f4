"""The single-run engine's blocked delivery pipeline.

A single run draws, filters, loss-tests and delivers each round in blocks
of at most ``_BLOCK_CHANNELS`` channels, and only still-uninformed
receivers reach the commit.  At tier-1 sizes every round fits in one
block, so these tests shrink the bounds (7 channels per block, 40 keys per
top-``k`` chunk) and check that a block boundary never moves a draw:

1. every single run equals its batched-engine row (the batched engine
   draws each round whole) for every protocol and for push-pull with three
   choices, on a regular graph, a multigraph with self-loops, and a G(n, p)
   graph with isolated and saturated nodes, reliable and lossy;
2. the churn golden digests reproduce;
3. a single run never commits a node that is already informed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import engine_vectorized
from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast
from repro.core.node import VectorState
from repro.core.rng import RandomSource
from repro.graphs.configuration_model import pairing_multigraph, random_regular_graph
from repro.graphs.families import gnp_graph
from repro.protocols.push_pull import PushPullProtocol

from test_churn_join_kernel import (
    GOLDEN_CASES,
    GOLDEN_DIGESTS,
    _golden_fingerprint,
    _golden_run,
)
from test_engine_batch import PROTOCOL_FACTORIES, assert_bit_identical

#: Every batchable protocol, plus push-pull with three distinct choices:
#: top-k blocks whose channels both push and pull.
BLOCK_PROTOCOLS = {
    **PROTOCOL_FACTORIES,
    "push-pull-3": lambda n: PushPullProtocol(n_estimate=n, fanout=3),
}

FAILURES = {
    "reliable": {},
    "loss": {"message_loss_probability": 0.2},
    "channel-failure": {
        "channel_failure_probability": 0.1,
        "message_loss_probability": 0.1,
    },
}


@pytest.fixture
def tiny_blocks(monkeypatch):
    monkeypatch.setattr(engine_vectorized, "_BLOCK_CHANNELS", 7)
    monkeypatch.setattr(engine_vectorized, "_CHUNK_ENTRIES", 40)


@pytest.fixture(scope="module")
def graphs():
    gnp = gnp_graph(400, 0.012, RandomSource(seed=5))
    degrees = np.diff(gnp.csr()[0])
    assert (degrees == 0).any() and (degrees <= 4).any()
    multigraph = pairing_multigraph(256, 6, RandomSource(seed=9))
    assert multigraph.csr_stats()[0]
    return {
        "regular": random_regular_graph(
            512, 8, RandomSource(seed=42), strategy="repair"
        ),
        "multigraph": multigraph,
        "gnp": gnp,
    }


@pytest.mark.usefixtures("tiny_blocks")
@pytest.mark.parametrize("failure", sorted(FAILURES))
@pytest.mark.parametrize("graph_name", ["regular", "multigraph", "gnp"])
@pytest.mark.parametrize("protocol_name", sorted(BLOCK_PROTOCOLS))
def test_blocked_single_run_matches_batched_row(
    graphs, protocol_name, graph_name, failure
):
    assert_bit_identical(
        graphs[graph_name],
        BLOCK_PROTOCOLS[protocol_name],
        [3],
        **FAILURES[failure],
    )


@pytest.mark.usefixtures("tiny_blocks")
@pytest.mark.parametrize("family,churn_name,protocol_name", GOLDEN_CASES)
def test_churn_digests_reproduce_in_tiny_blocks(family, churn_name, protocol_name):
    result = _golden_run(family, churn_name, protocol_name)
    key = f"{family}/{churn_name}/{protocol_name}"
    assert _golden_fingerprint(result) == GOLDEN_DIGESTS[key]


@pytest.mark.usefixtures("tiny_blocks")
@pytest.mark.parametrize("failure", ["reliable", "loss"])
@pytest.mark.parametrize("protocol_name", sorted(BLOCK_PROTOCOLS))
def test_only_fresh_receivers_are_committed(
    monkeypatch, graphs, protocol_name, failure
):
    commit = VectorState.commit_delivered
    committed = []

    def spy(state, delivered, round_index):
        assert not state.informed[delivered].any(), round_index
        committed.append(delivered.size)
        return commit(state, delivered, round_index)

    monkeypatch.setattr(VectorState, "commit_delivered", spy)
    graph = graphs["regular"]
    result = run_broadcast(
        graph,
        BLOCK_PROTOCOLS[protocol_name](graph.node_count),
        seed=5,
        config=SimulationConfig(engine="vectorized", **FAILURES[failure]),
    )
    assert result.success
    assert len(committed) == result.rounds_executed
    assert sum(committed) >= graph.node_count - 1
