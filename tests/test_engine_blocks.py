"""The blocked delivery pipeline of the bulk engine.

The engine draws, filters, loss-tests and delivers each round in blocks of
at most ``_BLOCK_CHANNELS`` channels, and only still-uninformed receivers
reach the commit.  A single run is one row at offset 0; in a batch, rows
with at least ``_SCRATCH_MIN_SAMPLERS`` channels, or the only running row,
get blocks of their own and smaller rows share blocks.  At tier-1 sizes
every round fits in one block, so these tests shrink the bounds and check
that a block boundary never moves a draw:

1. every single run in tiny blocks (7 channels per block, 40 keys per
   top-``k`` chunk) equals its one-row batch and the same run at the
   default bounds, for every protocol, for push-pull with three choices
   and for push on the default pool (its mask's indices), on a regular
   graph, a multigraph with self-loops, and a G(n, p) graph with isolated
   and saturated nodes, reliable and lossy;
2. every row of a four-seed batch equals its single run under three
   sharing bounds, where rows split across blocks, share blocks, and
   repeat within one block (a small k-distinct row's saturated and deep
   pieces, or two of its top-``k`` chunks);
3. the churn golden digests reproduce;
4. no run, single or batched, ever commits a node that is already informed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import engine_vectorized
from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast
from repro.core.engine_vectorized import BatchedVectorizedRoundEngine
from repro.core.node import VectorState
from repro.core.rng import RandomSource
from repro.graphs.configuration_model import pairing_multigraph, random_regular_graph
from repro.graphs.families import gnp_graph
from repro.protocols.base import BroadcastProtocol
from repro.protocols.push import PushProtocol
from repro.protocols.push_pull import PushPullProtocol

from test_churn_join_kernel import (
    GOLDEN_CASES,
    GOLDEN_DIGESTS,
    _golden_fingerprint,
    _golden_run,
)
from test_engine_batch import PROTOCOL_FACTORIES, assert_bit_identical, run_signature


class MaskPushProtocol(PushProtocol):
    """Push without its own pool: the default pool scans its push mask."""

    vector_push_samplers = BroadcastProtocol.vector_push_samplers


#: Every batchable protocol, plus push-pull with three distinct choices
#: (top-k blocks whose channels both push and pull) and push-only rounds
#: whose pool is the base-class default, the indices of the push mask.
BLOCK_PROTOCOLS = {
    **PROTOCOL_FACTORIES,
    "push-pull-3": lambda n: PushPullProtocol(n_estimate=n, fanout=3),
    "push-mask": lambda n: MaskPushProtocol(n_estimate=n),
}

FAILURES = {
    "reliable": {},
    "loss": {"message_loss_probability": 0.2},
    "channel-failure": {
        "channel_failure_probability": 0.1,
        "message_loss_probability": 0.1,
    },
}


#: Seeds of the multi-seed batches.
BATCH_SEEDS = [3, 4, 5, 11]

#: Row-sharing bounds of the multi-seed batches, under 256-channel blocks:
#: from nearly every row in blocks of its own to every row below a block
#: sharing one.
SHARING_BOUNDS = [16, 96, 256]


def _tiny_blocks(monkeypatch):
    monkeypatch.setattr(engine_vectorized, "_BLOCK_CHANNELS", 7)
    monkeypatch.setattr(engine_vectorized, "_CHUNK_ENTRIES", 40)


@pytest.fixture
def tiny_blocks(monkeypatch):
    _tiny_blocks(monkeypatch)


def _shrink_shared_blocks(monkeypatch, sharing_bound):
    monkeypatch.setattr(engine_vectorized, "_BLOCK_CHANNELS", 256)
    monkeypatch.setattr(engine_vectorized, "_CHUNK_ENTRIES", 400)
    monkeypatch.setattr(
        BatchedVectorizedRoundEngine, "_SCRATCH_MIN_SAMPLERS", sharing_bound
    )


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


@pytest.mark.parametrize("failure", sorted(FAILURES))
@pytest.mark.parametrize("graph_name", ["regular", "multigraph", "gnp"])
@pytest.mark.parametrize("protocol_name", sorted(BLOCK_PROTOCOLS))
def test_blocked_single_run_matches_batched_row(
    monkeypatch, graphs, protocol_name, graph_name, failure
):
    graph = graphs[graph_name]
    factory = BLOCK_PROTOCOLS[protocol_name]
    config = SimulationConfig(engine="vectorized", **FAILURES[failure])
    # A single run is the engine's one-row case, so the tiny-block runs are
    # also held against a run drawn at the default bounds.
    reference = run_signature(
        run_broadcast(graph, factory(graph.node_count), seed=3, config=config)
    )
    _tiny_blocks(monkeypatch)
    assert_bit_identical(graph, factory, [3], **FAILURES[failure])
    tiny = run_broadcast(graph, factory(graph.node_count), seed=3, config=config)
    assert run_signature(tiny) == reference


@pytest.mark.parametrize("failure", sorted(FAILURES))
@pytest.mark.parametrize("graph_name", ["regular", "multigraph", "gnp"])
@pytest.mark.parametrize("protocol_name", sorted(BLOCK_PROTOCOLS))
def test_batched_rows_match_single_runs_in_shared_blocks(
    monkeypatch, graphs, protocol_name, graph_name, failure
):
    graph = graphs[graph_name]
    factory = BLOCK_PROTOCOLS[protocol_name]
    config = SimulationConfig(engine="vectorized", **FAILURES[failure])
    # Single runs do not depend on the bounds (the one-seed test above pins
    # that), so they run once, at the default bounds.
    singles = [
        run_signature(run_broadcast(graph, factory(graph.node_count), seed=seed, config=config))
        for seed in BATCH_SEEDS
    ]
    for bound in SHARING_BOUNDS:
        _shrink_shared_blocks(monkeypatch, bound)
        rows = BatchedVectorizedRoundEngine(
            graph, factory(graph.node_count), BATCH_SEEDS, config=config
        ).run()
        assert [run_signature(row) for row in rows] == singles, bound


def _block_rows(monkeypatch):
    """Record the piece rows of every block each batched round delivers."""
    deliver = BatchedVectorizedRoundEngine._deliver
    rounds = []

    def spy(engine, state, blocks, *args):
        blocks_rows = []
        rounds.append(blocks_rows)

        def watched():
            for block in blocks:
                blocks_rows.append([int(row) for row in block[3]])
                yield block

        return deliver(engine, state, watched(), *args)

    monkeypatch.setattr(BatchedVectorizedRoundEngine, "_deliver", spy)
    return rounds


def test_shared_block_bounds_reach_every_block_shape(monkeypatch, graphs):
    _shrink_shared_blocks(monkeypatch, SHARING_BOUNDS[1])
    rounds = _block_rows(monkeypatch)
    graph = graphs["gnp"]
    BatchedVectorizedRoundEngine(
        graph,
        BLOCK_PROTOCOLS["algorithm1"](graph.node_count),
        BATCH_SEEDS,
        config=SimulationConfig(engine="vectorized"),
    ).run()
    blocks = [rows for blocks_rows in rounds for rows in blocks_rows]
    # Several rows in one block, a row repeated within one block, and a
    # row whose channels span several blocks of one round.
    assert any(len(set(rows)) > 1 for rows in blocks)
    assert any(len(set(rows)) < len(rows) for rows in blocks)
    assert any(
        sum(row in rows for rows in blocks_rows) > 1
        for blocks_rows in rounds
        for row in range(len(BATCH_SEEDS))
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
        assert not state.informed.reshape(-1)[delivered].any(), round_index
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


@pytest.mark.parametrize("failure", ["reliable", "loss"])
@pytest.mark.parametrize("protocol_name", sorted(BLOCK_PROTOCOLS))
def test_batched_commits_only_fresh_receivers(
    monkeypatch, graphs, protocol_name, failure
):
    _shrink_shared_blocks(monkeypatch, SHARING_BOUNDS[1])
    commit = VectorState.commit_delivered
    committed = []

    def spy(state, delivered, round_index):
        assert not state.informed.reshape(-1)[delivered].any(), round_index
        committed.append(delivered.size)
        return commit(state, delivered, round_index)

    monkeypatch.setattr(VectorState, "commit_delivered", spy)
    graph = graphs["regular"]
    results = BatchedVectorizedRoundEngine(
        graph,
        BLOCK_PROTOCOLS[protocol_name](graph.node_count),
        BATCH_SEEDS,
        config=SimulationConfig(engine="vectorized", **FAILURES[failure]),
    ).run()
    assert all(result.success for result in results)
    assert len(committed) == max(result.rounds_executed for result in results)
    assert sum(committed) >= len(BATCH_SEEDS) * (graph.node_count - 1)
