"""Every round, the bulk engine's sender pools name the sets their references do.

In a push-only round the bulk engine reads one input, the sorted index pool
of pushers (``vector_push_samplers``); the boolean mask ``vector_wants_push``
stays an independent reference for it.  The channel charge reads the pool of
calling nodes (``vector_caller_pool``).  These tests run every vectorizable
registry protocol, plus Algorithm 1 with a zero-length Phase 3, and check at
every call that

1. the push pool equals ``np.flatnonzero(vector_wants_push(...).reshape(-1))``;
2. a caller pool holds exactly the live nodes whose scalar ``fanout`` is
   positive, and ``None`` only when every live node's is.

The runs cover a simple regular graph, a G(n, p) graph with isolated nodes,
a three-seed batch on each, and one seed under churn for the protocols with
dynamic membership; every run goes to the horizon
(``stop_when_informed=False``).  Protocols are address-oblivious, so the
scalar fanout is evaluated once per distinct informed round.  A last test
forces the large-state pool, a buffer each commit appends to in place, and
checks it the same way across row compaction and churn eviction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.engine_vectorized import BatchedVectorizedRoundEngine
from repro.core.node import NodeState, VectorState
from repro.core.rng import RandomSource
from repro.failures.churn import UniformChurn
from repro.graphs.configuration_model import random_regular_graph
from repro.graphs.families import gnp_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.registry import available_protocols, build_protocol
from repro.protocols.schedule import PhaseSchedule

from test_engine_batch import run_signature

N = 512

#: Every registry protocol the bulk engine runs, by registry id, plus
#: Algorithm 1 with Phase 3 of zero length: Phase 2 runs straight into
#: Phase 4, whose first pushers are Phase 2's last commits.
PROTOCOLS = {
    **{
        name: (lambda n, name=name: build_protocol(name, n))
        for name in available_protocols()
        if build_protocol(name, N).supports_vectorized
    },
    "algorithm1-no-phase3": lambda n: Algorithm1(
        n_estimate=n, schedule_override=PhaseSchedule(3, 6, 6, 12)
    ),
}

#: Seeds of each run shape: one row, or a three-row batch.
SHAPES = {"single": [7], "batch": [7, 8, 9]}


@pytest.fixture(scope="module")
def graphs():
    gnp = gnp_graph(400, 0.012, RandomSource(seed=5))
    degrees = np.diff(gnp.csr()[0])
    assert (degrees == 0).any() and degrees[0] > 0
    return {
        "regular": random_regular_graph(N, 8, RandomSource(seed=42), strategy="repair"),
        "gnp": gnp,
    }


def _live(state) -> np.ndarray:
    """The live nodes of ``state`` as a flat mask."""
    try:
        return np.broadcast_to(state.alive, state.shape).reshape(-1)
    except RuntimeError:  # no churn: every node is live
        return np.ones(state.informed.size, dtype=bool)


def _positive_fanout(protocol, round_index: int, state) -> np.ndarray:
    """Flat indices of the live nodes whose scalar fanout is positive."""
    rounds = state.informed_round.reshape(-1)
    calling = [
        value
        for value in np.unique(rounds).tolist()
        if protocol.fanout(
            NodeState(
                node_id=0,
                informed=value >= 0,
                informed_round=value if value >= 0 else None,
            ),
            round_index,
        )
        > 0
    ]
    return np.flatnonzero(np.isin(rounds, calling) & _live(state))


def _checked_run(graph, protocol, seeds, churn_model=None, stop=False):
    """Run ``protocol`` with both pool hooks checked at every call.

    Returns ``(results, push checks, caller checks)``.
    """
    counts = {"push": 0, "callers": 0}
    push_samplers = protocol.vector_push_samplers
    caller_pool = protocol.vector_caller_pool

    def checked_push_samplers(round_index, state):
        pool = push_samplers(round_index, state)
        mask = protocol.vector_wants_push(round_index, state)
        np.testing.assert_array_equal(
            pool, np.flatnonzero(mask.reshape(-1)), err_msg=f"push pool, round {round_index}"
        )
        counts["push"] += 1
        return pool

    def checked_caller_pool(round_index, state):
        pool = caller_pool(round_index, state)
        calling = _positive_fanout(protocol, round_index, state)
        if pool is None:
            assert calling.size == np.count_nonzero(_live(state)), (
                f"round {round_index}: no caller pool, but some live node stays silent"
            )
        else:
            np.testing.assert_array_equal(
                pool, calling, err_msg=f"caller pool, round {round_index}"
            )
        counts["callers"] += 1
        return pool

    protocol.vector_push_samplers = checked_push_samplers
    protocol.vector_caller_pool = checked_caller_pool
    engine = BatchedVectorizedRoundEngine(
        graph,
        protocol,
        seeds,
        config=SimulationConfig(stop_when_informed=stop),
        churn_model=churn_model,
    )
    return engine.run(), counts["push"], counts["callers"]


def _push_only_rounds(protocol) -> int:
    return sum(
        protocol.push_round(r) and not protocol.pull_round(r)
        for r in range(1, protocol.horizon() + 1)
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("graph_name", ["regular", "gnp"])
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_pools_match_their_references(graphs, protocol_name, graph_name, shape):
    graph = graphs[graph_name]
    protocol = PROTOCOLS[protocol_name](graph.node_count)
    results, push_checks, caller_checks = _checked_run(graph, protocol, SHAPES[shape])
    rounds = results[0].rounds_executed
    assert rounds == protocol.horizon()
    assert caller_checks == rounds
    assert push_checks == _push_only_rounds(protocol)


@pytest.mark.parametrize(
    "protocol_name",
    sorted(
        name
        for name, factory in PROTOCOLS.items()
        if factory(N).supports_dynamic_membership
    ),
)
def test_pools_match_their_references_under_churn(graphs, protocol_name):
    protocol = PROTOCOLS[protocol_name](N)
    churn = UniformChurn(leave_rate=0.02, join_rate=0.02, target_degree=8)
    (result,), push_checks, caller_checks = _checked_run(
        graphs["regular"], protocol, [7], churn_model=churn
    )
    assert result.metadata["churn"]["departures"] > 0
    assert result.metadata["churn"]["arrivals"] > 0
    assert caller_checks == result.rounds_executed == protocol.horizon()
    assert push_checks == _push_only_rounds(protocol)


@pytest.mark.parametrize("protocol_name", ["push", "quasirandom-push", "algorithm1"])
def test_in_place_pool_across_compaction_and_eviction(monkeypatch, graphs, protocol_name):
    """``informed_flat`` lives in a buffer each commit appends to in place;
    row compaction replaces that buffer, and churn eviction removes the
    departed ids inside it, so ``informed_flat`` stays a prefix of the same
    buffer.  Every pool is checked against its mask each round
    (``_checked_run``), and the results must not move when the buffer is
    watched."""
    graph = graphs["regular"]
    factory = PROTOCOLS[protocol_name]
    runs = [dict(seeds=[7, 8, 9], stop=True)]
    if factory(N).supports_dynamic_membership:
        runs.append(dict(seeds=[7], churn=True))

    def run_all():
        return [
            [
                run_signature(result)
                for result in _checked_run(
                    graph, factory(N), run["seeds"], stop=run.get("stop", False),
                    churn_model=UniformChurn(
                        leave_rate=0.02, join_rate=0.02, target_degree=8
                    ) if run.get("churn") else None,
                )[0]
            ]
            for run in runs
        ]

    reference = run_all()
    seen = {"in_buffer": 0, "compact_rows": 0, "remove_nodes": 0}
    record = VectorState._record_newly

    def recording(state, newly):
        record(state, newly)
        if state._pool is not None:
            assert state.informed_flat.base is state._pool
            seen["in_buffer"] += 1

    monkeypatch.setattr(VectorState, "_record_newly", recording)
    compact_rows = VectorState.compact_rows

    def replacing(state, *args):
        result = compact_rows(state, *args)
        assert state._pool is None
        seen["compact_rows"] += 1
        return result

    remove_nodes = VectorState.remove_nodes

    def evicting(state, *args):
        pool = state._pool
        result = remove_nodes(state, *args)
        assert state._pool is pool
        if pool is not None:
            assert state.informed_flat.base is pool
            seen["remove_nodes"] += 1
        return result

    monkeypatch.setattr(VectorState, "compact_rows", replacing)
    monkeypatch.setattr(VectorState, "remove_nodes", evicting)
    assert run_all() == reference
    assert seen["in_buffer"] > 0 and seen["compact_rows"] > 0
    assert seen["remove_nodes"] > 0 or len(runs) == 1


def test_zero_length_phase3_pushes_last_phase2_commits(graphs):
    """Phase 4's first pushers are the nodes Phase 2's last round informed."""
    protocol = PROTOCOLS["algorithm1-no-phase3"](N)
    first_phase4 = protocol.schedule.phase2_end + 1
    seen = {}
    pool_hook = protocol.vector_push_samplers

    def recording(round_index, state):
        pool = pool_hook(round_index, state)
        if round_index == first_phase4:
            seen["pool"] = pool.copy()
            seen["newly"] = np.flatnonzero(
                state.informed_round.reshape(-1) == first_phase4 - 1
            )
        return pool

    protocol.vector_push_samplers = recording
    BatchedVectorizedRoundEngine(
        graphs["regular"], protocol, [7],
        config=SimulationConfig(stop_when_informed=False),
    ).run()
    assert seen["newly"].size > 0
    np.testing.assert_array_equal(seen["pool"], seen["newly"])
