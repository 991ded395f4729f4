"""Receiver-side rounds of the bulk engine.

When the side of a row that can still change is small, a static reliable
round evaluates only the calls that touch it (the candidates) and gets the
transmission counts by counting, while the row still draws every random
number the sender-side pipeline draws.  Nothing observable may move, so
these tests hold the path against the sender side (``_receiver_side``
off):

1. every protocol of ``test_engine_blocks``' ``BLOCK_PROTOCOLS`` (push-pull
   with three choices and Algorithms 1 and 2 bring k-distinct pull rounds)
   on a regular graph, a multigraph with self-loops and a G(n, p) graph
   with isolated and saturated nodes, single and with four seeds,
   ``stop_when_informed`` on and off, at the default and at tiny block and
   chunk bounds, with the path forced on for every eligible row-round and
   each side of a pull round in turn: equal results with per-round history
   and equal end states of every row's protocol and failure generators;
2. the same at the default rule on a graph large enough for it to fire,
   where a run mixes sender- and receiver-side rounds, and a 20-seed batch
   there still makes one block-body call and one commit per round;
3. with the path forced on, no commit ever receives an informed node;
4. lossy, channel-failure and churn runs never enter the path;
5. the graph's cached self-loop list and the quasirandom target hook's
   ``positions`` contract.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import engine_vectorized
from repro.core.config import SimulationConfig
from repro.core.engine_vectorized import BatchedVectorizedRoundEngine
from repro.core.node import VectorState
from repro.core.rng import RandomSource
from repro.failures.churn import UniformChurn
from repro.graphs.base import Graph
from repro.graphs.configuration_model import pairing_multigraph, random_regular_graph
from repro.graphs.families import gnp_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.quasirandom import QuasirandomPushProtocol

from test_engine_batch import run_signature
from test_engine_blocks import BATCH_SEEDS, BLOCK_PROTOCOLS, _tiny_blocks


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


def _run(graph, factory, seeds, stop=True, **config_kwargs):
    """Every row's signature and every generator's end state."""
    config = SimulationConfig(
        engine="vectorized", stop_when_informed=stop, **config_kwargs
    )
    engine = BatchedVectorizedRoundEngine(
        graph, factory(graph.node_count), seeds, config=config
    )
    results = engine.run()
    generators = (*engine._protocol_gens, *engine._failure_gens)
    return (
        [run_signature(result) for result in results],
        [generator.bit_generator.state for generator in generators],
    )


def _count_entries(monkeypatch):
    """Count the receiver-side row-rounds, and the pull rounds among them."""
    pick = BatchedVectorizedRoundEngine._receiver_positions
    entered = {"rows": 0, "pull": 0}

    def spy(engine, *args):
        positions = pick(engine, *args)
        if positions is not None:
            entered["rows"] += 1
            entered["pull"] += args[-2] is not None
        return positions

    monkeypatch.setattr(BatchedVectorizedRoundEngine, "_receiver_positions", spy)
    return entered


def _force(monkeypatch, answering):
    """Send every eligible row-round receiver-side, pull rounds from one side."""
    monkeypatch.setattr(engine_vectorized, "_RECEIVER_MIN_CHANNELS", 0)
    monkeypatch.setattr(engine_vectorized, "_RECEIVER_RATIO", 0)
    monkeypatch.setattr(
        BatchedVectorizedRoundEngine,
        "_pull_side_answers",
        staticmethod(lambda informed, uninformed: answering),
    )
    return _count_entries(monkeypatch)


@pytest.mark.parametrize("graph_name", ["regular", "multigraph", "gnp"])
@pytest.mark.parametrize("protocol_name", sorted(BLOCK_PROTOCOLS))
def test_forced_receiver_side_matches_sender_side(
    monkeypatch, graphs, protocol_name, graph_name
):
    graph = graphs[graph_name]
    factory = BLOCK_PROTOCOLS[protocol_name]
    for seeds, stop in itertools.product(([3], BATCH_SEEDS), (True, False)):
        with monkeypatch.context() as patch:
            patch.setattr(BatchedVectorizedRoundEngine, "_receiver_side", False)
            reference = _run(graph, factory, seeds, stop)
        for tiny, answering in itertools.product((False, True), (True, False)):
            with monkeypatch.context() as patch:
                entered = _force(patch, answering)
                if tiny:
                    _tiny_blocks(patch)
                case = (len(seeds), stop, tiny, answering)
                assert _run(graph, factory, seeds, stop) == reference, case
                assert entered["rows"], case


@pytest.fixture(scope="module")
def large_graph():
    """Large enough for the default rule: its rows reach 2¹² channels."""
    return random_regular_graph(8192, 8, RandomSource(seed=7), strategy="repair")


@pytest.mark.parametrize("protocol_name", sorted(BLOCK_PROTOCOLS))
def test_default_rule_mixes_sides_without_moving_a_draw(
    monkeypatch, large_graph, protocol_name
):
    graph = large_graph
    factory = BLOCK_PROTOCOLS[protocol_name]
    for seeds in ([3], [3, 4]):
        with monkeypatch.context() as patch:
            patch.setattr(BatchedVectorizedRoundEngine, "_receiver_side", False)
            reference = _run(graph, factory, seeds)
        with monkeypatch.context() as patch:
            entered = _count_entries(patch)
            assert _run(graph, factory, seeds) == reference
        rounds = sum(row[4] for row in reference[0])
        # The last rounds of every row run receiver-side, its first ones not.
        assert 0 < entered["rows"] < rounds, seeds


def test_default_rule_takes_both_sides_of_pull_rounds(monkeypatch, large_graph):
    answers = BatchedVectorizedRoundEngine._pull_side_answers
    sides = []

    def spy(informed, uninformed):
        sides.append(answers(informed, uninformed))
        return sides[-1]

    monkeypatch.setattr(
        BatchedVectorizedRoundEngine, "_pull_side_answers", staticmethod(spy)
    )
    _run(large_graph, BLOCK_PROTOCOLS["push-pull"], [3])
    assert True in sides and False in sides


@pytest.mark.parametrize(
    "protocol_name, mixed_round",
    [("push", True), ("push-pull", True), ("algorithm1", False)],
)
def test_batch_rows_take_both_sides_through_one_deliver(
    monkeypatch, large_graph, protocol_name, mixed_round
):
    # Twenty rows at the default rule take both sides over the run (push
    # and push-pull also within one round), and every round that draws
    # channels still goes through one block body call and one commit.
    graph = large_graph
    factory = BLOCK_PROTOCOLS[protocol_name]
    seeds = list(range(20))
    with monkeypatch.context() as patch:
        patch.setattr(BatchedVectorizedRoundEngine, "_receiver_side", False)
        reference = _run(graph, factory, seeds)
    engine_class = BatchedVectorizedRoundEngine
    run_round, deliver = engine_class._run_round, engine_class._deliver
    pick, commit = engine_class._receiver_positions, VectorState.commit_delivered
    rounds = []

    def round_spy(engine, round_index, state, running):
        protocol = engine.protocol
        draws = protocol.vector_fanout(round_index) > 0 and (
            protocol.push_round(round_index) or protocol.pull_round(round_index)
        )
        rounds.append({"draws": draws, "deliver": 0, "commit": 0, "sides": set()})
        return run_round(engine, round_index, state, running)

    def deliver_spy(engine, *args):
        rounds[-1]["deliver"] += 1
        return deliver(engine, *args)

    def pick_spy(engine, *args):
        positions = pick(engine, *args)
        rounds[-1]["sides"].add(positions is not None)
        return positions

    def commit_spy(state, *args):
        rounds[-1]["commit"] += 1
        return commit(state, *args)

    with monkeypatch.context() as patch:
        patch.setattr(engine_class, "_run_round", round_spy)
        patch.setattr(engine_class, "_deliver", deliver_spy)
        patch.setattr(engine_class, "_receiver_positions", pick_spy)
        patch.setattr(VectorState, "commit_delivered", commit_spy)
        assert _run(graph, factory, seeds) == reference
    assert rounds
    for round_index, seen in enumerate(rounds, start=1):
        assert seen["commit"] == 1, round_index
        assert seen["deliver"] == int(seen["draws"]), round_index
    assert set().union(*(seen["sides"] for seen in rounds)) == {True, False}
    if mixed_round:
        assert any(seen["sides"] == {True, False} for seen in rounds)


def _watch_commits(monkeypatch):
    commit = VectorState.commit_delivered
    committed = []

    def spy(state, delivered, round_index):
        assert not state.informed.reshape(-1)[delivered].any(), round_index
        committed.append(delivered.size)
        return commit(state, delivered, round_index)

    monkeypatch.setattr(VectorState, "commit_delivered", spy)
    return committed


@pytest.mark.parametrize("answering", [True, False])
@pytest.mark.parametrize("graph_name", ["multigraph", "gnp"])
@pytest.mark.parametrize("protocol_name", sorted(BLOCK_PROTOCOLS))
def test_forced_receiver_side_commits_only_fresh_receivers(
    monkeypatch, graphs, protocol_name, graph_name, answering
):
    graph = graphs[graph_name]
    entered = _force(monkeypatch, answering)
    committed = _watch_commits(monkeypatch)
    signatures, _ = _run(graph, BLOCK_PROTOCOLS[protocol_name], BATCH_SEEDS)
    assert entered["rows"]
    assert len(committed) == max(signature[4] for signature in signatures)
    assert sum(committed) >= sum(signature[10] - 1 for signature in signatures)


@pytest.mark.parametrize(
    "failure",
    [
        {"message_loss_probability": 0.2},
        {"channel_failure_probability": 0.1},
    ],
)
@pytest.mark.parametrize("protocol_name", ["push", "push-pull", "algorithm1"])
def test_lossy_runs_stay_sender_side(monkeypatch, graphs, protocol_name, failure):
    entered = _force(monkeypatch, False)
    graph = graphs["regular"]
    _run(graph, BLOCK_PROTOCOLS[protocol_name], BATCH_SEEDS, **failure)
    assert entered["rows"] == 0
    _run(graph, BLOCK_PROTOCOLS[protocol_name], BATCH_SEEDS)
    assert entered["rows"] > 0


@pytest.mark.parametrize("protocol_name", ["push", "push-pull", "algorithm1"])
def test_churn_runs_stay_sender_side(monkeypatch, graphs, protocol_name):
    entered = _force(monkeypatch, False)
    graph = graphs["regular"]
    engine = BatchedVectorizedRoundEngine(
        graph,
        BLOCK_PROTOCOLS[protocol_name](graph.node_count),
        [3],
        config=SimulationConfig(engine="vectorized"),
        churn_model=UniformChurn(leave_rate=0.02, join_rate=0.02, target_degree=8),
    )
    engine.run()
    assert entered["rows"] == 0


def _loop_nodes_by_scan(graph: Graph) -> list:
    indptr, indices = graph.csr()
    return [
        node
        for node in range(graph.node_count)
        if node in indices[indptr[node] : indptr[node + 1]].tolist()
    ]


def test_self_loop_nodes_are_cached_with_the_csr(graphs, monkeypatch):
    monkeypatch.setattr(Graph, "_STATS_BLOCK_NODES", 7)
    multigraph = pairing_multigraph(256, 6, RandomSource(seed=9))
    loops = multigraph.self_loop_nodes()
    assert loops.tolist() == _loop_nodes_by_scan(multigraph) != []
    assert loops.dtype == multigraph.csr()[1].dtype
    assert multigraph.self_loop_nodes() is loops
    assert graphs["regular"].self_loop_nodes().size == 0
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert graph.self_loop_nodes().tolist() == []
    graph.add_edge(2, 2)
    assert graph.self_loop_nodes().tolist() == [2]


def test_quasirandom_positions_advance_every_cursor(graphs):
    # The hook is driven the way the engine drives it: index tracking on,
    # the informed pool (nodes with a neighbour) as samplers, one commit per
    # round, so each round's fresh starts are the last commit's nodes.
    graph = graphs["multigraph"]
    indptr, indices = graph.csr()
    degrees = np.diff(indptr)
    n = graph.node_count
    outcomes = []
    for ask in (False, True):
        protocol = QuasirandomPushProtocol(n_estimate=n)
        generator = RandomSource(seed=11).generator
        state = VectorState(n=n, source=0)
        state.enable_index_tracking()
        rounds = []
        for round_index in (1, 2, 3):
            samplers = state.informed_flat
            samplers = samplers[degrees[samplers] > 0]
            positions = None
            if ask:
                positions = np.unique(np.minimum([0, 5, 6, samplers.size - 1], samplers.size - 1))
            callees = protocol.vector_call_targets(
                round_index, state, samplers, generator, indptr, indices, degrees,
                positions=positions,
            )
            rounds.append((positions, callees.copy()))
            delivered = np.arange(round_index, n, 4 + round_index, dtype=state.index_dtype)
            state.commit_delivered(delivered, round_index)
        outcomes.append(
            (rounds, protocol._pointer_table.copy(), generator.bit_generator.state)
        )
    (whole, table, drawn), (picked, picked_table, picked_drawn) = outcomes
    assert [callees[positions].tolist() for (_, callees), (positions, _) in zip(whole, picked)] == [
        callees.tolist() for _, callees in picked
    ]
    assert np.array_equal(table, picked_table)
    assert drawn == picked_drawn


def _advancing_cursor_targets(table, samplers, generator, indptr, indices, degrees):
    """The hook the closed form replaced: a cursor per node (-1 until its
    first call) that each call reads and advances by one."""
    sampler_degrees = degrees[samplers]
    pointers = table[samplers]
    fresh = pointers < 0
    if fresh.any():
        pointers[fresh] = generator.integers(0, sampler_degrees[fresh])
    table[samplers] = pointers + 1
    return indices[indptr[samplers] + pointers % sampler_degrees]


@pytest.mark.parametrize("seeds", [[11], [11, 12, 13]], ids=["single", "batch"])
@pytest.mark.parametrize("graph_name", ["multigraph", "gnp"])
def test_quasirandom_closed_form_matches_advancing_cursors(graphs, graph_name, seeds):
    # Driven as the engine drives it: each round, every row with a sampler
    # asks once with its informed pool minus isolated nodes, and the row's
    # callees are committed.  The closed form must call whom the advancing
    # cursors call and draw the same starts.
    graph = graphs[graph_name]
    indptr, indices = graph.csr()
    degrees = np.diff(indptr)
    n = graph.node_count
    protocol = QuasirandomPushProtocol(n_estimate=n)
    state = VectorState(n=n, source=0, batch=len(seeds))
    state.enable_index_tracking()
    closed = [RandomSource(seed=seed).generator for seed in seeds]
    advancing = [RandomSource(seed=seed).generator for seed in seeds]
    cursors = np.full((len(seeds), n), -1, dtype=np.int64)
    for round_index in range(1, 15):
        bounds = VectorState.row_bounds(state.informed_flat, n, state.batch).tolist()
        delivered = []
        for row in range(len(seeds)):
            samplers = state.informed_flat[bounds[row] : bounds[row + 1]] - row * n
            samplers = samplers[degrees[samplers] > 0]
            if not samplers.size:
                continue
            callees = protocol.vector_call_targets(
                round_index, state, samplers, closed[row], indptr, indices, degrees,
                row=row,
            )
            expected = _advancing_cursor_targets(
                cursors[row], samplers, advancing[row], indptr, indices, degrees
            )
            assert callees.tolist() == expected.tolist(), (round_index, row)
            delivered.append(callees + row * n)
        if delivered:
            state.commit_delivered(
                np.concatenate(delivered).astype(state.index_dtype), round_index
            )
        else:
            state.commit_delivered(np.empty(0, dtype=state.index_dtype), round_index)
    assert state.informed_count.min() > 1
    for mine, theirs in zip(closed, advancing):
        assert mine.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("protocol_name", ["algorithm1", "push-pull-3"])
def test_forced_receiver_side_matches_on_rows_wider_than_integer_keys(
    monkeypatch, protocol_name
):
    # A hub of degree 2100 makes the top-k key rows wider than 2¹¹, where
    # the draw argsorts floats instead of sorting packed integer keys.
    leaves = np.arange(1, 2101)
    edges = np.concatenate([
        np.column_stack([np.zeros_like(leaves), leaves]),
        np.column_stack([leaves, np.roll(leaves, 1)]),
    ])
    graph = Graph.from_edge_array(2101, edges)
    factory = BLOCK_PROTOCOLS[protocol_name]
    for stop in (True, False):
        with monkeypatch.context() as patch:
            patch.setattr(BatchedVectorizedRoundEngine, "_receiver_side", False)
            reference = _run(graph, factory, [3, 4], stop)
        for answering in (True, False):
            with monkeypatch.context() as patch:
                entered = _force(patch, answering)
                assert _run(graph, factory, [3, 4], stop) == reference, answering
                assert entered["rows"]


def test_algorithm1_receiver_side_pull_round_is_k_distinct(monkeypatch, graphs):
    # Algorithm 1's Phase-3 round pulls over four distinct choices: the
    # forced path must reach it from both sides.
    protocol = Algorithm1(n_estimate=512)
    phase3 = [
        round_index
        for round_index in range(1, protocol.horizon() + 1)
        if protocol.pull_round(round_index)
    ]
    assert phase3 and protocol.vector_fanout(phase3[0]) == 4
    for answering in (True, False):
        with monkeypatch.context() as patch:
            entered = _force(patch, answering)
            _run(graphs["regular"], BLOCK_PROTOCOLS["algorithm1"], [3], stop=False)
            assert entered["pull"] == len(phase3)
