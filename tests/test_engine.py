"""Unit tests for the round engine.

These tests pin down the *semantics* of the simulator on tiny graphs where
every quantity can be computed by hand: delivery timing, transmission
accounting, early stopping, and failure injection.
"""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.engine import RoundEngine, run_broadcast
from repro.core.errors import SimulationError
from repro.core.node import NodeState
from repro.failures.churn import UniformChurn
from repro.failures.message_loss import IndependentLoss
from repro.graphs.base import Graph
from repro.graphs.families import complete_graph, ring_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.base import BroadcastProtocol
from repro.protocols.push import PushProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.pull import PullProtocol


class AlwaysPushEveryone(BroadcastProtocol):
    """Test double: every node calls every neighbour; informed nodes push."""

    name = "test-flood"

    def __init__(self, horizon: int = 10, fanout: int = 100) -> None:
        self._horizon = horizon
        self._fanout = fanout

    def horizon(self) -> int:
        return self._horizon

    def push_round(self, round_index: int) -> bool:
        return True

    def pull_round(self, round_index: int) -> bool:
        return False

    def fanout(self, state: NodeState, round_index: int) -> int:
        return self._fanout

    def wants_push(self, state: NodeState, round_index: int) -> bool:
        return state.informed

    def wants_pull(self, state: NodeState, round_index: int) -> bool:
        return False


class TestBasicSemantics:
    def test_two_node_push(self):
        graph = Graph.from_edges(2, [(0, 1)])
        result = run_broadcast(graph, AlwaysPushEveryone(), seed=1)
        assert result.success
        assert result.rounds_to_completion == 1
        assert result.total_push_transmissions == 1
        assert result.final_informed == 2

    def test_message_travels_one_hop_per_round_on_a_path(self, path_graph):
        # Flooding along a path: the message needs exactly 4 rounds to reach
        # node 4 from node 0 because deliveries commit at end of round.
        result = run_broadcast(path_graph, AlwaysPushEveryone(), source=0, seed=1)
        assert result.success
        assert result.rounds_to_completion == 4

    def test_informed_curve_is_monotone(self, small_regular_graph):
        result = run_broadcast(
            small_regular_graph, PushProtocol(n_estimate=64), seed=3
        )
        curve = result.informed_curve()
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == 64

    def test_flood_transmission_count_on_complete_graph(self):
        # Round 1: only the source is informed and pushes to all n-1 others.
        graph = complete_graph(5)
        config = SimulationConfig(max_rounds=1, stop_when_informed=False)
        result = run_broadcast(graph, AlwaysPushEveryone(), seed=1, config=config)
        assert result.total_push_transmissions == 4
        assert result.final_informed == 5

    def test_unknown_source_rejected(self, small_regular_graph):
        with pytest.raises(SimulationError):
            run_broadcast(small_regular_graph, PushProtocol(n_estimate=64), source=999)

    def test_non_zero_source(self, small_regular_graph):
        result = run_broadcast(
            small_regular_graph, PushProtocol(n_estimate=64), source=17, seed=2
        )
        assert result.source == 17
        assert result.success


class TestStoppingRules:
    def test_early_stop_vs_full_schedule(self, small_regular_graph):
        def protocol_factory():
            return PushProtocol(n_estimate=64)

        early = run_broadcast(small_regular_graph, protocol_factory(), seed=5)
        full = run_broadcast(
            small_regular_graph,
            protocol_factory(),
            seed=5,
            config=SimulationConfig(stop_when_informed=False),
        )
        assert early.rounds_executed <= full.rounds_executed
        assert full.rounds_executed == protocol_factory().horizon()
        assert early.rounds_to_completion == full.rounds_to_completion

    def test_max_rounds_caps_execution(self, small_regular_graph):
        result = run_broadcast(
            small_regular_graph,
            PushProtocol(n_estimate=64),
            seed=5,
            config=SimulationConfig(max_rounds=2),
        )
        assert result.rounds_executed == 2
        assert not result.success

    def test_unsuccessful_run_reports_partial_progress(self):
        ring = ring_graph(64)
        result = run_broadcast(
            ring,
            PushProtocol(n_estimate=64, horizon_override=3),
            seed=5,
        )
        assert not result.success
        assert result.rounds_to_completion is None
        assert 1 < result.final_informed < 64

    def test_history_collection_can_be_disabled(self, small_regular_graph):
        result = run_broadcast(
            small_regular_graph,
            PushProtocol(n_estimate=64),
            seed=5,
            config=SimulationConfig(collect_round_history=False),
        )
        assert result.history == []
        assert result.total_transmissions > 0


class TestDeterminismAndSeeding:
    def test_same_seed_same_result(self, small_regular_graph):
        a = run_broadcast(small_regular_graph, PushProtocol(n_estimate=64), seed=7)
        b = run_broadcast(small_regular_graph, PushProtocol(n_estimate=64), seed=7)
        assert a.rounds_to_completion == b.rounds_to_completion
        assert a.total_transmissions == b.total_transmissions
        assert a.informed_curve() == b.informed_curve()

    def test_different_seed_usually_differs(self, small_regular_graph):
        a = run_broadcast(small_regular_graph, PushProtocol(n_estimate=64), seed=7)
        b = run_broadcast(small_regular_graph, PushProtocol(n_estimate=64), seed=8)
        assert (
            a.informed_curve() != b.informed_curve()
            or a.total_transmissions != b.total_transmissions
        )


class TestFailureInjection:
    def test_total_loss_blocks_broadcast(self, small_regular_graph):
        result = run_broadcast(
            small_regular_graph,
            PushProtocol(n_estimate=64),
            seed=9,
            failure_model=IndependentLoss(transmission_loss_probability=1.0),
        )
        assert not result.success
        assert result.final_informed == 1
        assert result.total_lost_transmissions == result.total_transmissions > 0

    def test_partial_loss_slows_but_rarely_stops(self, medium_regular_graph):
        clean = run_broadcast(
            medium_regular_graph, PushProtocol(n_estimate=256), seed=9
        )
        lossy = run_broadcast(
            medium_regular_graph,
            PushProtocol(n_estimate=256),
            seed=9,
            failure_model=IndependentLoss(transmission_loss_probability=0.3),
        )
        assert lossy.success
        assert lossy.rounds_to_completion >= clean.rounds_to_completion
        assert lossy.total_lost_transmissions > 0

    def test_channel_failures_prevent_any_transmission(self, small_regular_graph):
        result = run_broadcast(
            small_regular_graph,
            PushProtocol(n_estimate=64),
            seed=9,
            failure_model=IndependentLoss(channel_failure_probability=1.0),
        )
        assert not result.success
        assert result.total_transmissions == 0

    def test_config_probabilities_build_failure_model(self, small_regular_graph):
        engine = RoundEngine(
            graph=small_regular_graph,
            protocol=PushProtocol(n_estimate=64),
            config=SimulationConfig(message_loss_probability=0.5),
            seed=1,
        )
        assert isinstance(engine.failure_model, IndependentLoss)


class TestPullAndCombined:
    def test_pull_completes_on_complete_graph(self):
        graph = complete_graph(32)
        result = run_broadcast(graph, PullProtocol(n_estimate=32), seed=4)
        assert result.success
        assert result.total_pull_transmissions > 0
        assert result.total_push_transmissions == 0

    def test_push_pull_counts_both_directions(self, medium_regular_graph):
        result = run_broadcast(
            medium_regular_graph, PushPullProtocol(n_estimate=256), seed=4
        )
        assert result.success
        assert result.total_pull_transmissions > 0
        assert result.total_push_transmissions > 0

    def test_algorithm1_phase_accounting(self, medium_regular_graph):
        result = run_broadcast(
            medium_regular_graph,
            Algorithm1(n_estimate=256),
            seed=4,
            config=SimulationConfig(stop_when_informed=False),
        )
        phases = result.transmissions_by_phase()
        assert phases.get("phase1", 0) > 0
        assert phases.get("phase2", 0) > 0
        assert phases.get("phase3", 0) > 0
        assert sum(phases.values()) == result.total_transmissions

    def test_channels_opened_reflects_full_model(self, medium_regular_graph):
        # Every node opens min(fanout, degree) channels per round regardless of
        # whether it transmits; with fanout 1 on a 256-node graph this is
        # exactly 256 channels per executed round.
        result = run_broadcast(
            medium_regular_graph, PushProtocol(n_estimate=256), seed=4
        )
        assert result.total_channels_opened == 256 * result.rounds_executed


class TestChurnIntegration:
    def test_broadcast_survives_mild_churn(self, medium_regular_graph):
        churn = UniformChurn(leave_rate=0.01, join_rate=0.01, target_degree=8)
        engine = RoundEngine(
            graph=medium_regular_graph.copy(),
            protocol=Algorithm1(n_estimate=256),
            seed=3,
            churn_model=churn,
        )
        result = engine.run(source=0)
        final_nodes = result.metadata["final_node_count"]
        assert result.final_informed >= 0.95 * final_nodes

    def test_metadata_records_models(self, small_regular_graph):
        result = run_broadcast(
            small_regular_graph, PushProtocol(n_estimate=64), seed=1
        )
        assert result.metadata["failure_model"]["model"] == "ReliableDelivery"
        assert result.metadata["churn_model"]["model"] == "NoChurn"
        assert result.metadata["protocol"]["name"] == "push"
