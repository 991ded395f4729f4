"""Cross-engine parity suite: scalar vs vectorized round engines.

The vectorized engine promises the scalar engine's *aggregate* semantics —
success, informed-curve shape, transmission and channel accounting identities
— without promising identical per-call draw order.  These tests therefore
check three layers:

1. **dispatch** — ``engine="auto"`` picks the bulk engine exactly when the
   documented preconditions hold, and ``engine="vectorized"`` fails loudly
   otherwise;
2. **exact invariants** — identities that must hold run-for-run on both
   engines (channel accounting, conservation, monotonicity, phase sums);
3. **statistical parity** — distributions over seeds (completion rounds,
   transmissions) agree between the engines within tight tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast
from repro.core.engine_vectorized import (
    BatchedVectorizedRoundEngine,
    vectorization_unsupported_reason,
)
from repro.core.errors import SimulationError
from repro.core.node import VectorState
from repro.core.rng import RandomSource
from repro.failures.churn import UniformChurn
from repro.failures.message_loss import IndependentLoss
from repro.graphs.base import Graph
from repro.graphs.configuration_model import pairing_multigraph, random_regular_graph
from repro.graphs.families import complete_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.algorithm2 import Algorithm2
from repro.protocols.pull import PullProtocol
from repro.protocols.push import PushProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.quasirandom import QuasirandomPushProtocol
from repro.protocols.sequential import SequentialAlgorithm1

PROTOCOL_FACTORIES = {
    "push": lambda n: PushProtocol(n_estimate=n),
    "pull": lambda n: PullProtocol(n_estimate=n),
    "push-pull": lambda n: PushPullProtocol(n_estimate=n),
    "algorithm1": lambda n: Algorithm1(n_estimate=n),
    "algorithm2": lambda n: Algorithm2(n_estimate=n),
    "quasirandom": lambda n: QuasirandomPushProtocol(n_estimate=n),
}

PROTOCOL_FANOUTS = {
    "push": 1,
    "pull": 1,
    "push-pull": 1,
    "algorithm1": 4,
    "algorithm2": 4,
    "quasirandom": 1,
}

#: Protocols whose uninformed nodes open no channels (vector_caller_pool),
#: so the per-round channel charge tracks the informed count instead of the
#: full phone-call constant.
MASKED_CALLER_PROTOCOLS = {"quasirandom"}


@pytest.fixture(scope="module")
def regular_graph():
    return random_regular_graph(256, 8, RandomSource(seed=42), strategy="repair")


@pytest.fixture(scope="module")
def parity_complete_graph():
    return complete_graph(64)


def run_with_engine(graph, protocol, engine, seed, **config_kwargs):
    config = SimulationConfig(engine=engine, **config_kwargs)
    return run_broadcast(graph, protocol, seed=seed, config=config)


# ---------------------------------------------------------------------------
# Dispatch rules
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_auto_uses_vectorized_for_supported_protocol(self, regular_graph):
        result = run_broadcast(regular_graph, PushProtocol(n_estimate=256), seed=1)
        assert result.metadata["engine"] == "vectorized"

    def test_scalar_engine_can_be_forced(self, regular_graph):
        result = run_with_engine(
            regular_graph, PushProtocol(n_estimate=256), "scalar", seed=1
        )
        assert result.metadata["engine"] == "scalar"

    def test_churn_with_opted_in_model_dispatches_to_vectorized(self, regular_graph):
        result = run_broadcast(
            regular_graph.copy(),
            PushProtocol(n_estimate=256),
            seed=1,
            churn_model=UniformChurn(leave_rate=0.01, join_rate=0.01, target_degree=8),
        )
        assert result.metadata["engine"] == "vectorized"
        assert result.metadata["churn"]["departures"] >= 0

    def test_churn_without_dynamic_protocol_falls_back_to_scalar(self, regular_graph):
        result = run_broadcast(
            regular_graph.copy(),
            QuasirandomPushProtocol(n_estimate=256),
            seed=1,
            churn_model=UniformChurn(leave_rate=0.01, join_rate=0.01, target_degree=8),
        )
        assert result.metadata["engine"] == "scalar"

    def test_unsupported_protocol_falls_back_to_scalar(self, regular_graph):
        result = run_broadcast(
            regular_graph, SequentialAlgorithm1(n_estimate=256), seed=1
        )
        assert result.metadata["engine"] == "scalar"

    def test_quasirandom_now_dispatches_to_vectorized(self, regular_graph):
        result = run_broadcast(
            regular_graph, QuasirandomPushProtocol(n_estimate=256), seed=1
        )
        assert result.metadata["engine"] == "vectorized"

    def test_forcing_vectorized_with_unsupported_protocol_raises(self, regular_graph):
        with pytest.raises(SimulationError, match="bulk hooks"):
            run_broadcast(
                regular_graph,
                SequentialAlgorithm1(n_estimate=256),
                seed=1,
                config=SimulationConfig(engine="vectorized"),
            )

    def test_non_contiguous_ids_fall_back_to_scalar(self):
        graph = random_regular_graph(32, 4, RandomSource(seed=3))
        graph.remove_node(7)
        reason = vectorization_unsupported_reason(
            graph, PushProtocol(n_estimate=32), SimulationConfig()
        )
        assert reason is not None and "contiguous" in reason

    def test_independent_loss_is_vectorizable(self, regular_graph):
        result = run_broadcast(
            regular_graph,
            PushProtocol(n_estimate=256),
            seed=1,
            failure_model=IndependentLoss(transmission_loss_probability=0.2),
        )
        assert result.metadata["engine"] == "vectorized"

    def test_constructor_rejects_unsupported_combination(self, regular_graph):
        with pytest.raises(SimulationError):
            BatchedVectorizedRoundEngine(
                graph=regular_graph,
                protocol=SequentialAlgorithm1(n_estimate=256),
                seeds=[0],
            )

    def test_overridden_lifecycle_hooks_force_scalar(self, regular_graph):
        # A protocol may opt in to the bulk hooks but still override a
        # StateTable-based lifecycle hook the vectorized engine never calls;
        # dispatch must then fall back to the scalar engine.
        class EarlyFinish(PushProtocol):
            def finished(self, round_index, states):
                return round_index >= 2

        protocol = EarlyFinish(n_estimate=256)
        reason = vectorization_unsupported_reason(
            regular_graph, protocol, SimulationConfig()
        )
        assert reason is not None
        result = run_broadcast(regular_graph, protocol, seed=1)
        assert result.metadata["engine"] == "scalar"


# ---------------------------------------------------------------------------
# Exact invariants, per protocol and graph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_FACTORIES))
@pytest.mark.parametrize("graph_name", ["complete", "regular"])
class TestExactInvariants:
    def _graph(self, graph_name, regular_graph, parity_complete_graph):
        return parity_complete_graph if graph_name == "complete" else regular_graph

    def test_run_invariants_match_scalar_semantics(
        self, protocol_name, graph_name, regular_graph, parity_complete_graph
    ):
        graph = self._graph(graph_name, regular_graph, parity_complete_graph)
        n = graph.node_count
        factory = PROTOCOL_FACTORIES[protocol_name]
        fanout = PROTOCOL_FANOUTS[protocol_name]
        expected_channels_per_round = sum(
            min(fanout, graph.degree(v)) for v in graph.iter_nodes()
        )

        for seed in (1, 2, 3):
            result = run_with_engine(graph, factory(n), "vectorized", seed=seed)
            assert result.success, f"{protocol_name} seed {seed} failed"
            curve = result.informed_curve()
            assert all(a <= b for a, b in zip(curve, curve[1:]))
            assert curve[-1] == n
            if protocol_name in MASKED_CALLER_PROTOCOLS:
                # Only informed nodes call (fanout 0 while uninformed), so
                # the per-round charge equals the informed count at the
                # start of the round (min(1, degree) == 1 on these graphs).
                assert result.total_channels_opened == sum(
                    record.informed_before for record in result.history
                )
            else:
                # Full phone-call model: channel accounting is exact.
                assert (
                    result.total_channels_opened
                    == expected_channels_per_round * result.rounds_executed
                )
            # Conservation: every informed node (except the source) received
            # at least one delivered transmission.
            delivered = result.total_transmissions - result.total_lost_transmissions
            assert result.final_informed - 1 <= delivered

    def test_scalar_and_vectorized_agree_on_success(
        self, protocol_name, graph_name, regular_graph, parity_complete_graph
    ):
        graph = self._graph(graph_name, regular_graph, parity_complete_graph)
        n = graph.node_count
        factory = PROTOCOL_FACTORIES[protocol_name]
        scalar = run_with_engine(graph, factory(n), "scalar", seed=9)
        vectorized = run_with_engine(graph, factory(n), "vectorized", seed=9)
        assert scalar.success == vectorized.success is True
        assert scalar.final_informed == vectorized.final_informed == n


class TestVectorizedDeterminism:
    def test_same_seed_same_run(self, regular_graph):
        a = run_with_engine(regular_graph, Algorithm1(n_estimate=256), "vectorized", seed=5)
        b = run_with_engine(regular_graph, Algorithm1(n_estimate=256), "vectorized", seed=5)
        assert a.informed_curve() == b.informed_curve()
        assert a.total_transmissions == b.total_transmissions
        assert a.rounds_to_completion == b.rounds_to_completion

    def test_different_seeds_usually_differ(self, regular_graph):
        a = run_with_engine(regular_graph, PushProtocol(n_estimate=256), "vectorized", seed=5)
        b = run_with_engine(regular_graph, PushProtocol(n_estimate=256), "vectorized", seed=6)
        assert (
            a.informed_curve() != b.informed_curve()
            or a.total_transmissions != b.total_transmissions
        )

    def test_early_stop_matches_full_schedule_prefix(self, regular_graph):
        early = run_with_engine(regular_graph, PushProtocol(n_estimate=256), "vectorized", seed=8)
        full = run_with_engine(
            regular_graph,
            PushProtocol(n_estimate=256),
            "vectorized",
            seed=8,
            stop_when_informed=False,
        )
        assert early.rounds_to_completion == full.rounds_to_completion
        assert early.informed_curve() == full.informed_curve()[: early.rounds_executed]


class TestAlgorithm1PhaseParity:
    def test_phase_sums_match_totals_on_both_engines(self, regular_graph):
        for engine in ("scalar", "vectorized"):
            result = run_with_engine(
                regular_graph,
                Algorithm1(n_estimate=256),
                engine,
                seed=13,
                stop_when_informed=False,
            )
            phases = result.transmissions_by_phase()
            assert sum(phases.values()) == result.total_transmissions
            # Phase 1: each node pushes at most once over `fanout` channels.
            assert phases.get("phase1", 0) <= 4 * 256
            assert phases.get("phase3", 0) > 0

    def test_active_flag_semantics(self, regular_graph):
        # Phase 4 only re-pushes via nodes informed in phases 3-4; the run
        # must still complete on the full schedule.
        result = run_with_engine(
            regular_graph,
            Algorithm1(n_estimate=256),
            "vectorized",
            seed=21,
            stop_when_informed=False,
        )
        assert result.success
        assert result.rounds_executed == Algorithm1(n_estimate=256).horizon()


# ---------------------------------------------------------------------------
# Unusual graphs
# ---------------------------------------------------------------------------


class TestVectorizedEdgeCases:
    def test_fanout_larger_than_degree_calls_all_neighbours(self):
        graph = random_regular_graph(32, 3, RandomSource(seed=3))
        result = run_with_engine(graph, Algorithm1(n_estimate=32), "vectorized", seed=3)
        assert result.success
        for record in result.history:
            assert record.channels_opened == 3 * 32

    def test_multigraph_with_self_loops(self):
        graph = pairing_multigraph(128, 6, RandomSource(seed=9))
        result = run_with_engine(graph, PushPullProtocol(n_estimate=128), "vectorized", seed=9)
        assert result.final_informed >= 0.9 * 128

    def test_disconnected_graph_never_completes(self):
        graph = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        result = run_with_engine(graph, PushPullProtocol(n_estimate=6), "vectorized", seed=2)
        assert not result.success
        assert result.final_informed == 3

    def test_star_graph_with_pull(self):
        star = Graph.from_edges(9, [(0, i) for i in range(1, 9)])
        result = run_with_engine(star, PushPullProtocol(n_estimate=9), "vectorized", seed=4)
        assert result.success

    def test_isolated_node_opens_no_channels(self):
        graph = Graph.from_edges(3, [(0, 1)])
        result = run_with_engine(graph, PushProtocol(n_estimate=3), "vectorized", seed=1)
        assert not result.success
        assert result.final_informed == 2
        # Node 2 has degree 0 and contributes no channels.
        assert all(record.channels_opened == 2 for record in result.history)

    def test_non_zero_source(self, regular_graph):
        result = run_with_engine(
            regular_graph, PushProtocol(n_estimate=256), "vectorized", seed=2
        )
        shifted = run_broadcast(
            regular_graph,
            PushProtocol(n_estimate=256),
            source=200,
            seed=2,
            config=SimulationConfig(engine="vectorized"),
        )
        assert result.success and shifted.success
        assert shifted.source == 200


# ---------------------------------------------------------------------------
# Failure injection parity
# ---------------------------------------------------------------------------


class TestFailureParity:
    def test_total_loss_blocks_broadcast_on_both_engines(self, regular_graph):
        for engine in ("scalar", "vectorized"):
            result = run_with_engine(
                regular_graph,
                PushProtocol(n_estimate=256),
                engine,
                seed=9,
                message_loss_probability=1.0,
            )
            assert not result.success
            assert result.final_informed == 1
            assert result.total_lost_transmissions == result.total_transmissions > 0

    def test_total_channel_failure_blocks_any_transmission(self, regular_graph):
        for engine in ("scalar", "vectorized"):
            result = run_with_engine(
                regular_graph,
                PushProtocol(n_estimate=256),
                engine,
                seed=9,
                channel_failure_probability=1.0,
            )
            assert not result.success
            assert result.total_transmissions == 0

    def test_partial_loss_slows_but_completes(self, regular_graph):
        clean = run_with_engine(regular_graph, PushProtocol(n_estimate=256), "vectorized", seed=9)
        lossy = run_with_engine(
            regular_graph,
            PushProtocol(n_estimate=256),
            "vectorized",
            seed=9,
            message_loss_probability=0.3,
        )
        assert lossy.success
        assert lossy.total_lost_transmissions > 0
        assert lossy.rounds_to_completion >= clean.rounds_to_completion


# ---------------------------------------------------------------------------
# Statistical parity across seeds
# ---------------------------------------------------------------------------


class TestStatisticalParity:
    SEEDS = range(40)

    def _mean(self, values):
        values = list(values)
        return sum(values) / len(values)

    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_FACTORIES))
    def test_completion_rounds_distribution_matches(self, protocol_name, regular_graph):
        factory = PROTOCOL_FACTORIES[protocol_name]
        scalar_rounds = [
            run_with_engine(regular_graph, factory(256), "scalar", seed=s).rounds_to_completion
            for s in self.SEEDS
        ]
        vector_rounds = [
            run_with_engine(regular_graph, factory(256), "vectorized", seed=s).rounds_to_completion
            for s in self.SEEDS
        ]
        assert None not in scalar_rounds and None not in vector_rounds
        scalar_mean = self._mean(scalar_rounds)
        vector_mean = self._mean(vector_rounds)
        # Means over 40 seeds agree within 12% of the scalar mean (completion
        # round distributions at n=256 are tightly concentrated).
        assert abs(scalar_mean - vector_mean) <= max(1.0, 0.12 * scalar_mean)

    def test_transmission_totals_match_on_full_schedule(self, regular_graph):
        # On the full schedule the push transmission count is informed-count
        # driven, so the seed-averaged totals must line up closely.
        scalar_tx = [
            run_with_engine(
                regular_graph, PushProtocol(n_estimate=256), "scalar", seed=s,
                stop_when_informed=False,
            ).total_transmissions
            for s in self.SEEDS
        ]
        vector_tx = [
            run_with_engine(
                regular_graph, PushProtocol(n_estimate=256), "vectorized", seed=s,
                stop_when_informed=False,
            ).total_transmissions
            for s in self.SEEDS
        ]
        assert abs(self._mean(scalar_tx) - self._mean(vector_tx)) <= 0.05 * self._mean(scalar_tx)


# ---------------------------------------------------------------------------
# VectorState unit semantics
# ---------------------------------------------------------------------------


class TestVectorState:
    """A one-replication state: ``(1, n)`` planes whose flat ids are node ids."""

    def test_initial_state(self):
        state = VectorState(n=5, source=2)
        assert state.shape == (1, 5)
        assert state.informed_count.tolist() == [1]
        assert state.informed[0, 2]
        assert state.informed_round[0, 2] == 0
        assert np.flatnonzero(state.informed).tolist() == [2]

    def test_invalid_source_rejected(self):
        with pytest.raises(ValueError):
            VectorState(n=3, source=3)

    def test_commit_delivered_promotes_deliveries(self):
        state = VectorState(n=4, source=0)
        state.enable_membership()
        newly = state.commit_delivered(
            np.array([3, 1], dtype=state.index_dtype), round_index=7
        )
        assert newly.tolist() == [1, 3]
        assert state.informed_count.tolist() == [3]
        assert state.informed_round[0, 1] == state.informed_round[0, 3] == 7
        # Nothing stays staged: after node 1 departs (its flag cleared), a
        # later commit promotes only its own entries.
        state.remove_nodes(np.array([1]))
        newly = state.commit_delivered(
            np.array([2], dtype=state.index_dtype), round_index=8
        )
        assert newly.tolist() == [2]
        assert state.informed_round[0].tolist() == [0, -1, 8, 7]

    def test_commit_ignores_already_informed(self):
        state = VectorState(n=3, source=0)
        newly = state.commit_delivered(
            np.array([0, 1], dtype=state.index_dtype), round_index=1
        )
        assert newly.tolist() == [1]
        assert state.informed_round[0, 0] == 0
        assert state.informed_count.tolist() == [2]

    @pytest.mark.parametrize("dense", [False, True], ids=["sorted", "marked"])
    def test_batched_commit_on_both_sides_of_the_dense_rule(self, dense):
        # Three rows of 40 nodes: a delivery set of at least 30 entries (a
        # quarter of the state) is marked into a mask, a smaller one sorted.
        # Every round repeats entries and names informed nodes (the sources
        # and earlier commits); the result must not depend on the side.
        n, batch = 40, 3
        state = VectorState(n=n, source=5, batch=batch)
        state.enable_index_tracking()
        generator = np.random.default_rng(11)
        informed_round = np.full(n * batch, -1)
        informed_round[[5, n + 5, 2 * n + 5]] = 0
        for round_index in (1, 2, 3):
            drawn = generator.integers(0, n * batch, 24 if dense else 10)
            earlier = np.flatnonzero(informed_round >= 0)[:6]
            delivered = np.concatenate([drawn, drawn[:4], earlier]).astype(
                state.index_dtype
            )
            generator.shuffle(delivered)
            assert (delivered.size * 4 >= state.informed.size) == dense
            expected = sorted(
                set(delivered.tolist()) - set(np.flatnonzero(informed_round >= 0).tolist())
            )
            newly = state.commit_delivered(delivered, round_index)
            assert newly.dtype == state.index_dtype
            assert newly.tolist() == expected
            informed_round[expected] = round_index
            assert state.informed_round.reshape(-1).tolist() == informed_round.tolist()
            assert state.informed_count.tolist() == [
                int(np.count_nonzero(row >= 0)) for row in informed_round.reshape(batch, n)
            ]
            assert state.informed_flat.tolist() == np.flatnonzero(informed_round >= 0).tolist()
            assert state.newly_flat.tolist() == expected
