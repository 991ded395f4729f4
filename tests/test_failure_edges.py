"""Edge-case coverage for the failure models.

Two boundary regions that the standard sweeps never visit:

* :class:`IndependentLoss` at its extremes ``p = 0.0`` (must be exactly the
  reliable-delivery run, engine-independently) and ``p = 1.0`` (no copy ever
  arrives: the informed set stays ``{source}`` forever and the broadcast
  fails), with scalar-vs-vectorized history parity at both ends;
* :class:`UniformChurn` on singleton and near-empty graphs, where the
  splice-based join and the protected source leave almost no room to act.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ScalarChurnOps
from repro.core.errors import ConfigurationError
from repro.core.node import StateTable
from repro.core.rng import RandomSource
from repro.failures.churn import AdversarialChurn, BurstChurn, UniformChurn
from repro.failures.message_loss import IndependentLoss, ReliableDelivery
from repro.graphs.base import Graph
from repro.spec import (
    FailureSpec,
    GraphSpec,
    ProtocolSpec,
    ScenarioSpec,
    run_spec,
)


def loss_spec(p: float, engine: str = "auto", protocol: str = "push") -> ScenarioSpec:
    return ScenarioSpec(
        name=f"loss-edge-{protocol}-{p}",
        graph=GraphSpec(family="connected-random-regular", params={"n": 64, "d": 6}),
        protocol=ProtocolSpec(name=protocol),
        failure=FailureSpec(
            model="independent-loss",
            params={"transmission_loss_probability": p},
        ),
        repetitions=3,
        master_seed=11,
        engine=engine,
        label=f"loss-edge-{protocol}",
        config={"max_rounds": 40},
    )


def histories(run):
    return [result.history for result in run.results()]


class TestIndependentLossExtremes:
    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    @pytest.mark.parametrize("protocol", ["push", "pull", "push-pull"])
    def test_p_zero_matches_reliable_delivery(self, protocol, engine):
        # p=0 must not merely "mostly work": bernoulli(0.0) consumes no
        # entropy, so on EITHER engine the run is bit-identical — down to
        # per-round history — to no failure model at all.
        lossless = run_spec(loss_spec(0.0, engine=engine, protocol=protocol))
        reliable = run_spec(
            ScenarioSpec(
                name="reliable",
                graph=GraphSpec(
                    family="connected-random-regular", params={"n": 64, "d": 6}
                ),
                protocol=ProtocolSpec(name=protocol),
                repetitions=3,
                master_seed=11,
                engine=engine,
                # Same label => same derived run seeds as the p=0 spec; only
                # the failure model differs between the two runs.
                label=f"loss-edge-{protocol}",
                config={"max_rounds": 40},
            )
        )
        assert histories(lossless) == histories(reliable)
        assert all(result.success for result in lossless.results())

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    @pytest.mark.parametrize("protocol", ["push", "pull", "push-pull"])
    def test_p_one_nobody_learns_anything(self, protocol, engine):
        run = run_spec(loss_spec(1.0, engine=engine, protocol=protocol))
        for result in run.results():
            assert result.success is False
            # The informed set never grows past the source.
            assert all(row.informed_after == 1 for row in result.history)

    @pytest.mark.parametrize("protocol", ["push", "pull", "push-pull"])
    def test_p_one_engines_agree_on_the_forced_trajectory(self, protocol):
        # The engines promise aggregate semantics, not shared draw order —
        # but at p=1 the trajectory is forced (nothing ever arrives), so
        # their informed evolutions must coincide exactly: pinned at the
        # source for the full max_rounds budget.
        scalar = run_spec(loss_spec(1.0, engine="scalar", protocol=protocol))
        vectorized = run_spec(loss_spec(1.0, engine="vectorized", protocol=protocol))
        trajectory = lambda run: [  # noqa: E731
            [row.informed_after for row in result.history] for result in run.results()
        ]
        assert trajectory(scalar) == trajectory(vectorized)
        # Pinned at the source for however long the protocol keeps trying
        # (protocols may give up before the max_rounds config cap).
        for informed in trajectory(scalar):
            assert informed and set(informed) == {1}

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_informed_counts_monotone_for_any_loss(self, engine):
        # Losing copies can slow the broadcast but never un-inform a node.
        for p in (0.0, 0.5, 1.0):
            for result in run_spec(loss_spec(p, engine=engine)).results():
                informed = [row.informed_after for row in result.history]
                assert informed == sorted(informed)

    def test_model_consumes_no_entropy_at_the_extremes(self):
        rng = RandomSource(seed=3)
        before = rng.randint(0, 2**31)
        rng_a = RandomSource(seed=3)
        total = IndependentLoss(transmission_loss_probability=1.0)
        none = IndependentLoss(transmission_loss_probability=0.0)
        assert total.transmission_lost(rng_a) is True
        assert none.transmission_lost(rng_a) is False
        assert total.channel_fails(rng_a) is False  # channel p defaults to 0
        # All three calls consumed nothing: the stream is still aligned.
        assert rng_a.randint(0, 2**31) == before

    def test_probabilities_validated(self):
        with pytest.raises(ConfigurationError, match="transmission_loss"):
            IndependentLoss(transmission_loss_probability=1.5)
        with pytest.raises(ConfigurationError, match="channel_failure"):
            IndependentLoss(channel_failure_probability=-0.1)

    def test_reliable_delivery_is_the_null_model(self):
        rng = RandomSource(seed=5)
        model = ReliableDelivery()
        assert model.channel_fails(rng) is False
        assert model.transmission_lost(rng) is False


def churn_step(churn, round_index, graph, states, rng):
    """One round of ``churn`` through the scalar engine's membership surface."""
    return churn.vector_apply(
        round_index, ScalarChurnOps(graph, states, round_index), rng
    )


class TestChurnOnTinyGraphs:
    def _churn(self, **overrides):
        defaults = dict(leave_rate=0.5, join_rate=0.5, target_degree=2)
        defaults.update(overrides)
        return UniformChurn(**defaults)

    def test_singleton_graph_source_survives(self):
        # One node that IS the source: protect_source must pin the network
        # at size >= 1 no matter how aggressive the leave rate.
        graph = Graph(range(1))
        states = StateTable(n=1, source=0)
        churn = self._churn(leave_rate=0.9, join_rate=0.0)
        rng = RandomSource(seed=21)
        for round_index in range(1, 20):
            event = churn_step(churn, round_index, graph, states, rng)
            assert event.departed == []  # the only candidate is protected
            assert 0 in graph
            assert states.contains(0)

    def test_singleton_graph_joiners_attach(self):
        # Joins on an edgeless graph cannot splice (no edges to split), but
        # must still register the node consistently in graph and states.
        graph = Graph(range(1))
        states = StateTable(n=1, source=0)
        churn = self._churn(leave_rate=0.0, join_rate=0.9)
        rng = RandomSource(seed=22)
        # ~1.9x growth per round compounds fast; 10 rounds is plenty.
        for round_index in range(1, 10):
            event = churn_step(churn, round_index, graph, states, rng)
            for joiner in event.joined:
                assert joiner in graph
                assert states.contains(joiner)
                assert not states[joiner].informed
        assert len(graph) == len(states)

    def test_two_node_graph_never_loses_the_source(self):
        graph = Graph.from_edges(2, [(0, 1)])
        states = StateTable(n=2, source=0)
        churn = self._churn(leave_rate=0.99, join_rate=0.0)
        rng = RandomSource(seed=23)
        for round_index in range(1, 30):
            churn_step(churn, round_index, graph, states, rng)
        assert 0 in graph and states.contains(0)
        assert len(graph) >= 1

    def test_near_empty_graph_churn_is_consistent(self):
        # Heavy leave + join churn starting from 3 nodes: graph and state
        # table must stay in lockstep and the source must persist, even as
        # the membership turns over almost completely.
        graph = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        states = StateTable(n=3, source=1)
        churn = self._churn(leave_rate=0.6, join_rate=0.6)
        rng = RandomSource(seed=24)
        for round_index in range(1, 50):
            churn_step(churn, round_index, graph, states, rng)
            assert sorted(graph.iter_nodes()) == sorted(
                node.node_id for node in states
            )
            assert states.contains(states.source)
        # Node ids are never recycled: joiners get fresh ids beyond the
        # original range even after departures freed the low ones.
        new_ids = [n for n in graph.iter_nodes() if n >= 3]
        assert len(new_ids) == len(set(new_ids))

    def test_churn_is_deterministic_in_the_seed(self):
        def run_once():
            graph = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
            states = StateTable(n=3, source=0)
            churn = self._churn(leave_rate=0.4, join_rate=0.4)
            rng = RandomSource(seed=25)
            trace = []
            for round_index in range(1, 30):
                event = churn_step(churn, round_index, graph, states, rng)
                trace.append((event.departed, event.joined))
            return trace, sorted(graph.iter_nodes())

        assert run_once() == run_once()

    def test_churn_rate_validation(self):
        with pytest.raises(ConfigurationError, match="leave_rate"):
            self._churn(leave_rate=1.0)
        with pytest.raises(ConfigurationError, match="join_rate"):
            self._churn(join_rate=-0.1)
        with pytest.raises(ConfigurationError, match="target_degree"):
            self._churn(target_degree=1)

    def test_churn_ends_mid_broadcast_with_max_rounds(self):
        # max_rounds=2: rounds 3+ must be no-ops — no departures, no joins,
        # and (bernoulli with no candidates aside) no membership change.
        graph = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        states = StateTable(n=3, source=0)
        churn = self._churn(leave_rate=0.6, join_rate=0.6, max_rounds=2)
        rng = RandomSource(seed=26)
        for round_index in range(1, 3):
            churn_step(churn, round_index, graph, states, rng)
        frozen = sorted(graph.iter_nodes())
        for round_index in range(3, 20):
            event = churn_step(churn, round_index, graph, states, rng)
            assert event.departed == [] and event.joined == []
        assert sorted(graph.iter_nodes()) == frozen


class TestAdversarialAndBurstEdges:
    def test_burst_fires_exactly_once(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        states = StateTable(n=4, source=0)
        churn = BurstChurn(at_round=3, fraction=1.0)
        rng = RandomSource(seed=31)
        removed_by_round = {}
        for round_index in range(1, 6):
            event = churn_step(churn, round_index, graph, states, rng)
            removed_by_round[round_index] = len(event.departed)
        # Everything except the protected source goes at round 3, nothing
        # before or after.
        assert removed_by_round == {1: 0, 2: 0, 3: 3, 4: 0, 5: 0}
        assert sorted(graph.iter_nodes()) == [0]

    def test_burst_on_singleton_graph_protects_source(self):
        graph = Graph(range(1))
        states = StateTable(n=1, source=0)
        churn = BurstChurn(at_round=1, fraction=1.0)
        event = churn_step(churn, 1, graph, states, RandomSource(seed=32))
        assert event.departed == []
        assert 0 in graph

    def test_burst_without_protection_can_empty_the_graph(self):
        graph = Graph.from_edges(2, [(0, 1)])
        states = StateTable(n=2, source=0)
        churn = BurstChurn(at_round=1, fraction=1.0, protect_source=False)
        event = churn_step(churn, 1, graph, states, RandomSource(seed=33))
        assert sorted(event.departed) == [0, 1]
        assert len(graph) == 0

    def test_adversarial_targets_only_informed_nodes(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        states = StateTable(n=4, source=0)
        states[1].deliver(1)
        states.commit_round()
        churn = AdversarialChurn(leave_rate=1.0, target="informed")
        event = churn_step(churn, 2, graph, states, RandomSource(seed=34))
        # Node 1 is informed and unprotected; 0 is informed but the source;
        # 2 and 3 are uninformed and therefore never candidates.
        assert event.departed == [1]

    def test_adversarial_newly_informed_window_moves(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        states = StateTable(n=4, source=0)
        states[1].deliver(1)
        states.commit_round()
        churn = AdversarialChurn(leave_rate=1.0, target="newly-informed")
        # Round 2: node 1 was informed in round 1 -> the only target.
        event = churn_step(churn, 2, graph, states, RandomSource(seed=35))
        assert event.departed == [1]
        # Round 3: nobody was informed in round 2, so nothing to remove.
        event = churn_step(churn, 3, graph, states, RandomSource(seed=35))
        assert event.departed == []

    def test_adversarial_on_singleton_graph_is_a_no_op(self):
        graph = Graph(range(1))
        states = StateTable(n=1, source=0)
        churn = AdversarialChurn(leave_rate=1.0, target="informed")
        for round_index in range(1, 5):
            event = churn_step(churn, round_index, graph, states, RandomSource(seed=36))
            assert event.departed == []
        assert 0 in graph

    def test_adversarial_max_rounds_stops_the_attack(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        states = StateTable(n=4, source=0)
        for node in (1, 2, 3):
            states[node].deliver(1)
        states.commit_round()
        churn = AdversarialChurn(leave_rate=1.0, target="informed", max_rounds=1)
        event = churn_step(churn, 2, graph, states, RandomSource(seed=37))
        assert event.departed == []
        assert len(graph) == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at_round"):
            BurstChurn(at_round=0, fraction=0.5)
        with pytest.raises(ConfigurationError, match="fraction"):
            BurstChurn(at_round=1, fraction=1.5)
        with pytest.raises(ConfigurationError, match="target"):
            AdversarialChurn(leave_rate=0.5, target="uninformed")
        with pytest.raises(ConfigurationError, match="leave_rate"):
            AdversarialChurn(leave_rate=-0.1)
