"""Unit tests for the protocol registry and the failure/churn/estimate models."""

from __future__ import annotations

import pytest

from repro.core.engine import ScalarChurnOps
from repro.core.errors import ConfigurationError
from repro.core.node import StateTable
from repro.core.rng import RandomSource
from repro.failures.churn import ChurnEvent, NoChurn, UniformChurn
from repro.failures.estimates import EstimateError, distorted_estimate, estimate_grid
from repro.failures.message_loss import IndependentLoss, ReliableDelivery
from repro.graphs.configuration_model import random_regular_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.push import PushProtocol
from repro.protocols.registry import available_protocols, build_protocol


class TestProtocolRegistry:
    def test_all_registered_protocols_build(self):
        for name in available_protocols():
            protocol = build_protocol(name, 256)
            assert protocol.horizon() >= 1

    def test_specific_types(self):
        assert isinstance(build_protocol("push", 256), PushProtocol)
        assert isinstance(build_protocol("algorithm1", 256), Algorithm1)

    def test_kwargs_are_forwarded(self):
        protocol = build_protocol("algorithm1", 256, alpha=2.0)
        assert protocol.alpha == 2.0

    def test_push_pull_4_preset(self):
        protocol = build_protocol("push-pull-4", 256)
        assert protocol.name == "push-pull-4"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            build_protocol("telepathy", 256)

    def test_available_protocols_sorted(self):
        names = available_protocols()
        assert names == sorted(names)
        assert "algorithm1" in names

    def test_legacy_builder_mapping_is_read_only(self):
        from repro.protocols.registry import PROTOCOL_BUILDERS

        assert set(PROTOCOL_BUILDERS) == set(available_protocols())
        with pytest.raises(TypeError):
            PROTOCOL_BUILDERS["my-proto"] = lambda n: None  # register via PROTOCOLS


class TestMessageLossModels:
    def test_reliable_delivery_never_fails(self, rng):
        model = ReliableDelivery()
        assert not any(model.transmission_lost(rng) for _ in range(100))
        assert not any(model.channel_fails(rng) for _ in range(100))

    def test_independent_loss_extremes(self, rng):
        always = IndependentLoss(transmission_loss_probability=1.0)
        never = IndependentLoss(transmission_loss_probability=0.0)
        assert always.transmission_lost(rng)
        assert not never.transmission_lost(rng)

    def test_independent_loss_frequency(self):
        rng = RandomSource(seed=9)
        model = IndependentLoss(transmission_loss_probability=0.3)
        losses = sum(model.transmission_lost(rng) for _ in range(3000))
        assert 700 < losses < 1100

    def test_channel_failures_are_separate(self, rng):
        model = IndependentLoss(channel_failure_probability=1.0)
        assert model.channel_fails(rng)
        assert not model.transmission_lost(rng)

    def test_invalid_probabilities(self):
        with pytest.raises(ConfigurationError):
            IndependentLoss(transmission_loss_probability=1.2)
        with pytest.raises(ConfigurationError):
            IndependentLoss(channel_failure_probability=-0.1)

    def test_describe(self):
        description = IndependentLoss(transmission_loss_probability=0.2).describe()
        assert description["transmission_loss_probability"] == 0.2


class TestEstimateError:
    def test_apply_scales_and_clamps(self):
        assert EstimateError(2.0).apply(1000) == 2000
        assert EstimateError(0.5).apply(1000) == 500
        assert EstimateError(0.0001).apply(100) == 2

    def test_invalid_factor(self):
        with pytest.raises(ConfigurationError):
            EstimateError(0.0)

    def test_distorted_estimate_shorthand(self):
        assert distorted_estimate(100, 4.0) == 400

    def test_estimate_grid(self):
        grid = estimate_grid(2)
        assert [e.factor for e in grid] == [0.25, 0.5, 1.0, 2.0, 4.0]
        with pytest.raises(ConfigurationError):
            estimate_grid(-1)


def churn_step(churn, round_index, graph, states, rng):
    """One round of ``churn`` through the scalar engine's membership surface."""
    return churn.vector_apply(
        round_index, ScalarChurnOps(graph, states, round_index), rng
    )


class TestChurnModels:
    def test_no_churn_is_a_noop(self, rng, small_regular_graph):
        states = StateTable(n=small_regular_graph.node_count, source=0)
        event = churn_step(NoChurn(), 1, small_regular_graph, states, rng)
        assert event.departures == 0 and event.arrivals == 0

    def test_uniform_churn_changes_membership(self):
        rng = RandomSource(seed=5)
        graph = random_regular_graph(128, 6, rng.spawn("graph"))
        states = StateTable(n=128, source=0)
        churn = UniformChurn(leave_rate=0.1, join_rate=0.1, target_degree=6)
        event = churn_step(churn, 1, graph, states, rng.spawn("churn"))
        assert isinstance(event, ChurnEvent)
        assert event.departures > 0 or event.arrivals > 0
        assert graph.node_count == 128 - event.departures + event.arrivals
        assert len(states) == graph.node_count

    def test_source_is_protected(self):
        rng = RandomSource(seed=5)
        graph = random_regular_graph(32, 4, rng.spawn("graph"))
        states = StateTable(n=32, source=0)
        churn = UniformChurn(leave_rate=0.9, join_rate=0.0, target_degree=4)
        for round_index in range(1, 4):
            churn_step(churn, round_index, graph, states, rng.spawn(f"churn-{round_index}"))
        assert states.contains(0)
        assert 0 in graph

    def test_joiners_are_wired_into_the_overlay(self):
        rng = RandomSource(seed=6)
        graph = random_regular_graph(64, 6, rng.spawn("graph"))
        states = StateTable(n=64, source=0)
        churn = UniformChurn(leave_rate=0.0, join_rate=0.2, target_degree=6)
        event = churn_step(churn, 1, graph, states, rng.spawn("churn"))
        assert event.arrivals > 0
        for joiner in event.joined:
            assert graph.degree(joiner) > 0
            assert not states[joiner].informed

    def test_max_rounds_stops_churn(self):
        rng = RandomSource(seed=7)
        graph = random_regular_graph(32, 4, rng.spawn("graph"))
        states = StateTable(n=32, source=0)
        churn = UniformChurn(leave_rate=0.5, join_rate=0.5, target_degree=4, max_rounds=1)
        churn_step(churn, 1, graph, states, rng.spawn("round1"))
        later = churn_step(churn, 2, graph, states, rng.spawn("round2"))
        assert later.departures == 0 and later.arrivals == 0

    def test_invalid_rates(self):
        with pytest.raises(ConfigurationError):
            UniformChurn(leave_rate=1.5, join_rate=0.0, target_degree=4)
        with pytest.raises(ConfigurationError):
            UniformChurn(leave_rate=0.0, join_rate=0.0, target_degree=1)

    def test_describe(self):
        churn = UniformChurn(leave_rate=0.1, join_rate=0.2, target_degree=8)
        description = churn.describe()
        assert description["leave_rate"] == 0.1
        assert description["join_rate"] == 0.2
