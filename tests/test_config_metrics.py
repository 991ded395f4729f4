"""Unit tests for repro.core.config and repro.core.metrics."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.errors import ConfigurationError
from repro.core.metrics import (
    RoundRecord,
    RunResult,
    SummaryStatistic,
    aggregate_runs,
)


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.max_rounds is None
        assert config.message_loss_probability == 0.0
        assert config.stop_when_informed is True

    def test_invalid_max_rounds(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_rounds=0)

    def test_invalid_probabilities(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(message_loss_probability=1.5)
        with pytest.raises(ConfigurationError):
            SimulationConfig(channel_failure_probability=-0.2)

    def test_churn_rate_is_not_a_field(self):
        # Churn comes from a churn model or a ChurnSpec; no engine ever read
        # a config-level rate, so setting one is an error, not a no-op.
        with pytest.raises(TypeError, match="churn_rate"):
            SimulationConfig(churn_rate=0.5)

    def test_spec_config_rejects_churn_rate(self):
        from repro.spec import ScenarioSpec

        data = {
            "name": "churn-rate",
            "graph": {"family": "complete", "params": {"n": 8}},
            "protocol": {"name": "push"},
            "config": {"churn_rate": 0.5},
        }
        with pytest.raises(ConfigurationError, match="churn_rate"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("key", ["batch_row_compaction", "churn_node_compaction"])
    def test_spec_config_rejects_compaction_keys(self, key):
        # Compaction is a fixed engine rule, not a configuration field.
        from repro.spec import ScenarioSpec

        data = {
            "name": "compaction",
            "graph": {"family": "complete", "params": {"n": 8}},
            "protocol": {"name": "push"},
            "config": {key: False},
        }
        with pytest.raises(ConfigurationError, match=key):
            ScenarioSpec.from_dict(data)

    def test_with_overrides(self):
        config = SimulationConfig().with_overrides(message_loss_probability=0.1)
        assert config.message_loss_probability == 0.1
        assert config.stop_when_informed is True
        # Every field the override does not name survives, and the copy is
        # validated like a fresh config.
        custom = SimulationConfig(
            max_rounds=7,
            channel_failure_probability=0.2,
            collect_round_history=False,
            stop_when_informed=False,
            engine="scalar",
        )
        assert custom.with_overrides(max_rounds=9) == SimulationConfig(
            **{**custom.__dict__, "max_rounds": 9}
        )
        with pytest.raises(ConfigurationError):
            custom.with_overrides(message_loss_probability=2.0)

    def test_with_overrides_does_not_mutate_original(self):
        original = SimulationConfig()
        original.with_overrides(stop_when_informed=False)
        assert original.stop_when_informed is True

    def test_frozen(self):
        config = SimulationConfig()
        with pytest.raises(Exception):
            config.max_rounds = 10  # type: ignore[misc]


def _record(round_index=1, before=1, after=3, push=4, pull=0, channels=8, lost=0, phase=""):
    return RoundRecord(
        round_index=round_index,
        informed_before=before,
        informed_after=after,
        push_transmissions=push,
        pull_transmissions=pull,
        channels_opened=channels,
        lost_transmissions=lost,
        phase=phase,
    )


def _result(n=10, success=True, rounds=3, push=20, pull=5, channels=100, informed=10):
    return RunResult(
        n=n,
        protocol="test",
        source=0,
        success=success,
        rounds_executed=rounds,
        rounds_to_completion=rounds if success else None,
        total_push_transmissions=push,
        total_pull_transmissions=pull,
        total_channels_opened=channels,
        total_lost_transmissions=0,
        final_informed=informed,
        history=[_record()],
        phase_transmissions={"phase1": push + pull},
    )


class TestRoundRecord:
    def test_totals(self):
        record = _record(push=4, pull=3)
        assert record.transmissions == 7

    def test_newly_informed(self):
        record = _record(before=2, after=9)
        assert record.newly_informed == 7


class TestRunResult:
    def test_total_transmissions(self):
        assert _result(push=20, pull=5).total_transmissions == 25

    def test_per_node_metrics(self):
        result = _result(n=10, push=20, pull=5, channels=100)
        assert result.transmissions_per_node == 2.5
        assert result.channels_per_node == 10.0

    def test_informed_fraction(self):
        assert _result(n=10, informed=5).informed_fraction == 0.5

    def test_informed_curve_from_history(self):
        assert _result().informed_curve() == [3]

    def test_transmissions_by_phase_is_copy(self):
        result = _result()
        phases = result.transmissions_by_phase()
        phases["phase1"] = -1
        assert result.phase_transmissions["phase1"] != -1


class TestSummaryStatistic:
    def test_from_values(self):
        stat = SummaryStatistic.from_values([1.0, 2.0, 3.0])
        assert stat.mean == pytest.approx(2.0)
        assert stat.minimum == 1.0
        assert stat.maximum == 3.0
        assert stat.count == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SummaryStatistic.from_values([])


class TestAggregateRuns:
    def test_aggregate_mixed_success(self):
        results = [_result(success=True, rounds=3), _result(success=False, rounds=5)]
        aggregate = aggregate_runs(results)
        assert aggregate.runs == 2
        assert aggregate.success_rate == 0.5
        assert aggregate.rounds.mean == pytest.approx(4.0)

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

    def test_aggregate_carries_protocol_and_n(self):
        aggregate = aggregate_runs([_result()])
        assert aggregate.protocol == "test"
        assert aggregate.n == 10
