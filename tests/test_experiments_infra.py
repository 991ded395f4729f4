"""Unit tests for the experiment infrastructure (tables, runner, workloads)."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.errors import ExperimentError
from repro.experiments.runner import ExperimentRunner, repeat_broadcast
from repro.experiments.tables import Table
from repro.experiments.workloads import (
    DEFAULT_DEGREE,
    LARGE_DEGREE,
    SweepSizes,
    full_sizes,
    quick_sizes,
)
from repro.failures.churn import UniformChurn
from repro.graphs.properties import is_connected
from repro.protocols.push import PushProtocol
from repro.spec import GraphSpec, ProtocolSpec, ScenarioSpec, run_spec


class TestTable:
    def test_add_row_and_render(self):
        table = Table(title="T", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a="x")
        output = table.render()
        assert "T" in output
        assert "2.500" in output
        assert output.count("\n") >= 4

    def test_unknown_column_rejected(self):
        table = Table(title="T", columns=["a"])
        with pytest.raises(ExperimentError):
            table.add_row(a=1, z=2)

    def test_column_accessor(self):
        table = Table(title="T", columns=["a", "b"])
        table.add_row(a=1, b=2)
        table.add_row(a=3)
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2, None]
        with pytest.raises(ExperimentError):
            table.column("missing")

    def test_notes_and_records(self):
        table = Table(title="T", columns=["a"])
        table.add_row(a=True)
        table.add_note("hello")
        assert "hello" in table.render()
        assert "yes" in table.render()
        assert table.to_records() == [{"a": True}]

    def test_empty_table_renders(self):
        table = Table(title="Empty", columns=["only"])
        assert "only" in table.render()


class TestWorkloads:
    def test_quick_and_full_sizes(self):
        quick = quick_sizes()
        full = full_sizes()
        assert max(quick.sizes) < max(full.sizes)
        assert quick.repetitions >= 1

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            SweepSizes(sizes=[])
        with pytest.raises(ValueError):
            SweepSizes(sizes=[10], repetitions=0)

    def test_degree_constants(self):
        assert DEFAULT_DEGREE < LARGE_DEGREE


class TestRepeatBroadcast:
    def test_one_result_per_seed(self, small_regular_graph):
        results = repeat_broadcast(
            graph=small_regular_graph,
            protocol_factory=lambda n: PushProtocol(n_estimate=n),
            n_estimate=64,
            seeds=[1, 2, 3],
        )
        assert len(results) == 3
        assert all(result.n == 64 for result in results)

    def test_churn_runs_do_not_mutate_the_shared_graph(self, medium_regular_graph):
        edge_count = medium_regular_graph.edge_count
        repeat_broadcast(
            graph=medium_regular_graph,
            protocol_factory=lambda n: PushProtocol(n_estimate=n),
            n_estimate=256,
            seeds=[1],
            churn_factory=lambda: UniformChurn(
                leave_rate=0.05, join_rate=0.05, target_degree=8
            ),
        )
        assert medium_regular_graph.edge_count == edge_count

    def test_config_is_honoured(self, small_regular_graph):
        results = repeat_broadcast(
            graph=small_regular_graph,
            protocol_factory=lambda n: PushProtocol(n_estimate=n),
            n_estimate=64,
            seeds=[5],
            config=SimulationConfig(max_rounds=1),
        )
        assert results[0].rounds_executed == 1


def runner_spec(**overrides) -> ScenarioSpec:
    """A one-point push scenario on a 64-node 4-regular graph."""
    fields = dict(
        name="runner",
        graph=GraphSpec(family="connected-random-regular", params={"n": 64, "d": 4}),
        protocol=ProtocolSpec(name="push"),
        repetitions=2,
        master_seed=1,
        label="t",
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestExperimentRunner:
    def test_graph_cache_returns_same_object(self):
        runner = ExperimentRunner()
        spec = runner_spec()
        assert runner.spec_graph(spec) is runner.spec_graph(spec)
        assert runner.graph_builds == 1
        other_instance = runner_spec(
            graph=GraphSpec(
                family="connected-random-regular", params={"n": 64, "d": 4}, instance=1
            )
        )
        assert runner.spec_graph(spec) is not runner.spec_graph(other_instance)
        # The cache is keyed by the spec's master seed as well.
        other_seed = runner.spec_graph(runner_spec(master_seed=2))
        assert other_seed is not runner.spec_graph(spec)
        assert other_seed.csr()[1].tolist() != runner.spec_graph(spec).csr()[1].tolist()
        assert runner.graph_builds == 3

    def test_graphs_are_regular_and_connected(self):
        spec = runner_spec(
            graph=GraphSpec(family="connected-random-regular", params={"n": 64, "d": 6})
        )
        graph = ExperimentRunner().spec_graph(spec)
        assert all(degree == 6 for degree in graph.degrees().values())
        assert is_connected(graph)

    def test_run_seeds_are_deterministic_and_distinct(self):
        spec = runner_spec(repetitions=4)
        seeds_a = spec.run_seeds("label")
        seeds_b = spec.run_seeds("label")
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == 4
        assert spec.run_seeds("other") != seeds_a
        assert runner_spec(repetitions=4, master_seed=2).run_seeds("label") != seeds_a

    def test_run_and_aggregate(self):
        aggregate = run_spec(runner_spec()).points[0].aggregate
        assert aggregate.runs == 2
        assert aggregate.n == 64

    def test_repetitions_come_from_each_spec(self):
        runner = ExperimentRunner()
        five = runner.run_scenario(runner_spec(repetitions=5))
        two = runner.run_scenario(runner_spec())
        assert len(five.points[0].results) == 5
        assert len(two.points[0].results) == 2
        assert runner.graph_builds == 1

    def test_engine_knob_forwards_into_runs(self):
        scalar_results = run_spec(runner_spec(engine="scalar")).results()
        auto_results = run_spec(runner_spec()).results()
        assert all(r.metadata["engine"] == "scalar" for r in scalar_results)
        assert all(r.metadata["engine"] == "vectorized" for r in auto_results)

    def test_engine_knob_preserves_config_overrides(self):
        spec = runner_spec(
            repetitions=1, engine="scalar", config={"collect_round_history": False}
        )
        assert spec.simulation_config() == SimulationConfig(
            engine="scalar", collect_round_history=False
        )
        results = run_spec(spec).results()
        assert results[0].metadata["engine"] == "scalar"
        assert results[0].history == []

    def test_reproducible_across_runner_instances(self):
        spec = runner_spec(master_seed=99, label="x")
        a = ExperimentRunner().run_scenario(spec).points[0].aggregate
        b = ExperimentRunner().run_scenario(spec).points[0].aggregate
        assert a.rounds.mean == b.rounds.mean
        assert a.transmissions.mean == b.transmissions.mean
