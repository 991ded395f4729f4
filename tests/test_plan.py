"""``plan_run``: the one dispatch decision, and the dry run that prints it.

Every entry point (``run_broadcast``, ``run_broadcast_batch``,
``repeat_broadcast``) executes the :class:`RunPlan` that ``plan_run``
returns, and ``run-spec --dry-run`` prints the plan
:meth:`ExperimentRunner.plan_point` derives without building a graph.
These tests pin the rule set and that the printed plan is the executed one.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
import repro.experiments.runner as runner_module
from repro.cli import _dry_run_table, _plan_engine, _point_node_count
from repro.core.config import SimulationConfig
from repro.core.engine import RunPlan, plan_run, run_broadcast, run_broadcast_batch
from repro.core.errors import SimulationError
from repro.core.rng import RandomSource
from repro.dist.partition import expand_points
from repro.experiments.runner import ExperimentRunner, repeat_broadcast
from repro.failures.churn import UniformChurn
from repro.graphs.configuration_model import random_regular_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.push import PushProtocol
from repro.protocols.quasirandom import QuasirandomPushProtocol
from repro.protocols.sequential import SequentialAlgorithm1
from repro.spec import ScenarioSpec, load_spec, run_spec

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILES = sorted((ROOT / "examples" / "specs").glob("*.json"))


@pytest.fixture(scope="module")
def graph():
    return random_regular_graph(128, 4, RandomSource(seed=5, name="graph"))


def _churn():
    return UniformChurn(leave_rate=0.02, join_rate=0.02, target_degree=4)


def _plan(graph, protocol=None, engine="auto", churn=None, seeds=(1, 2, 3), batch=True):
    return plan_run(
        graph,
        protocol if protocol is not None else PushProtocol(n_estimate=128),
        SimulationConfig(engine=engine),
        None,
        churn,
        list(seeds),
        batch,
    )


class TestRules:
    def test_auto_batches_multi_seed_runs(self, graph):
        plan = _plan(graph)
        assert plan == RunPlan(
            engine="vectorized", batched=True, rows=3, n=128, copy_graph=False
        )

    def test_forced_scalar(self, graph):
        plan = _plan(graph, engine="scalar")
        assert (plan.engine, plan.reason, plan.batched, plan.rows) == (
            "scalar",
            "forced",
            False,
            1,
        )

    def test_auto_refusal_falls_back_with_the_reason(self, graph):
        plan = _plan(graph, protocol=SequentialAlgorithm1(n_estimate=128))
        assert plan.engine == "scalar" and not plan.batched
        assert "does not implement the bulk hooks" in plan.reason

    def test_forced_vectorized_refusal_raises_from_the_planner(self, graph):
        with pytest.raises(SimulationError, match="requested but .* bulk hooks"):
            _plan(
                graph, protocol=SequentialAlgorithm1(n_estimate=128), engine="vectorized"
            )

    @pytest.mark.parametrize(
        "seeds, batch, batched",
        [((1, 2), True, True), ((1,), True, False), ((1, 2), False, False), ((), True, False)],
    )
    def test_batched_iff_batch_on_and_several_seeds(self, graph, seeds, batch, batched):
        plan = _plan(graph, seeds=seeds, batch=batch)
        assert plan.engine == "vectorized"
        assert plan.batched is batched
        assert plan.rows == (len(seeds) if batched else 1)

    def test_churn_never_batches_and_vectorized_churn_shares_the_graph(self, graph):
        plan = _plan(graph, protocol=Algorithm1(n_estimate=128), churn=_churn())
        assert (plan.engine, plan.batched, plan.copy_graph) == ("vectorized", False, False)

    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    def test_scalar_churn_copies_the_graph(self, graph, engine):
        # Quasirandom push does not support dynamic membership.
        static = QuasirandomPushProtocol(n_estimate=128)
        plan = _plan(graph, protocol=static, engine=engine, churn=_churn())
        assert (plan.engine, plan.batched, plan.copy_graph) == ("scalar", False, True)

    def test_without_a_graph_n_is_unknown(self):
        plan = _plan(None)
        assert plan.n is None and plan.state_mb is None
        assert plan.engine == "vectorized" and plan.batched

    def test_state_mb_is_derived(self, graph):
        plan = _plan(graph)
        assert plan.state_mb == pytest.approx(3 * 128 * RunPlan.STATE_BYTES / 1e6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.rows = 1  # type: ignore[misc]

    def test_exported_from_both_packages(self):
        assert repro.plan_run is plan_run and repro.RunPlan is RunPlan
        assert repro.core.plan_run is plan_run and repro.core.RunPlan is RunPlan


class TestEntryPointsExecuteThePlan:
    def test_repeat_broadcast_copies_the_graph_for_scalar_churn(self, graph):
        edges = graph.edge_count
        nodes = sorted(graph.iter_nodes())
        results = repeat_broadcast(
            graph=graph,
            protocol_factory=lambda n: QuasirandomPushProtocol(n_estimate=n),
            n_estimate=128,
            seeds=[1, 2],
            churn_factory=_churn,
        )
        assert all(r.metadata["engine"] == "scalar" for r in results)
        assert graph.edge_count == edges and sorted(graph.iter_nodes()) == nodes

    def test_run_broadcast_batch_scalar_churn_matches_copied_single_runs(self, graph):
        config = SimulationConfig(engine="scalar")
        batch = run_broadcast_batch(
            graph, Algorithm1(n_estimate=128), [4, 5], config=config, churn_model=_churn()
        )
        singles = [
            run_broadcast(
                graph.copy(),
                Algorithm1(n_estimate=128),
                seed=seed,
                config=config,
                churn_model=_churn(),
            )
            for seed in (4, 5)
        ]
        assert [r.history for r in batch] == [r.history for r in singles]

    def test_only_the_planner_and_the_engine_guards_ask_the_predicate(self):
        """The one-decision rule: nothing else in src/ consults the predicate."""
        callers = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            finder = _PredicateCallers()
            finder.visit(ast.parse(path.read_text(encoding="utf-8")))
            callers |= finder.callers
        assert callers == {"plan_run", "BatchedVectorizedRoundEngine.__init__"}


class _PredicateCallers(ast.NodeVisitor):
    """Qualified names of the scopes that call the vectorization predicate."""

    def __init__(self) -> None:
        self.scope: list = []
        self.callers: set = set()

    def _visit_scope(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_scope

    def visit_Call(self, node: ast.Call) -> None:
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "vectorization_unsupported_reason":
            self.callers.add(".".join(self.scope) or "<module>")
        self.generic_visit(node)


#: A product graph has ``n * clique_size`` nodes, not ``n``; the sweep
#: covers both the default clique size and an explicit one.
PRODUCT_SPEC = {
    "name": "product-dry-run",
    "graph": {"family": "regular-product-clique", "params": {"n": 64, "d": 4}},
    "protocol": {"name": "push"},
    "sweep": {
        "axes": [
            {"path": "graph.params.clique_size", "values": [5, 3], "key": "clique"}
        ]
    },
    "repetitions": 3,
    "label": "product-{clique}",
}
DRY_RUN_SPECS = {path.name: path for path in SPEC_FILES}
DRY_RUN_SPECS["regular-product-clique"] = PRODUCT_SPEC


def test_product_node_count_counts_the_default_clique():
    spec = ScenarioSpec.from_dict(PRODUCT_SPEC)
    assert _point_node_count(spec) == 64 * 5


@pytest.mark.parametrize("name", sorted(DRY_RUN_SPECS))
def test_dry_run_plan_is_the_executed_plan(name, monkeypatch):
    source = DRY_RUN_SPECS[name]
    spec = (
        ScenarioSpec.from_dict(source) if isinstance(source, dict) else load_spec(source)
    )
    points = expand_points(spec)
    planned = [
        ExperimentRunner.plan_point(point.spec, _point_node_count(point.spec))
        for point in points
    ]

    table, refused = _dry_run_table(spec, None)
    assert refused == 0
    for row, plan in zip(table.rows, planned, strict=True):
        assert row["engine"] == _plan_engine(plan)
        assert row["batch_shape"] == f"({plan.rows}, {plan.n})"

    executed = []
    executed_seeds = []

    def recording_plan_run(*args, **kwargs):
        plan = plan_run(*args, **kwargs)
        executed.append(plan)
        return plan

    def recording_repeat_broadcast(*args, **kwargs):
        executed_seeds.append(", ".join(str(seed) for seed in kwargs["seeds"]))
        return repeat_broadcast(*args, **kwargs)

    monkeypatch.setattr(runner_module, "plan_run", recording_plan_run)
    monkeypatch.setattr(runner_module, "repeat_broadcast", recording_repeat_broadcast)
    run = run_spec(spec)
    assert executed == planned
    assert [row["seeds"] for row in table.rows] == executed_seeds
    for point, plan in zip(run.points, executed, strict=True):
        assert len(point.results) == spec.repetitions
        for result in point.results:
            assert result.metadata["engine"] == plan.engine
            assert ("batch_size" in result.metadata) == plan.batched
