"""Tests for the declarative scenario-spec API and the unified registries."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.exp_round_complexity import scenario as e1_scenario
from repro.experiments.runner import repeat_broadcast
from repro.experiments.workloads import SweepSizes
from repro.failures.registry import FAILURE_MODELS, build_failure_model
from repro.failures.message_loss import IndependentLoss, ReliableDelivery
from repro.graphs.configuration_model import connected_random_regular_graph
from repro.graphs.registry import GRAPH_FAMILIES, build_graph, graph_needs_rng
from repro.core.rng import RandomSource, derive_seed
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.push import PushProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.registry import PROTOCOLS
from repro.spec import (
    FailureSpec,
    GraphSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepAxis,
    SweepSpec,
    load_spec,
    run_spec,
    save_spec,
)


def small_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="test-scenario",
        graph=GraphSpec(family="connected-random-regular", params={"n": 64, "d": 6}),
        protocol=ProtocolSpec(name="push"),
        repetitions=2,
        master_seed=7,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


SPEC_VARIANTS = {
    "minimal": lambda: small_spec(),
    "protocol-params": lambda: small_spec(
        protocol=ProtocolSpec(name="algorithm1", params={"alpha": 1.5, "fanout": 3})
    ),
    "failure": lambda: small_spec(
        failure=FailureSpec(
            model="independent-loss",
            params={"transmission_loss_probability": 0.1},
        )
    ),
    "estimate-override": lambda: small_spec(
        protocol=ProtocolSpec(name="algorithm1", n_estimate=128)
    ),
    "config-overrides": lambda: small_spec(
        config={"stop_when_informed": False, "max_rounds": 50}
    ),
    "sweep": lambda: small_spec(
        sweep=SweepSpec(
            axes=(
                SweepAxis(path="protocol.name", values=("push", "pull"), key="protocol"),
                SweepAxis(path="graph.params.n", values=(64, 128)),
            )
        ),
        label="t-{protocol}",
    ),
    "complete-graph": lambda: small_spec(
        graph=GraphSpec(family="complete", params={"n": 32})
    ),
    "engine-batch": lambda: small_spec(engine="scalar", batch=False),
}


class TestRoundTrip:
    @pytest.mark.parametrize("variant", sorted(SPEC_VARIANTS))
    def test_dict_round_trip_is_identity(self, variant):
        spec = SPEC_VARIANTS[variant]()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("variant", sorted(SPEC_VARIANTS))
    def test_json_round_trip_is_identity(self, variant):
        spec = SPEC_VARIANTS[variant]()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_to_dict_is_json_serialisable_and_stable(self):
        spec = SPEC_VARIANTS["sweep"]()
        first = json.dumps(spec.to_dict())
        second = json.dumps(ScenarioSpec.from_dict(spec.to_dict()).to_dict())
        assert first == second

    def test_file_round_trip(self, tmp_path):
        spec = SPEC_VARIANTS["failure"]()
        path = save_spec(spec, tmp_path / "spec.json")
        assert load_spec(path) == spec

    def test_sub_spec_dicts_are_copies(self):
        spec = small_spec()
        data = spec.to_dict()
        data["graph"]["params"]["n"] = 999
        assert spec.graph.params["n"] == 64


class TestValidation:
    def test_unknown_protocol_named(self):
        with pytest.raises(ConfigurationError, match="telepathy"):
            ProtocolSpec(name="telepathy")

    def test_unknown_protocol_kwarg_named(self):
        with pytest.raises(ConfigurationError, match="fanout_typo"):
            ProtocolSpec(name="push", params={"fanout_typo": 2})

    def test_reserved_protocol_kwarg_rejected(self):
        with pytest.raises(ConfigurationError, match="n_estimate"):
            ProtocolSpec(name="push", params={"n_estimate": 64})

    def test_preset_protocol_validates_kwargs_eagerly(self):
        # push-pull-4 fixes fanout at 4; a fanout param must fail up front,
        # not mid-run with a raw TypeError.
        with pytest.raises(ConfigurationError, match="fanout"):
            ProtocolSpec(name="push-pull-4", params={"fanout": 2})
        with pytest.raises(ConfigurationError, match="fnout_typo"):
            ProtocolSpec(name="push-pull-4", params={"fnout_typo": 2})
        spec = ProtocolSpec(name="push-pull-4", params={"extra_loglog_rounds": 2.0})
        assert spec.build(64).name == "push-pull-4"

    def test_unknown_graph_family_named(self):
        with pytest.raises(ConfigurationError, match="moebius"):
            GraphSpec(family="moebius", params={"n": 4})

    def test_unknown_graph_kwarg_named(self):
        with pytest.raises(ConfigurationError, match="degre"):
            GraphSpec(family="complete", params={"n": 8, "degre": 3})

    def test_missing_required_graph_kwarg_named(self):
        with pytest.raises(ConfigurationError, match="'d'"):
            GraphSpec(family="random-regular", params={"n": 8})

    def test_unknown_failure_model_named(self):
        with pytest.raises(ConfigurationError, match="cosmic-rays"):
            FailureSpec(model="cosmic-rays")

    def test_unknown_failure_kwarg_named(self):
        with pytest.raises(ConfigurationError, match="strength"):
            FailureSpec(model="independent-loss", params={"strength": 0.5})

    def test_bad_sweep_path_named(self):
        with pytest.raises(ConfigurationError, match=r"protocol\.colour"):
            SweepAxis(path="protocol.colour", values=(1,))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            SweepAxis(path="graph.params.n", values=())

    def test_repeated_axis_value_rejected(self):
        with pytest.raises(ConfigurationError, match=r"graph\.params\.d"):
            SweepAxis(path="graph.params.d", values=(8, 8))

    def test_duplicate_axis_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            SweepSpec(
                axes=(
                    SweepAxis(path="graph.params.n", values=(8,)),
                    SweepAxis(path="protocol.params.fanout", values=(1,), key="n"),
                )
            )

    def test_engine_override_in_config_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            small_spec(config={"engine": "scalar"})

    def test_unknown_config_key_named(self):
        with pytest.raises(ConfigurationError, match="stop_when_infrmed"):
            small_spec(config={"stop_when_infrmed": False})

    def test_unknown_top_level_field_named(self):
        data = small_spec().to_dict()
        data["colour"] = "blue"
        with pytest.raises(ConfigurationError, match="colour"):
            ScenarioSpec.from_dict(data)

    def test_future_schema_rejected(self):
        data = small_spec().to_dict()
        data["schema"] = "repro.scenario/99"
        with pytest.raises(ConfigurationError, match="repro.scenario/99"):
            ScenarioSpec.from_dict(data)

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            ScenarioSpec.from_json("{not json")

    def test_invalid_point_value_fails_at_resolution(self):
        spec = small_spec(
            sweep=SweepSpec(
                axes=(SweepAxis(path="protocol.name", values=("push", "warp")),)
            )
        )
        with pytest.raises(ConfigurationError, match="warp"):
            list(spec.expand())

    def test_label_with_unknown_key_named(self):
        spec = small_spec(label="x-{missing_key}")
        with pytest.raises(ConfigurationError, match="missing_key"):
            spec.run_label()


class TestSweepExpansion:
    def test_row_major_first_axis_outermost(self):
        spec = SPEC_VARIANTS["sweep"]()
        points = [values for values, _ in spec.expand()]
        assert points == [
            {"protocol": "push", "n": 64},
            {"protocol": "push", "n": 128},
            {"protocol": "pull", "n": 64},
            {"protocol": "pull", "n": 128},
        ]

    def test_resolved_points_have_no_sweep(self):
        spec = SPEC_VARIANTS["sweep"]()
        for _, point in spec.expand():
            assert point.sweep is None

    def test_sweepless_spec_is_one_point(self):
        spec = small_spec()
        expanded = list(spec.expand())
        assert len(expanded) == 1
        assert expanded[0] == ({}, spec)


class TestRegistries:
    def test_all_graph_families_build(self):
        rng_params = {
            "random-regular": {"n": 16, "d": 4},
            "connected-random-regular": {"n": 16, "d": 4},
            "pairing-multigraph": {"n": 16, "d": 4},
            "complete": {"n": 8},
            "gnp": {"n": 16, "p": 0.3},
            "hypercube": {"dimension": 3},
            "ring": {"n": 8},
            "regular-product-clique": {"n": 8, "d": 3, "clique_size": 3},
        }
        assert set(rng_params) == set(GRAPH_FAMILIES.names())
        for family, params in rng_params.items():
            rng = RandomSource(seed=3) if graph_needs_rng(family) else None
            graph = build_graph(family, rng=rng, **params)
            assert graph.node_count >= 4

    def test_randomised_family_requires_rng(self):
        with pytest.raises(ConfigurationError, match="rng"):
            build_graph("gnp", n=8, p=0.5)

    def test_failure_models_build(self):
        assert isinstance(build_failure_model("reliable"), ReliableDelivery)
        model = build_failure_model(
            "independent-loss", transmission_loss_probability=0.2
        )
        assert isinstance(model, IndependentLoss)
        assert model.transmission_loss_probability == 0.2

    def test_registry_entries_document_params(self):
        for registry in (PROTOCOLS, GRAPH_FAMILIES, FAILURE_MODELS):
            described = registry.describe()
            assert described
            for name, (summary, _params) in described.items():
                assert isinstance(name, str) and summary

    def test_reliable_failure_spec_builds_to_none(self):
        assert FailureSpec().build() is None
        assert isinstance(
            FailureSpec(model="independent-loss").build(), IndependentLoss
        )


class TestSpecDrivenExecution:
    def test_seeding_rule_written_out(self):
        # The spec path's seeding rule, spelled out with the bare graph
        # builder, derive_seed and repeat_broadcast: it is the reference the
        # spec path is held to, down to per-round history.
        sizes, degree, reps, seed = [64, 128], 6, 2, 2008
        reference = []
        for name, protocol_class in {
            "push": PushProtocol,
            "push-pull": PushPullProtocol,
            "algorithm1": Algorithm1,
        }.items():
            for n in sizes:
                graph = connected_random_regular_graph(
                    n,
                    degree,
                    RandomSource(
                        seed=derive_seed(seed, "graph", n, degree, 0),
                        name=f"graph-{n}-{degree}-0",
                    ),
                )
                reference.extend(
                    repeat_broadcast(
                        graph=graph,
                        protocol_factory=lambda n_est, cls=protocol_class: cls(
                            n_estimate=n_est
                        ),
                        n_estimate=n,
                        seeds=[
                            derive_seed(seed, "run", f"e1-{name}-{n}-{degree}", i)
                            for i in range(reps)
                        ],
                    )
                )

        spec = e1_scenario(
            master_seed=seed,
            degree=degree,
            sizes=SweepSizes(sizes=sizes, repetitions=reps),
        )
        via_spec = run_spec(spec).results()

        assert len(reference) == len(via_spec) == 3 * len(sizes) * reps
        for ours, theirs in zip(reference, via_spec):
            assert ours.success == theirs.success
            assert ours.rounds_executed == theirs.rounds_executed
            assert ours.rounds_to_completion == theirs.rounds_to_completion
            assert ours.total_push_transmissions == theirs.total_push_transmissions
            assert ours.total_pull_transmissions == theirs.total_pull_transmissions
            assert ours.total_channels_opened == theirs.total_channels_opened
            assert ours.history == theirs.history

    def test_results_record_the_resolved_point_spec(self):
        spec = SPEC_VARIANTS["sweep"]()
        run = run_spec(spec)
        for point in run.points:
            for result in point.results:
                recorded = result.metadata["spec"]
                assert recorded == point.spec.to_dict()
                assert recorded["sweep"] is None
        names = [p.spec.protocol.name for p in run.points]
        assert names == ["push", "push", "pull", "pull"]
        # Every result owns its record: editing one leaves its siblings alone.
        first, second = run.points[0].results
        first.metadata["spec"]["name"] = "edited"
        first.metadata["spec"]["graph"]["params"]["n"] = -1
        assert second.metadata["spec"] == run.points[0].spec.to_dict()

    def test_rerunning_a_recorded_point_spec_reproduces_the_result(self):
        run = run_spec(SPEC_VARIANTS["failure"]())
        original = run.points[0].results[0]
        replay_spec = ScenarioSpec.from_dict(original.metadata["spec"])
        replay = run_spec(replay_spec).results()[0]
        assert replay.total_transmissions == original.total_transmissions
        assert replay.rounds_executed == original.rounds_executed
        assert replay.history == original.history

    def test_recorded_point_spec_replays_when_label_uses_axis_keys(self):
        # Regression: the resolved point spec must bake the *formatted* label,
        # not the raw template — "{loss}" only exists while the sweep axis
        # (key "loss") provides it, and the label feeds the seed derivation.
        spec = small_spec(
            failure=FailureSpec(
                model="independent-loss",
                params={"transmission_loss_probability": 0.0},
            ),
            sweep=SweepSpec(
                axes=(
                    SweepAxis(
                        path="failure.params.transmission_loss_probability",
                        values=(0.0, 0.2),
                        key="loss",
                    ),
                )
            ),
            label="lbl-{protocol}-{loss}",
        )
        run = run_spec(spec)
        for point in run.points:
            assert point.spec.label == point.label  # baked, not the template
            replay_spec = ScenarioSpec.from_dict(point.results[0].metadata["spec"])
            replay = run_spec(replay_spec).results()[0]
            assert replay.history == point.results[0].history
            assert replay.total_transmissions == point.results[0].total_transmissions

    def test_graph_instance_axis_yields_independent_graphs(self):
        # Regression: the regular-graph fast path must forward the spec's
        # instance index; distinct instances are independent graph draws.
        spec = small_spec(
            sweep=SweepSpec(axes=(SweepAxis(path="graph.instance", values=(0, 1)),))
        )
        run = run_spec(spec)
        first, second = (point.results[0] for point in run.points)
        assert first.history != second.history

    def test_non_regular_families_run(self):
        run = run_spec(SPEC_VARIANTS["complete-graph"]())
        assert run.points[0].aggregate.success_rate == 1.0

    def test_engine_and_batch_knobs_respected(self):
        run = run_spec(SPEC_VARIANTS["engine-batch"]())
        result = run.points[0].results[0]
        assert result.metadata["engine"] == "scalar"
        assert "batch_size" not in result.metadata

    def test_config_overrides_apply(self):
        run = run_spec(SPEC_VARIANTS["config-overrides"]())
        result = run.points[0].results[0]
        # stop_when_informed=False runs the protocol's full schedule.
        assert result.rounds_executed >= (result.rounds_to_completion or 0)

    def test_to_table_carries_axis_columns_and_spec_metadata(self):
        spec = SPEC_VARIANTS["sweep"]()
        table = run_spec(spec).to_table()
        assert table.columns[:2] == ["protocol", "n"]
        assert len(table.rows) == 4
        assert table.metadata["spec"] == spec.to_dict()

    def test_bundled_example_specs_load_and_run(self):
        from pathlib import Path

        specs_dir = Path(__file__).resolve().parent.parent / "examples" / "specs"
        spec = load_spec(specs_dir / "e1_round_complexity.json")
        assert spec == e1_scenario(quick=True)
        loss_spec = load_spec(specs_dir / "push_loss_sweep.json")
        assert loss_spec.sweep is not None and loss_spec.sweep.size == 6
