"""Tests for the distributed sweep executor (repro.dist).

Covers the partition invariants (every grid point assigned exactly once for
any shard count), bit-identical serial/parallel parity down to per-round
history, merge independence of shard/completion order, resume and shard
reassembly from a stream directory, the RunResult wire format, and the CLI
surface (``run-spec --workers/--shard/--stream-dir/--resume/--dry-run``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import repro.core.registry as registry_module
from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.core.metrics import RoundRecord, RunResult
from repro.core.registry import Registry
from repro.dist import (
    ParallelScenarioExecutor,
    PointProgress,
    expand_points,
    merge_runs,
    parse_shard,
    select_indices,
    shard_indices,
    spec_fingerprint,
    stream_payloads,
)
from repro.experiments.registry import run_experiment_by_id
from repro.failures.churn_registry import CHURN_MODELS
from repro.failures.registry import FAILURE_MODELS
from repro.graphs.registry import GRAPH_FAMILIES
from repro.protocols.registry import PROTOCOLS
from repro.experiments.results_io import load_table_json, save_table_json
from repro.spec import (
    FailureSpec,
    GraphSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepAxis,
    SweepSpec,
    run_spec,
    save_spec,
)


def sweep_spec(**overrides) -> ScenarioSpec:
    """A small two-axis grid (2 protocols x 2 sizes, 2 seeds per point)."""
    defaults = dict(
        name="dist-test",
        graph=GraphSpec(family="connected-random-regular", params={"n": 64, "d": 6}),
        protocol=ProtocolSpec(name="push"),
        sweep=SweepSpec(
            axes=(
                SweepAxis(path="protocol.name", values=("push", "pull"), key="protocol"),
                SweepAxis(path="graph.params.n", values=(64, 128)),
            )
        ),
        repetitions=2,
        master_seed=7,
        label="d-{protocol}",
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def assert_bit_identical(left, right):
    """Both ScenarioRuns hold equal points and per-round histories."""
    assert len(left.points) == len(right.points)
    for ours, theirs in zip(left.points, right.points):
        assert ours.index == theirs.index
        assert ours.values == theirs.values
        assert ours.label == theirs.label
        assert ours.spec == theirs.spec
        assert len(ours.results) == len(theirs.results)
        for a, b in zip(ours.results, theirs.results):
            assert a.history == b.history  # per-round parity
            assert a == b  # full dataclass equality (all counters + metadata)


class TestPartition:
    @pytest.mark.parametrize("total", [0, 1, 2, 5, 7, 12, 16, 100])
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 16, 20])
    def test_every_point_assigned_exactly_once(self, total, count):
        combined = []
        for index in range(count):
            combined.extend(shard_indices(total, index, count))
        assert combined == list(range(total))

    @pytest.mark.parametrize("total,count", [(10, 3), (7, 2), (100, 16)])
    def test_shards_balanced_within_one_point(self, total, count):
        sizes = [len(shard_indices(total, i, count)) for i in range(count)]
        assert max(sizes) - min(sizes) <= 1

    def test_parse_shard_forms(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        assert parse_shard((1, 2)) == (1, 2)

    @pytest.mark.parametrize("bad", ["4/4", "-1/4", "1/0", "a/b", "1", "1/2/3", (2, 2)])
    def test_parse_shard_rejects_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            parse_shard(bad)

    def test_select_indices_slice_and_explicit(self):
        assert select_indices(6, points=slice(1, 4)) == [1, 2, 3]
        assert select_indices(6, points=[5, 0, 2]) == [0, 2, 5]
        with pytest.raises(ConfigurationError, match="out of range"):
            select_indices(6, points=[6])
        with pytest.raises(ConfigurationError, match="duplicates"):
            select_indices(6, points=[1, 1])

    def test_select_indices_shard_composes_with_points(self):
        # Shard partitions the points-filtered list, not the raw grid.
        subset = select_indices(10, points=slice(2, 8))  # [2..7]
        left = select_indices(10, shard="0/2", points=slice(2, 8))
        right = select_indices(10, shard="1/2", points=slice(2, 8))
        assert left + right == subset

    def test_expand_points_bakes_labels_row_major(self):
        points = expand_points(sweep_spec())
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert [p.label for p in points] == ["d-push", "d-push", "d-pull", "d-pull"]
        assert points[1].values == {"protocol": "push", "n": 128}
        for point in points:
            assert point.spec.sweep is None
            assert point.spec.label == point.label  # baked, not the template


class TestWireFormat:
    def test_run_result_round_trips_bit_exactly(self):
        lossy = FailureSpec(
            model="independent-loss",
            params={"transmission_loss_probability": 0.1},
        )
        algorithm1 = run_spec(
            sweep_spec(
                graph=GraphSpec(
                    family="connected-random-regular", params={"n": 256, "d": 8}
                ),
                protocol=ProtocolSpec(name="algorithm1"),
                failure=FailureSpec(
                    model="independent-loss",
                    params={"transmission_loss_probability": 0.3},
                ),
                sweep=None,
            )
        ).results()
        assert len({record.phase for record in algorithm1[0].history}) > 1
        assert any(record.lost_transmissions for record in algorithm1[0].history)
        empty = RunResult(
            n=1,
            protocol="push",
            source=0,
            success=True,
            rounds_executed=0,
            rounds_to_completion=0,
            total_push_transmissions=0,
            total_pull_transmissions=0,
            total_channels_opened=0,
            total_lost_transmissions=0,
            final_informed=1,
        )
        results = [*run_spec(sweep_spec(failure=lossy)).results(), *algorithm1, empty]
        for result in results:
            encoded = result.to_dict()
            history = encoded["history"]
            assert len(history) == len(fields(RoundRecord)) == 8
            assert {len(column) for column in history} == {len(result.history)}
            for column in history[:-1]:
                assert all(type(value) is int for value in column)
            assert all(type(value) is str for value in history[-1])
            wire = json.loads(json.dumps(encoded))
            assert wire == encoded
            restored = type(result).from_dict(wire)
            assert restored == result
            assert restored.history == result.history
            assert restored.metadata == result.metadata

    def test_to_dict_is_json_safe(self):
        result = run_spec(sweep_spec()).results()[0]
        json.dumps(result.to_dict())  # must not raise


def twelve_point_grid() -> ScenarioSpec:
    """A lossy 3 protocols x 2 sizes x 2 loss rates grid, 2 seeds per point."""
    return sweep_spec(
        failure=FailureSpec(
            model="independent-loss", params={"transmission_loss_probability": 0.0}
        ),
        sweep=SweepSpec(
            axes=(
                SweepAxis(
                    path="protocol.name",
                    values=("push", "pull", "push-pull"),
                    key="protocol",
                ),
                SweepAxis(path="graph.params.n", values=(64, 128)),
                SweepAxis(
                    path="failure.params.transmission_loss_probability",
                    values=(0.0, 0.1),
                    key="loss",
                ),
            )
        ),
    )


class TestPerPointBookkeeping:
    """One grid point costs one validation, one shipment and one record.

    ``workers=1`` runs the worker code in-process, so every count below
    includes the worker's side of the wire.
    """

    def run_streamed(self, directory):
        return run_spec(
            twelve_point_grid(), workers=1, stream_dir=directory, stream_durable=False
        )

    def test_spec_parsed_twice_per_point(self, tmp_path, monkeypatch):
        parse = ScenarioSpec.from_dict.__func__
        calls = []

        def counting(cls, data):
            calls.append(data)
            return parse(cls, data)

        monkeypatch.setattr(ScenarioSpec, "from_dict", classmethod(counting))
        run = self.run_streamed(tmp_path)
        # Once to resolve the point while expanding the grid, once to decode
        # its record; the worker runs the spec object it was shipped.
        assert len(run.points) == 12
        assert len(calls) == 2 * 12

    def test_builder_signature_derived_once_per_entry(self, tmp_path, monkeypatch):
        derived = Counter()
        signature = registry_module.inspect.signature

        def counting(target, *args, **kwargs):
            derived[id(target)] += 1
            return signature(target, *args, **kwargs)

        monkeypatch.setattr(registry_module.inspect, "signature", counting)
        self.run_streamed(tmp_path)
        for registry in (PROTOCOLS, GRAPH_FAMILIES, FAILURE_MODELS, CHURN_MODELS):
            for entry in registry:
                assert derived[id(entry.builder)] <= 1, entry.name

        def build_widget(size, colour="red"):
            return (size, colour)

        widgets = Registry("widget")
        widgets.register("box", build_widget)
        for _ in range(3):
            widgets.validate_kwargs("box", {"size": 1})
            assert widgets.missing_required("box", {}) == ["size"]
            assert widgets.entry("box").accepted_kwargs() == {"size", "colour"}
        assert derived[id(build_widget)] == 1

    def test_record_holds_point_spec_once(self, tmp_path):
        run = self.run_streamed(tmp_path)
        records = [
            line
            for segment in sorted(tmp_path.glob("segment-*.jsonl"))
            for line in segment.read_bytes().splitlines()
        ]
        assert len(records) == 12
        for record in records:
            assert record.count(b'"master_seed"') == 1
        for point in run.points:
            for result in point.results:
                assert result.metadata["spec"] == point.spec.to_dict()
        assert_bit_identical(run_spec(twelve_point_grid()), run)


class TestParallelParity:
    def test_two_workers_bit_identical_to_serial(self):
        spec = sweep_spec()
        serial = run_spec(spec)
        parallel = run_spec(spec, workers=2)
        assert_bit_identical(serial, parallel)

    def test_single_worker_inline_path_bit_identical(self):
        spec = sweep_spec()
        assert_bit_identical(run_spec(spec), run_spec(spec, workers=1))

    def test_provenance_recorded_and_table_parity(self):
        spec = sweep_spec()
        serial_table = run_spec(spec).to_table()
        parallel_run = run_spec(spec, workers=2)
        parallel_table = parallel_run.to_table()
        assert parallel_run.provenance["workers"] == 2
        assert parallel_run.provenance["points_total"] == 4
        assert parallel_table.rows == serial_table.rows
        assert parallel_table.notes == serial_table.notes
        assert parallel_table.metadata["spec"] == serial_table.metadata["spec"]
        assert parallel_table.metadata["distributed"]["workers"] == 2
        assert "distributed" not in serial_table.metadata

    def test_sweepless_spec_runs_parallel(self):
        spec = sweep_spec(sweep=None)
        assert_bit_identical(run_spec(spec), run_spec(spec, workers=2))


class TestShardingAndMerge:
    def test_shard_runs_cover_grid_and_merge_to_serial(self):
        spec = sweep_spec()
        serial = run_spec(spec)
        shards = [run_spec(spec, shard=(i, 3)) for i in range(3)]
        assert sum(len(s.points) for s in shards) == 4
        merged = merge_runs(shards)
        assert_bit_identical(serial, merged)

    def test_merge_independent_of_shard_order(self):
        spec = sweep_spec()
        serial = run_spec(spec)
        shards = [run_spec(spec, shard=(i, 2)) for i in range(2)]
        assert_bit_identical(serial, merge_runs(list(reversed(shards))))

    def test_merge_rejects_overlapping_shards(self):
        spec = sweep_spec()
        shard = run_spec(spec, shard=(0, 2))
        with pytest.raises(ConfigurationError, match="more than one shard"):
            merge_runs([shard, shard])

    def test_merge_rejects_incomplete_coverage(self):
        spec = sweep_spec()
        with pytest.raises(ConfigurationError, match="missing point"):
            merge_runs([run_spec(spec, shard=(0, 2))])

    def test_merge_rejects_mixed_scenarios(self):
        with pytest.raises(ConfigurationError, match="different scenarios"):
            merge_runs(
                [
                    run_spec(sweep_spec(), shard=(0, 2)),
                    run_spec(sweep_spec(master_seed=8), shard=(1, 2)),
                ]
            )

    def test_merge_rejects_point_quarantined_by_two_shards(self):
        # The same point quarantined by two shards means the same shard spec
        # ran twice — silently keeping either record would hide that.
        spec = sweep_spec()
        shard = run_spec(spec, shard=(0, 2))
        complement = run_spec(spec, shard=(1, 2))
        failure = {"index": 2, "label": "d-push", "attempts": 3,
                   "error_type": "Boom", "message": "x", "errors": []}
        shard.points = [p for p in shard.points]
        complement.points = [p for p in complement.points if p.index != 2]
        complement.provenance["failures"] = [dict(failure)]
        duplicate = run_spec(spec, points=[3])
        duplicate.provenance["failures"] = [dict(failure)]
        duplicate.points = []
        with pytest.raises(ConfigurationError, match="more than one"):
            merge_runs([shard, complement, duplicate])

    def test_merge_rejects_point_both_completed_and_quarantined(self):
        # One shard completed the point, another quarantined it: the shards
        # overlapped and disagreed — refuse instead of preferring either.
        spec = sweep_spec()
        left = run_spec(spec, shard=(0, 2))
        right = run_spec(spec, shard=(1, 2))
        right.provenance["failures"] = [
            {"index": 0, "label": "d-push", "attempts": 3,
             "error_type": "Boom", "message": "x", "errors": []}
        ]
        with pytest.raises(ConfigurationError, match="completed in one shard"):
            merge_runs([left, right])

    def test_points_slice_selects_subset(self):
        spec = sweep_spec()
        partial = run_spec(spec, points=slice(1, 3))
        assert [p.index for p in partial.points] == [1, 2]
        serial = run_spec(spec)
        assert partial.points[0].results == serial.points[1].results

    def test_cross_host_reassembly_via_shared_stream_dir(self, tmp_path):
        # The documented multi-host pattern (docs/API.md §9): every shard
        # streams into (what ends up as) one directory, and a final
        # unsharded resume reassembles the full grid without re-running
        # anything.
        spec = sweep_spec()
        serial = run_spec(spec)
        for i in range(2):
            run_spec(spec, shard=(i, 2), stream_dir=tmp_path)
        full = run_spec(spec, stream_dir=tmp_path, resume=True)
        assert_bit_identical(serial, full)
        assert full.provenance["points_run"] == 0
        assert full.provenance["points_resumed"] == 4


class TestStreamResume:
    def test_resume_skips_exactly_the_streamed_points(self, tmp_path):
        spec = sweep_spec()
        serial = run_spec(spec)
        run_spec(spec, points=slice(0, 2), stream_dir=tmp_path)
        assert [r["index"] for r in stream_payloads(tmp_path, spec)] == [0, 1]

        events = []
        resumed = run_spec(
            spec, workers=2, stream_dir=tmp_path, resume=True,
            progress=events.append,
        )
        assert_bit_identical(serial, resumed)
        by_source = {e.index: e.source for e in events}
        assert by_source == {0: "stream", 1: "stream", 2: "run", 3: "run"}
        assert resumed.provenance["points_resumed"] == 2
        assert resumed.provenance["points_run"] == 2
        # The resumed run streamed the remaining points too.
        assert [r["index"] for r in stream_payloads(tmp_path, spec)] == [
            0, 1, 2, 3
        ]

    def test_resume_requires_stream_dir(self):
        with pytest.raises(ConfigurationError, match="stream_dir"):
            run_spec(sweep_spec(), resume=True)

    def test_mismatched_spec_fingerprint_rejected(self, tmp_path):
        run_spec(sweep_spec(), stream_dir=tmp_path)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            run_spec(
                sweep_spec(master_seed=8), stream_dir=tmp_path, resume=True
            )

    def test_fingerprint_is_content_addressed(self):
        assert spec_fingerprint(sweep_spec()) == spec_fingerprint(sweep_spec())
        assert spec_fingerprint(sweep_spec()) != spec_fingerprint(
            sweep_spec(master_seed=8)
        )

    def test_stream_files_are_plain_json(self, tmp_path):
        spec = sweep_spec()
        run_spec(spec, stream_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fingerprint"] == spec_fingerprint(spec)
        records = list(stream_payloads(tmp_path, spec))
        assert [r["index"] for r in records] == [0, 1, 2, 3]
        record = records[0]
        assert record["label"] == "d-push"
        assert isinstance(record["results"], list)


class TestProgressHook:
    def test_serial_path_emits_one_event_per_point(self):
        events = []
        run_spec(sweep_spec(), progress=events.append)
        assert [e.index for e in events] == [0, 1, 2, 3]
        assert all(isinstance(e, PointProgress) for e in events)
        assert all(e.total == 4 and e.source == "run" for e in events)
        assert all(e.elapsed_seconds >= 0.0 for e in events)

    def test_parallel_path_emits_one_event_per_point(self):
        events = []
        run_spec(sweep_spec(), workers=2, progress=events.append)
        assert sorted(e.index for e in events) == [0, 1, 2, 3]
        assert {e.label for e in events} == {"d-push", "d-pull"}


class TestExecutorValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ParallelScenarioExecutor(workers=0)

    def test_e1_experiment_supports_workers(self):
        from repro.experiments.workloads import SweepSizes
        from repro.experiments.exp_round_complexity import run_experiment

        sizes = SweepSizes(sizes=[64], repetitions=2)
        serial = run_experiment(sizes=sizes)
        parallel = run_experiment(sizes=sizes, workers=2)
        assert parallel.rows == serial.rows
        assert parallel.metadata["distributed"]["workers"] == 2
        assert "distributed" not in serial.metadata

    def test_multi_spec_experiments_support_workers(self):
        # Several specs per table, churn points and non-regular graph
        # families all go through the pool and come back with the serial rows.
        from repro.experiments.exp_churn import run_experiment as run_e8
        from repro.experiments.exp_counterexample import run_experiment as run_e13
        from repro.experiments.exp_message_complexity import run_experiment as run_e2
        from repro.experiments.workloads import SweepSizes

        for run_experiment, kwargs in (
            (run_e2, {"sizes": SweepSizes(sizes=[64, 128], repetitions=2)}),
            (run_e8, {"n": 128, "churn_rates": [(0.0, 0.0), (0.01, 0.01)]}),
            (run_e13, {"base_nodes": 32, "degree": 4, "clique_size": 3}),
        ):
            serial = run_experiment(**kwargs)
            parallel = run_experiment(workers=2, **kwargs)
            assert parallel.rows == serial.rows
            assert parallel.notes == serial.notes
            assert parallel.metadata["specs"] == serial.metadata["specs"]
            assert [p["workers"] for p in parallel.metadata["distributed"]] == [2, 2]
            assert "distributed" not in serial.metadata

    def test_registry_rejects_workers_for_unsupporting_experiments(self):
        from repro.core.errors import ExperimentError

        # E11 (the replicated database) is not a broadcast and has no spec.
        with pytest.raises(ExperimentError, match="workers"):
            run_experiment_by_id("E11", workers=2)


class TestDistributedTablesRoundTrip:
    def test_saved_distributed_table_round_trips(self, tmp_path):
        table = run_spec(sweep_spec(), workers=2).to_table()
        path = save_table_json(table, tmp_path / "table.json")
        loaded = load_table_json(path)
        assert loaded.rows == table.rows
        assert loaded.metadata["distributed"] == table.metadata["distributed"]
        assert loaded.metadata["spec"] == table.metadata["spec"]


class TestCLI:
    def _write_spec(self, tmp_path) -> Path:
        return save_spec(sweep_spec(), tmp_path / "spec.json")

    def test_dry_run_prints_grid_without_running(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        assert main(["run-spec", str(path), "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "dry run: dist-test" in output
        assert "d-push" in output and "d-pull" in output
        assert "seeds" in output
        assert "success_rate" not in output  # nothing executed

    def test_dry_run_honours_shard(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        assert main(["run-spec", str(path), "--dry-run", "--shard", "1/2"]) == 0
        output = capsys.readouterr().out
        assert "shard 1/2 selects 2 of 4" in output

    def test_dry_run_predicts_batch_shape_and_engine(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        assert main(["run-spec", str(path), "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "batch_shape" in output and "est_state_mb" in output
        # 2 seeds per point, sizes 64 and 128, push/pull both batchable.
        assert "(2, 64)" in output and "(2, 128)" in output
        assert "vectorized (batched)" in output
        assert "est_state_mb" in output

    def test_dry_run_predicts_scalar_for_forced_scalar_spec(self, tmp_path, capsys):
        path = save_spec(sweep_spec(engine="scalar"), tmp_path / "scalar.json")
        assert main(["run-spec", str(path), "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "scalar (forced)" in output

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_dry_run_honours_config_block_under_forced_engine(
        self, tmp_path, capsys, engine
    ):
        spec = sweep_spec(engine=engine, config={"max_rounds": 60})
        path = save_spec(spec, tmp_path / f"{engine}.json")
        assert main(["run-spec", str(path), "--dry-run"]) == 0
        output = capsys.readouterr().out
        if engine == "scalar":
            assert "scalar (forced)" in output and "vectorized" not in output
            assert "(1, 64)" in output and "(2, 64)" not in output
        else:
            assert "vectorized (batched)" in output and "scalar" not in output
        result = run_spec(spec).points[0].results[0]
        assert result.metadata["engine"] == engine

    def test_dry_run_refuses_what_run_spec_refuses(self, tmp_path, capsys):
        from repro.core.errors import SimulationError

        spec = sweep_spec(
            engine="vectorized",
            sweep=SweepSpec(
                axes=(
                    SweepAxis(
                        path="protocol.name",
                        values=("push", "median-counter"),
                        key="protocol",
                    ),
                )
            ),
        )
        path = save_spec(spec, tmp_path / "refused.json")
        assert main(["run-spec", str(path), "--dry-run"]) == 1
        output = capsys.readouterr().out
        with pytest.raises(SimulationError) as raised:
            run_spec(spec)
        assert f"refused ({raised.value})" in output
        assert "median-counter' does not implement the bulk hooks" in output
        assert "vectorized (batched)" in output  # the push point still plans
        assert "1 point(s) refused" in output

    def test_workers_flag_matches_serial_save(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main(["run-spec", str(path), "--save", str(serial_out)]) == 0
        assert main(
            ["run-spec", str(path), "--workers", "2", "--save", str(parallel_out)]
        ) == 0
        capsys.readouterr()
        serial = load_table_json(serial_out)
        parallel = load_table_json(parallel_out)
        assert parallel.rows == serial.rows
        assert parallel.metadata["spec"] == serial.metadata["spec"]
        assert parallel.metadata["distributed"]["workers"] == 2

    def test_progress_flag_prints_to_stderr(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        assert main(["run-spec", str(path), "--progress"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("done in") == 4

    def test_experiment_workers_flag(self, capsys):
        # E11 has no parallel path: the registry must say so clearly.
        with pytest.raises(Exception, match="workers"):
            main(["experiment", "E11", "--workers", "2"])


class TestGraphCachePriming:
    def test_parallel_pool_builds_each_graph_once(self):
        # 2 protocols x 2 sizes = 4 points over 2 distinct graphs: the
        # graph-first grouping must route both points of one graph to one
        # worker, so the pool builds exactly graphs_distinct graphs instead
        # of rebuilding them per sibling point.
        run = run_spec(sweep_spec(), workers=2)
        assert run.provenance["graphs_distinct"] == 2
        assert run.provenance["graph_builds"] == 2

    def test_grouping_keeps_bit_parity_and_grid_order(self):
        serial = run_spec(sweep_spec())
        grouped = run_spec(sweep_spec(), workers=2)
        assert [p.index for p in grouped.points] == [p.index for p in serial.points]
        assert_bit_identical(serial, grouped)

    def test_single_worker_path_counts_builds(self):
        run = run_spec(sweep_spec(), workers=1)
        assert run.provenance["graph_builds"] == 2
        assert run.provenance["graphs_distinct"] == 2

    def test_resume_skips_builds_for_streamed_points(self, tmp_path):
        spec = sweep_spec()
        run_spec(spec, workers=1, stream_dir=tmp_path)
        resumed = run_spec(spec, workers=1, stream_dir=tmp_path, resume=True)
        assert resumed.provenance["points_resumed"] == 4
        assert resumed.provenance["graph_builds"] == 0
        assert resumed.provenance["graphs_distinct"] == 0

    def test_single_graph_sweep_still_uses_the_whole_pool(self):
        # All four points share one graph; the group must be split across
        # the workers (graph built once per worker at worst) instead of
        # serialising the sweep onto a single process.
        from repro.dist.executor import _group_by_graph
        from repro.dist.partition import expand_points

        spec = sweep_spec(
            sweep=SweepSpec(
                axes=(
                    SweepAxis(
                        path="protocol.name",
                        values=("push", "pull", "push-pull", "algorithm1"),
                        key="protocol",
                    ),
                )
            )
        )
        groups = _group_by_graph(expand_points(spec), workers=2)
        assert len(groups) == 2
        assert sorted(len(g) for g in groups) == [2, 2]
        run = run_spec(spec, workers=2)
        assert run.provenance["graphs_distinct"] == 1
        # At most one build per worker that received a chunk.
        assert 1 <= run.provenance["graph_builds"] <= 2
        assert_bit_identical(run_spec(spec), run)

    def test_workers_one_groups_preserve_grid_order(self):
        from repro.dist.executor import _group_by_graph
        from repro.dist.partition import expand_points

        groups = _group_by_graph(expand_points(sweep_spec()), workers=1)
        assert [task[0] for group in groups for task in group] == [0, 1, 2, 3]


class TestInterruptShutdown:
    """Clean SIGINT/SIGTERM shutdown, tested deterministically.

    A real signal cannot land at a reproducible moment, so the executor's
    interrupt path is driven by an ``interrupt`` fault rule: the flag the
    signal handler would set is raised after a chosen point completes, and
    everything downstream (pool teardown, stream flush, resumability) is the
    production code path.
    """

    def test_interrupt_flushes_the_stream_and_resumes(self, tmp_path):
        from repro.dist import SweepInterrupted
        from repro.faultinject import FaultPlan, FaultRule

        spec = sweep_spec()
        serial = run_spec(spec)
        plan = FaultPlan(rules=(FaultRule(kind="interrupt", index=0),))
        with pytest.raises(SweepInterrupted, match="resume"):
            run_spec(spec, workers=2, stream_dir=tmp_path, fault_plan=plan)
        # Completed points reached the stream; no half-written temps.
        flushed = list(stream_payloads(tmp_path, spec))
        assert flushed  # at least the interrupting point itself
        assert not list(tmp_path.glob("*.tmp"))
        resumed = run_spec(spec, workers=2, stream_dir=tmp_path, resume=True)
        assert_bit_identical(serial, resumed)
        assert resumed.provenance["points_resumed"] >= 1

    def test_interrupt_reports_progress_counts(self, tmp_path):
        from repro.dist import SweepInterrupted
        from repro.faultinject import FaultPlan, FaultRule

        spec = sweep_spec()
        plan = FaultPlan(rules=(FaultRule(kind="interrupt", index=1),))
        with pytest.raises(SweepInterrupted) as excinfo:
            run_spec(spec, stream_dir=tmp_path, fault_plan=plan)
        interrupted = excinfo.value
        # The inline path stops right after the interrupting point, so the
        # counts are exact: points 0 and 1 completed, 2 and 3 did not.
        assert interrupted.completed == 2
        assert interrupted.total == 4
        assert str(tmp_path) in str(interrupted)

    def test_interrupt_without_stream_dir_still_clean(self):
        from repro.dist import SweepInterrupted
        from repro.faultinject import FaultPlan, FaultRule

        plan = FaultPlan(rules=(FaultRule(kind="interrupt", index=0),))
        with pytest.raises(
            SweepInterrupted, match="re-run with a stream directory"
        ):
            run_spec(sweep_spec(), workers=2, fault_plan=plan)


class TestCLIEagerResumeValidation:
    def test_resume_without_stream_dir_fails_before_running(self, tmp_path):
        path = save_spec(sweep_spec(), tmp_path / "spec.json")
        with pytest.raises(ConfigurationError, match="--stream-dir"):
            main(["run-spec", str(path), "--resume"])

    def test_resume_without_stream_dir_fails_even_for_missing_spec(self):
        # Eager: the flag combination is rejected before the spec file is
        # even opened, so a long sweep is never silently restarted.
        with pytest.raises(ConfigurationError, match="--stream-dir"):
            main(["run-spec", "/nonexistent/spec.json", "--resume"])

    def test_checkpoint_dir_flag_is_gone(self, tmp_path, capsys):
        # Per-point checkpoints were folded into the stream directory; the
        # old flag is rejected by argparse rather than silently ignored.
        path = save_spec(sweep_spec(), tmp_path / "spec.json")
        with pytest.raises(SystemExit) as excinfo:
            main(["run-spec", str(path), "--checkpoint-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err
