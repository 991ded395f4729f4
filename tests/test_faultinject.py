"""Chaos suite: deterministic fault injection against the resilient executor.

The cardinal invariant under test: a sweep that survives injected faults —
worker kills, transient exceptions, timeout stalls — is **bit-identical,
down to per-round history, to the clean serial run**.  (Torn durable writes
are the streaming sink's ``torn-write`` plan, covered in
``tests/test_sink.py``.)
Recovery only re-executes points, and the seed = f(master, label) discipline
makes re-execution invisible.

Every fault here is planned data (:class:`repro.faultinject.FaultPlan`), so
each failure mode strikes the same point on the same dispatch in every test
run: no flaky signals, no timing races deciding *what* fails.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.dist import (
    PointFailure,
    RetryPolicy,
    WorkerPoolError,
    backoff_delay,
    merge_runs,
)
from repro.faultinject import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedTransientError,
    bundled_plans,
    load_plan,
    save_plan,
)
from repro.spec import run_spec

from test_dist import assert_bit_identical, sweep_spec


#: Retry policy used by the chaos runs: fast backoff so the suite stays
#: quick, and a short per-point budget so stall detection actually triggers.
CHAOS_RETRY = RetryPolicy(
    max_attempts=3,
    backoff_seconds=0.01,
    backoff_max_seconds=0.1,
    timeout_seconds=2.0,
)


@pytest.fixture(scope="module")
def spec():
    return sweep_spec()


@pytest.fixture(scope="module")
def serial(spec):
    return run_spec(spec)


class TestChaosParity:
    """Each survivable bundled plan leaves the results bit-identical."""

    def test_worker_kill_is_survived_bit_identically(self, spec, serial):
        plan = bundled_plans(4)["worker-kill"]
        chaos = run_spec(spec, workers=2, retry=CHAOS_RETRY, fault_plan=plan)
        assert_bit_identical(serial, chaos)
        assert chaos.provenance["pool_restarts"] >= 1
        assert chaos.provenance["failures"] == []

    def test_transient_double_fault_is_retried_bit_identically(self, spec, serial):
        # The same point fails on its first AND second dispatch; the third
        # attempt succeeds inside the default budget of 3.
        plan = bundled_plans(4)["transient-double"]
        chaos = run_spec(spec, workers=2, retry=CHAOS_RETRY, fault_plan=plan)
        assert_bit_identical(serial, chaos)
        assert chaos.provenance["retries"] == 2
        assert chaos.provenance["failures"] == []

    def test_timeout_stall_is_survived_bit_identically(self, spec, serial):
        # One point sleeps far past its wall-clock budget: the pool is
        # restarted, the overdue point is charged one attempt and retried.
        plan = bundled_plans(4)["timeout-stall"]
        chaos = run_spec(spec, workers=2, retry=CHAOS_RETRY, fault_plan=plan)
        assert_bit_identical(serial, chaos)
        assert chaos.provenance["pool_restarts"] >= 1
        assert chaos.provenance["retries"] >= 1
        assert chaos.provenance["failures"] == []

    def test_inline_path_survives_transient_faults(self, spec, serial):
        # workers=1 exercises the in-process recovery loop.
        plan = bundled_plans(4)["transient-double"]
        chaos = run_spec(spec, workers=1, retry=CHAOS_RETRY, fault_plan=plan)
        assert_bit_identical(serial, chaos)
        assert chaos.provenance["retries"] == 2


class TestQuarantine:
    def test_poison_point_quarantined_others_complete(self, spec, serial):
        # dispatches=() fails the point on *every* attempt: the retry budget
        # runs out, the point is quarantined, and the sweep completes.
        plan = bundled_plans(4)["poison-point"]
        chaos = run_spec(spec, workers=2, retry=CHAOS_RETRY, fault_plan=plan)
        failures = chaos.provenance["failures"]
        assert [f["index"] for f in failures] == [3]
        assert failures[0]["attempts"] == CHAOS_RETRY.max_attempts
        assert failures[0]["error_type"] == "InjectedTransientError"
        assert len(failures[0]["errors"]) == CHAOS_RETRY.max_attempts
        # Every *other* point still matches the serial run exactly.
        surviving = [p for p in serial.points if p.index != 3]
        assert [p.index for p in chaos.points] == [p.index for p in surviving]
        for ours, theirs in zip(chaos.points, surviving):
            assert ours.results == theirs.results
        assert chaos.provenance["points_quarantined"] == 1

    def test_quarantine_surfaces_in_table_notes_and_metadata(self, spec):
        plan = bundled_plans(4)["poison-point"]
        table = run_spec(spec, workers=2, retry=CHAOS_RETRY, fault_plan=plan).to_table()
        assert any("quarantined" in note for note in table.notes)
        assert table.metadata["distributed"]["failures"][0]["index"] == 3

    def test_survivable_runs_add_no_quarantine_note(self, spec, serial):
        plan = bundled_plans(4)["worker-kill"]
        chaos_table = run_spec(
            spec, workers=2, retry=CHAOS_RETRY, fault_plan=plan
        ).to_table()
        assert chaos_table.rows == serial.to_table().rows
        assert not any("quarantined" in note for note in chaos_table.notes)

    def test_quarantined_progress_event_emitted(self, spec):
        events = []
        plan = bundled_plans(4)["poison-point"]
        run_spec(
            spec, workers=2, retry=CHAOS_RETRY, fault_plan=plan,
            progress=events.append,
        )
        quarantined = [e for e in events if e.source == "quarantined"]
        assert [e.index for e in quarantined] == [3]
        assert quarantined[0].attempt == CHAOS_RETRY.max_attempts

    def test_merge_accepts_shard_with_quarantined_point(self, spec, serial):
        plan = bundled_plans(4)["poison-point"]
        poisoned = run_spec(
            spec, shard=(1, 2), workers=2, retry=CHAOS_RETRY, fault_plan=plan
        )
        clean = run_spec(spec, shard=(0, 2))
        merged = merge_runs([clean, poisoned])
        assert [f["index"] for f in merged.provenance["failures"]] == [3]
        assert [p.index for p in merged.points] == [0, 1, 2]
        with pytest.raises(ConfigurationError, match="missing point"):
            # Without the failure record the gap is still an error.
            merge_runs([clean, run_spec(spec, points=[2])])


class TestGracefulDegradation:
    def test_repeated_pool_death_falls_back_to_serial(self, spec, serial):
        # worker_point=1 kills every worker on its first point — including
        # every replacement worker — so the pool can never make progress and
        # the executor must degrade to in-process execution.
        plan = FaultPlan(rules=(FaultRule(kind="kill-worker", worker_point=1),))
        chaos = run_spec(
            spec, workers=2,
            retry=RetryPolicy(max_pool_restarts=1, backoff_seconds=0.01),
            fault_plan=plan,
        )
        assert_bit_identical(serial, chaos)
        assert chaos.provenance["serial_fallback"] is True
        assert chaos.provenance["pool_restarts"] == 2
        assert chaos.provenance["failures"] == []

    def test_disabled_fallback_raises_worker_pool_error(self, spec):
        from repro.dist import ParallelScenarioExecutor

        plan = FaultPlan(rules=(FaultRule(kind="kill-worker", worker_point=1),))
        executor = ParallelScenarioExecutor(
            workers=2,
            retry=RetryPolicy(
                max_pool_restarts=0, serial_fallback=False, backoff_seconds=0.01
            ),
            fault_plan=plan,
        )
        with pytest.raises(WorkerPoolError, match="serial fallback is disabled"):
            executor.run(spec)


class TestFaultPlanModel:
    def test_plan_round_trips_through_json(self, tmp_path):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="transient-error", index=2, dispatches=(1, 2)),
                FaultRule(kind="stall", index=0, duration=3.5),
                FaultRule(kind="kill-worker", worker_point=2),
                FaultRule(kind="interrupt", index=1),
            ),
            seed=99,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = save_plan(plan, tmp_path / "plan.json")
        assert load_plan(path) == plan
        json.loads(path.read_text())  # plain JSON on disk

    def test_sample_is_deterministic_in_the_seed(self):
        a = FaultPlan.sample(point_count=10, seed=5, faults=3)
        b = FaultPlan.sample(point_count=10, seed=5, faults=3)
        c = FaultPlan.sample(point_count=10, seed=6, faults=3)
        assert a == b
        assert a != c
        assert len(a.rules) == 3
        assert all(rule.dispatches == (1,) for rule in a.rules)
        assert all(0 <= rule.index < 10 for rule in a.rules)

    def test_rule_validation(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultRule(kind="meteor-strike", index=0)
        with pytest.raises(ConfigurationError, match="1-based"):
            FaultRule(kind="transient-error", index=0, dispatches=(0,))
        with pytest.raises(ConfigurationError, match="worker_point"):
            FaultRule(kind="stall", index=0, duration=1.0, worker_point=1)
        with pytest.raises(ConfigurationError, match="duration"):
            FaultRule(kind="stall", index=0)
        with pytest.raises(ConfigurationError, match="index"):
            FaultRule(kind="transient-error")

    def test_rule_matching_semantics(self):
        once = FaultRule(kind="transient-error", index=4, dispatches=(1,))
        assert once.matches(4, 1) and not once.matches(4, 2)
        assert not once.matches(5, 1)
        always = FaultRule(kind="transient-error", index=4, dispatches=())
        assert always.matches(4, 1) and always.matches(4, 7)

    def test_bundled_plans_cover_the_failure_modes(self):
        plans = bundled_plans(8)
        assert set(plans) == {
            "worker-kill",
            "transient-double",
            "timeout-stall",
            "poison-point",
        }
        kinds = {kind for plan in plans.values() for kind in plan.kinds()}
        assert kinds == {"kill-worker", "transient-error", "stall"}

    def test_disk_fault_rules_round_trip_through_json(self, tmp_path):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="torn-write", index=3, offset=7),
                FaultRule(kind="torn-write", index=4),  # offset=None: half
                FaultRule(kind="enospc", index=1),
                FaultRule(kind="fsync-error", index=2),
                FaultRule(kind="kill-after-records", records=2),
            ),
            seed=7,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = save_plan(plan, tmp_path / "disk-plan.json")
        loaded = load_plan(path)
        assert loaded == plan
        assert loaded.rules[0].offset == 7
        assert loaded.rules[1].offset is None
        assert loaded.rules[4].records == 2

    def test_disk_fault_rule_validation(self):
        with pytest.raises(ConfigurationError, match="offset"):
            FaultRule(kind="enospc", index=0, offset=5)
        with pytest.raises(ConfigurationError, match="offset"):
            FaultRule(kind="torn-write", index=0, offset=0)
        with pytest.raises(ConfigurationError, match="records"):
            FaultRule(kind="kill-after-records")
        with pytest.raises(ConfigurationError, match="records"):
            FaultRule(kind="kill-after-records", records=0)
        with pytest.raises(ConfigurationError, match="records"):
            FaultRule(kind="enospc", index=0, records=2)
        with pytest.raises(ConfigurationError, match="index"):
            FaultRule(kind="torn-write")

    def test_bundled_stream_plans_cover_the_disk_faults(self):
        from repro.faultinject import bundled_stream_plans

        plans = bundled_stream_plans(8)
        assert set(plans) == {"torn-write", "enospc", "fsync-error"}
        lethal = bundled_stream_plans(8, include_kill=True)
        assert set(lethal) == {"torn-write", "enospc", "fsync-error", "kill-9"}
        assert lethal["kill-9"].rules[0].records == 2
        for plan in lethal.values():  # all serialisable for the CLI flag
            assert FaultPlan.from_json(plan.to_json()) == plan

    def test_fault_kinds_frozen(self):
        assert FAULT_KINDS == (
            "transient-error",
            "kill-worker",
            "stall",
            "interrupt",
            "torn-write",
            "enospc",
            "fsync-error",
            "kill-after-records",
        )


class TestInjectorModes:
    def test_inline_mode_skips_kill_and_stall(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="kill-worker", index=0),
                FaultRule(kind="stall", index=0, duration=60.0),
            )
        )
        injector = FaultInjector(plan, mode="inline")
        injector.before_point(0, 1)  # would os._exit / hang in worker mode

    def test_inline_mode_still_raises_transient_errors(self):
        plan = FaultPlan(rules=(FaultRule(kind="transient-error", index=0),))
        injector = FaultInjector(plan, mode="inline")
        with pytest.raises(InjectedTransientError, match="dispatch 1"):
            injector.before_point(0, 1)
        injector.before_point(0, 2)  # second dispatch: rule spent

    def test_torn_write_fires_once_per_rule(self, tmp_path):
        record = b'{"index": 1, "payload": "0123456789"}\n'
        path = tmp_path / "segment-0000.jsonl"
        path.write_bytes(record)
        plan = FaultPlan(rules=(FaultRule(kind="torn-write", index=1),))
        injector = FaultInjector(plan)
        assert injector.tear_stream(0, path, 0, len(record)) is False
        assert injector.tear_stream(1, path, 0, len(record)) is True
        damaged = path.read_bytes()
        assert damaged == record[: len(record) // 2]  # mid-record tear
        path.write_bytes(record)
        assert injector.tear_stream(1, path, 0, len(record)) is False  # spent
        assert path.read_bytes() == record

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            FaultInjector(FaultPlan(), mode="sideways")


class TestRetryPolicyModel:
    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            backoff_seconds=0.1, backoff_multiplier=2.0, backoff_max_seconds=0.35
        )
        assert backoff_delay(policy, 1) == pytest.approx(0.1)
        assert backoff_delay(policy, 2) == pytest.approx(0.2)
        assert backoff_delay(policy, 3) == pytest.approx(0.35)  # capped
        assert backoff_delay(policy, 10) == pytest.approx(0.35)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="timeout_seconds"):
            RetryPolicy(timeout_seconds=0.0)
        with pytest.raises(ConfigurationError, match="max_pool_restarts"):
            RetryPolicy(max_pool_restarts=-1)
        with pytest.raises(ConfigurationError, match="backoff_multiplier"):
            RetryPolicy(backoff_multiplier=0.5)

    def test_point_failure_round_trips(self):
        failure = PointFailure(
            index=3,
            label="d-pull",
            attempts=3,
            error_type="InjectedTransientError",
            message="injected",
            errors=(
                {"attempt": 1, "error_type": "InjectedTransientError", "message": "injected"},
            ),
        )
        assert PointFailure.from_dict(failure.to_dict()) == failure
        json.dumps(failure.to_dict())  # JSON-safe


class TestCLIFaultPlan:
    def test_hidden_fault_plan_flag_round_trips(self, tmp_path, capsys):
        from repro.cli import main
        from repro.spec import save_spec

        spec_path = save_spec(sweep_spec(), tmp_path / "spec.json")
        plan_path = save_plan(bundled_plans(4)["transient-double"], tmp_path / "plan.json")
        clean = tmp_path / "clean.json"
        chaos = tmp_path / "chaos.json"
        assert main(["run-spec", str(spec_path), "--save", str(clean)]) == 0
        assert main(
            [
                "run-spec", str(spec_path),
                "--workers", "2",
                "--fault-plan", str(plan_path),
                "--max-attempts", "3",
                "--save", str(chaos),
            ]
        ) == 0
        capsys.readouterr()
        from repro.experiments.results_io import load_table_json

        assert load_table_json(chaos).rows == load_table_json(clean).rows

    def test_fault_plan_flag_hidden_from_help(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-spec", "--help"])
        help_text = capsys.readouterr().out
        assert "--fault-plan" not in help_text
        assert "--max-attempts" in help_text  # the public knobs stay visible
