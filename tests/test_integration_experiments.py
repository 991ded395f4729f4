"""Integration tests for the experiment registry (E1–E13) on tiny inputs.

Each experiment is run with parameters far below its quick defaults so the
whole module stays fast, and the tests assert structural properties of the
returned tables (expected columns, row counts, sane value ranges) plus a few
of the qualitative "shape" claims the experiments exist to demonstrate.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ExperimentError
from repro.experiments import available_experiments, run_experiment_by_id
from repro.experiments.exp_choices_ablation import run_experiment as run_choices
from repro.experiments.exp_churn import run_experiment as run_churn
from repro.experiments.exp_degree_sweep import run_experiment as run_degree
from repro.experiments.exp_lower_bound import run_experiment as run_lower_bound
from repro.experiments.exp_message_complexity import run_experiment as run_messages
from repro.experiments.exp_p2p_db import run_experiment as run_p2p
from repro.experiments.exp_phase_dynamics import run_experiment as run_phases
from repro.experiments.exp_push_vs_pull import run_experiment as run_push_pull
from repro.experiments.exp_robustness import run_experiment as run_robustness
from repro.experiments.exp_round_complexity import run_experiment as run_rounds
from repro.experiments.exp_sequential import run_experiment as run_sequential
from repro.experiments.workloads import SweepSizes

TINY = SweepSizes(sizes=[128, 256], repetitions=2)


class TestRegistry:
    def test_all_experiments_registered(self):
        registered = available_experiments()
        assert set(registered) == {f"E{i}" for i in range(1, 14)}

    def test_unknown_id_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment_by_id("E42")

    def test_lookup_is_case_insensitive(self):
        table = run_experiment_by_id("e5", quick=True, sizes=[64])
        assert table.rows


class TestRoundAndMessageComplexity:
    def test_e1_structure_and_shape(self):
        table = run_rounds(quick=True, sizes=TINY)
        assert set(table.columns) >= {"protocol", "n", "rounds_mean", "success_rate"}
        assert len(table.rows) == 3 * len(TINY.sizes)
        assert all(row["success_rate"] == 1.0 for row in table.rows)
        # O(log n): the normalised column stays within a small constant.
        assert all(row["rounds_over_log2n"] < 5 for row in table.rows)

    def test_e2_reports_fits(self):
        table = run_messages(quick=True, sizes=TINY)
        assert len(table.rows) == 4 * len(TINY.sizes)
        assert any("best-fitting" in note for note in table.notes)
        assert all(row["tx_per_node"] > 0 for row in table.rows)

    def test_e3_bound_column_follows_formula(self):
        table = run_lower_bound(quick=True, sizes=TINY, degrees=[4, 8])
        degree_rows = [r for r in table.rows if r["sweep"] == "degree"]
        by_degree = {r["d"]: r["bound_per_node"] for r in degree_rows}
        assert by_degree[4] > by_degree[8]
        one_call_rows = [
            r for r in table.rows if r["protocol"] == "push-pull-1" and r["sweep"] == "size"
        ]
        assert all(r["ratio_to_bound"] > 0.5 for r in one_call_rows)


class TestPhaseAndBaselineExperiments:
    def test_e4_phase_profile(self):
        table = run_phases(quick=True, n=256, alphas=[1.0])
        profile_rows = [r for r in table.rows if r["block"] == "profile"]
        phases = {r["phase"] for r in profile_rows}
        assert "phase1" in phases and "phase3" in phases
        phase1 = next(r for r in profile_rows if r["phase"] == "phase1")
        assert phase1["growth_factor"] > 1.2
        assert phase1["transmissions"] <= 4 * 256

    def test_e5_pull_tail_is_shorter_than_push_tail(self):
        table = run_push_pull(quick=True, sizes=[128, 256])
        rows = table.to_records()
        for n in (128, 256):
            push_tail = next(
                r["tail_rounds"] for r in rows if r["protocol"] == "push" and r["n"] == n
            )
            pull_tail = next(
                r["tail_rounds"] for r in rows if r["protocol"] == "pull" and r["n"] == n
            )
            assert pull_tail < push_tail

    def test_e12_degree_sweep_structure(self):
        table = run_degree(quick=True, n=256, degrees=[4, 8])
        assert len(table.rows) == 4
        assert all(row["success_rate"] == 1.0 for row in table.rows)

    def test_e12_default_degrees_run_each_degree_once(self):
        # At n = 256 the defaults 8 and log2 n coincide; each degree runs once.
        table = run_degree(quick=True, n=256)
        assert len(table.rows) == 8
        assert sorted({row["d"] for row in table.rows}) == [4, 6, 8, 16]


class TestRobustnessExperiments:
    def test_e6_e7_blocks_present(self):
        table = run_robustness(
            quick=True,
            n=256,
            loss_probabilities=[0.0, 0.2],
            estimate_factors=[0.5, 1.0, 2.0],
        )
        blocks = {row["block"] for row in table.rows}
        assert blocks == {"message-loss", "size-estimate"}
        loss_rows = [r for r in table.rows if r["block"] == "message-loss"]
        assert all(r["success_rate"] == 1.0 for r in loss_rows)
        estimate_rows = [r for r in table.rows if r["block"] == "size-estimate"]
        assert all(r["success_rate"] == 1.0 for r in estimate_rows)

    def test_e8_churn_keeps_survivors_informed(self):
        table = run_churn(quick=True, n=256, churn_rates=[(0.0, 0.0), (0.01, 0.01)])
        algorithm_rows = [r for r in table.rows if r["protocol"] == "algorithm1"]
        assert all(r["informed_fraction"] > 0.95 for r in algorithm_rows)

    def test_e9_single_choice_fails_multi_choice_succeeds(self):
        table = run_choices(quick=True, n=256, fanouts=[1, 4])
        by_fanout = {row["fanout"]: row for row in table.rows}
        assert by_fanout[4]["success_rate"] == 1.0
        assert by_fanout[1]["informed_after_phase1"] < by_fanout[4]["informed_after_phase1"]

    def test_e10_sequential_takes_roughly_four_times_longer(self):
        table = run_sequential(quick=True, sizes=SweepSizes(sizes=[256], repetitions=2))
        rows = {row["protocol"]: row for row in table.rows}
        ratio = (
            rows["algorithm1-sequential"]["rounds_mean"] / rows["algorithm1"]["rounds_mean"]
        )
        assert 2.0 < ratio < 8.0
        assert rows["algorithm1-sequential"]["success_rate"] == 1.0

    def test_e11_replication_converges(self):
        table = run_p2p(quick=True, peers=64, churn_settings=[(0.0, 0.0)])
        assert len(table.rows) == 3
        assert all(row["replication_rate"] == 1.0 for row in table.rows)
        assert all(row["replicas_agree"] for row in table.rows)
