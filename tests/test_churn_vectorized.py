"""Vectorized dynamic-membership suite: churn on the bulk NumPy engine.

The vectorized engine's churn mode promises three robustness contracts:

1. **bit-identity across execution shape** — the same (graph, protocol,
   churn model, seed) produces byte-for-byte identical results whether node
   compaction is on or off, whether ``repeat_broadcast`` is asked to batch
   or not, and whether a ScenarioSpec runs serially, across worker
   processes, resumed from a stream directory, or under an injected worker
   kill;
2. **statistical parity with the scalar engine** — membership is
   represented differently (tombstoned CSR rows vs real graph surgery), so
   scalar and vectorized runs only agree in distribution on the E8
   observables;
3. **lifecycle hygiene** — churn models hold no per-run state, so reusing
   a model instance (or an engine) can never leak joined-node ids between
   runs.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.core.config import SimulationConfig
from repro.core.engine import plan_run, run_broadcast, run_broadcast_batch
from repro.core.engine_vectorized import BatchedVectorizedRoundEngine
from repro.core.errors import SimulationError
from repro.core.rng import RandomSource
from repro.experiments.runner import repeat_broadcast
from repro.failures.churn import AdversarialChurn, BurstChurn, FlashCrowd, UniformChurn
from repro.graphs.registry import build_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.quasirandom import QuasirandomPushProtocol
from repro.spec import ScenarioSpec, run_spec

CHURN_FACTORIES = {
    "uniform": lambda: UniformChurn(leave_rate=0.02, join_rate=0.02, target_degree=8),
    "burst": lambda: BurstChurn(at_round=3, fraction=0.3),
    "flash-crowd": lambda: FlashCrowd(at_round=2, fraction=0.4, target_degree=8),
    "adversarial": lambda: AdversarialChurn(leave_rate=0.05),
}

PROTOCOL_FACTORIES = {
    "algorithm1": lambda n: Algorithm1(n_estimate=n),
    "push-pull": lambda n: PushPullProtocol(n_estimate=n),
}


def _graph(n=256, d=8, seed=3):
    return build_graph("random-regular", rng=RandomSource(seed, name="graph"), n=n, d=d)


def fingerprint(result):
    """Everything observable about a run, for bit-identity comparisons."""
    return (
        result.success,
        result.rounds_executed,
        result.rounds_to_completion,
        result.final_informed,
        result.total_push_transmissions,
        result.total_pull_transmissions,
        result.total_channels_opened,
        result.total_lost_transmissions,
        result.history,
        result.metadata.get("churn"),
        result.metadata.get("final_node_count"),
    )


# ---------------------------------------------------------------------------
# Bit-identity across execution shape
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("churn_name", sorted(CHURN_FACTORIES))
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_FACTORIES))
    def test_same_seed_reproduces(self, churn_name, protocol_name):
        graph = _graph()
        cfg = SimulationConfig(engine="vectorized", collect_round_history=True)
        runs = []
        for _ in range(2):
            result = run_broadcast(
                graph=graph,
                protocol=PROTOCOL_FACTORIES[protocol_name](256),
                seed=11,
                config=cfg,
                churn_model=CHURN_FACTORIES[churn_name](),
            )
            assert result.metadata["engine"] == "vectorized"
            runs.append(fingerprint(result))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("churn_name", sorted(CHURN_FACTORIES))
    def test_node_compaction_on_off_parity(self, monkeypatch, churn_name):
        """Compaction renumbers ids mid-run; draws must not notice.

        Every vectorized-churn draw depends only on live positions and
        counts, never raw id values, so switching the node-axis compaction
        off must reproduce the exact same run.
        """
        graph = _graph()
        runs = {}
        for compact in (True, False):
            monkeypatch.setattr(BatchedVectorizedRoundEngine, "_compaction", compact)
            cfg = SimulationConfig(engine="vectorized", collect_round_history=True)
            result = run_broadcast(
                graph=graph,
                protocol=Algorithm1(n_estimate=256),
                seed=5,
                config=cfg,
                churn_model=CHURN_FACTORIES[churn_name](),
            )
            runs[compact] = fingerprint(result)
            if compact and churn_name == "burst":
                # The 30% burst departure must actually trigger compaction,
                # otherwise this test exercises nothing.
                assert result.metadata["churn"]["node_compactions"] >= 1
        compacted_meta = dict(runs[True][-2])
        uncompacted_meta = dict(runs[False][-2])
        # The compaction counter is the one legitimate difference.
        del compacted_meta["node_compactions"]
        del uncompacted_meta["node_compactions"]
        assert runs[True][:-2] == runs[False][:-2]
        assert compacted_meta == uncompacted_meta
        assert runs[True][-1] == runs[False][-1]

    def test_repeat_broadcast_batch_flag_is_inert_under_churn(self):
        """Churn never batches, so ``batch=`` cannot change results."""
        graph = _graph(n=128)
        seeds = [1, 2, 3]
        runs = {}
        for batch in (True, False):
            results = repeat_broadcast(
                graph=graph,
                protocol_factory=PROTOCOL_FACTORIES["algorithm1"],
                n_estimate=128,
                seeds=seeds,
                config=SimulationConfig(collect_round_history=True),
                churn_factory=CHURN_FACTORIES["uniform"],
                batch=batch,
            )
            assert all(r.metadata["engine"] == "vectorized" for r in results)
            runs[batch] = [fingerprint(r) for r in results]
        assert runs[True] == runs[False]

    def test_run_broadcast_batch_falls_back_per_seed_with_churn(self):
        graph = _graph(n=128)
        batched = run_broadcast_batch(
            graph=graph,
            protocol=Algorithm1(n_estimate=128),
            seeds=[7, 8],
            config=SimulationConfig(collect_round_history=True),
            churn_model=CHURN_FACTORIES["uniform"](),
        )
        single = [
            run_broadcast(
                graph=graph,
                protocol=Algorithm1(n_estimate=128),
                seed=seed,
                config=SimulationConfig(collect_round_history=True),
                churn_model=CHURN_FACTORIES["uniform"](),
            )
            for seed in (7, 8)
        ]
        assert [fingerprint(r) for r in batched] == [fingerprint(r) for r in single]


# ---------------------------------------------------------------------------
# Dispatch rules
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_batched_reason_names_churn(self):
        graph = _graph(n=64, d=4)
        plan = plan_run(
            graph,
            Algorithm1(n_estimate=64),
            SimulationConfig(),
            None,
            CHURN_FACTORIES["uniform"](),
            seeds=[1, 2],
            batch=True,
        )
        assert plan.engine == "vectorized" and not plan.batched
        assert plan.rows == 1 and not plan.copy_graph
        with pytest.raises(SimulationError, match="batched engine"):
            BatchedVectorizedRoundEngine(
                graph,
                Algorithm1(n_estimate=64),
                seeds=[1, 2],
                churn_model=CHURN_FACTORIES["uniform"](),
            )

    def test_forced_vectorized_batch_names_the_per_seed_obstacle(self):
        with pytest.raises(SimulationError) as raised:
            run_broadcast_batch(
                graph=_graph(n=64, d=4),
                protocol=QuasirandomPushProtocol(n_estimate=64),
                seeds=[1, 2],
                config=SimulationConfig(engine="vectorized"),
                churn_model=UniformChurn(
                    leave_rate=0.02, join_rate=0.02, target_degree=4
                ),
            )
        message = str(raised.value)
        assert "'quasirandom-push' does not support dynamic membership" in message
        assert "batched" not in message

    def test_forced_vectorized_raises_for_non_dynamic_protocol(self):
        with pytest.raises(SimulationError, match="dynamic"):
            run_broadcast(
                graph=_graph(n=64, d=4),
                protocol=QuasirandomPushProtocol(n_estimate=64),
                seed=1,
                config=SimulationConfig(engine="vectorized"),
                churn_model=CHURN_FACTORIES["uniform"](),
            )


# ---------------------------------------------------------------------------
# Lifecycle hygiene (a reused model must not leak joined ids)
# ---------------------------------------------------------------------------


class TestChurnModelLifecycle:
    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_model_instance_reuse_is_bit_identical(self, engine):
        """Regression: a reused model must not leak joined ids between runs.

        ``UniformChurn`` once kept the scalar join-id counter across runs,
        so the second run on a fresh graph handed out wrong node ids and
        diverged; the counter now lives on the run's ``StateTable``.
        """
        model = UniformChurn(leave_rate=0.02, join_rate=0.1, target_degree=4)
        runs = []
        for _ in range(2):
            result = run_broadcast(
                graph=_graph(n=64, d=4),
                protocol=Algorithm1(n_estimate=64),
                seed=9,
                config=SimulationConfig(engine=engine, collect_round_history=True),
                churn_model=model,
            )
            runs.append(fingerprint(result))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Scalar vs vectorized statistical parity on the E8 observables
# ---------------------------------------------------------------------------


class TestScalarStatisticalParity:
    def test_e8_observables_agree(self):
        """Same churn regime, both engines: E8 observables within tolerance.

        Membership is represented differently (graph surgery vs tombstoned
        CSR rows), so per-run equality is out of contract; over seeds the
        surviving-informed fraction and round counts must agree.
        """
        graph = _graph(n=256, d=8)
        seeds = list(range(12))
        stats = {}
        for engine in ("scalar", "vectorized"):
            fractions, rounds = [], []
            for seed in seeds:
                result = run_broadcast(
                    graph=graph.copy() if engine == "scalar" else graph,
                    protocol=Algorithm1(n_estimate=256),
                    seed=seed,
                    config=SimulationConfig(engine=engine),
                    churn_model=UniformChurn(
                        leave_rate=0.01, join_rate=0.01, target_degree=8
                    ),
                )
                survivors = result.metadata["final_node_count"]
                fractions.append(result.final_informed / survivors)
                rounds.append(
                    result.rounds_to_completion
                    if result.rounds_to_completion is not None
                    else result.rounds_executed
                )
            stats[engine] = (
                sum(fractions) / len(fractions),
                sum(rounds) / len(rounds),
            )
        scalar_fraction, scalar_rounds = stats["scalar"]
        vector_fraction, vector_rounds = stats["vectorized"]
        # Limited churn leaves algorithm1 near-complete on both engines.
        assert scalar_fraction > 0.95 and vector_fraction > 0.95
        assert abs(scalar_fraction - vector_fraction) < 0.05
        assert abs(scalar_rounds - vector_rounds) <= 3.0

    def test_churn_metadata_counters_present(self):
        result = run_broadcast(
            graph=_graph(n=128),
            protocol=Algorithm1(n_estimate=128),
            seed=2,
            config=SimulationConfig(engine="vectorized"),
            churn_model=CHURN_FACTORIES["uniform"](),
        )
        churn = result.metadata["churn"]
        assert set(churn) >= {"departures", "arrivals", "node_compactions"}
        assert churn["departures"] >= 0 and churn["arrivals"] >= 0
        assert result.metadata["final_node_count"] == (
            128 - churn["departures"] + churn["arrivals"]
        )

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_churned_runs_report_the_counters_on_both_engines(self, engine):
        graph = _graph(n=128)
        result = run_broadcast(
            graph=graph.copy() if engine == "scalar" else graph,
            protocol=Algorithm1(n_estimate=128),
            seed=2,
            config=SimulationConfig(engine=engine),
            churn_model=UniformChurn(leave_rate=0.05, join_rate=0.05, target_degree=8),
        )
        assert result.metadata["engine"] == engine
        churn = result.metadata["churn"]
        assert set(churn) >= {"departures", "arrivals", "node_compactions"}
        assert churn["departures"] > 0 and churn["arrivals"] > 0
        assert result.metadata["final_node_count"] == (
            128 - churn["departures"] + churn["arrivals"]
        )
        static = run_broadcast(
            graph=graph,
            protocol=Algorithm1(n_estimate=128),
            seed=2,
            config=SimulationConfig(engine=engine),
        )
        assert "churn" not in static.metadata


# ---------------------------------------------------------------------------
# ScenarioSpec integration: serial / parallel / resumed / faulted
# ---------------------------------------------------------------------------

SPEC_DATA = {
    "schema": "repro.scenario/1",
    "name": "churn-parity",
    "graph": {
        "family": "connected-random-regular",
        "params": {"n": 64, "d": 4},
        "instance": 0,
    },
    "protocol": {"name": "algorithm1", "params": {}, "n_estimate": None},
    "failure": {"model": "reliable", "params": {}},
    "churn": {
        "model": "uniform",
        "params": {"leave_rate": 0.02, "join_rate": 0.02, "target_degree": 4},
    },
    "sweep": {
        "axes": [
            {
                "path": "churn.params.leave_rate",
                "values": [0.0, 0.02, 0.05],
                "key": "leave_rate",
            }
        ]
    },
    "repetitions": 2,
    "master_seed": 77,
    "label": "churn-{leave_rate}",
}


class TestChurnSpecParity:
    @pytest.fixture(scope="class")
    def serial_table(self):
        return run_spec(ScenarioSpec.from_dict(SPEC_DATA)).to_table()

    def _tables_equal(self, left, right):
        return (
            left.title == right.title
            and left.columns == right.columns
            and left.rows == right.rows
            and left.notes == right.notes
        )

    def test_two_workers_match_serial(self, serial_table):
        parallel = run_spec(
            ScenarioSpec.from_dict(SPEC_DATA), workers=2
        ).to_table()
        assert self._tables_equal(serial_table, parallel)

    def test_stream_resume_matches_serial(self, serial_table):
        spec = ScenarioSpec.from_dict(SPEC_DATA)
        with tempfile.TemporaryDirectory() as stream_dir:
            # First pass runs only the first point, then a resumed full run
            # must pick up the streamed record and finish identically.
            run_spec(spec, points=[0], stream_dir=stream_dir)
            resumed = run_spec(
                spec, stream_dir=stream_dir, resume=True
            ).to_table()
        assert self._tables_equal(serial_table, resumed)

    def test_worker_kill_fault_plan_matches_serial(self, serial_table):
        from repro.dist import RetryPolicy
        from repro.faultinject import bundled_plans

        spec = ScenarioSpec.from_dict(SPEC_DATA)
        point_count = spec.sweep.size
        plan = bundled_plans(point_count, stall_duration=8.0)["worker-kill"]
        retry = RetryPolicy(
            max_attempts=3,
            backoff_seconds=0.01,
            backoff_max_seconds=0.1,
            timeout_seconds=30.0,
        )
        with tempfile.TemporaryDirectory() as stream_dir:
            chaos = run_spec(
                spec,
                workers=2,
                retry=retry,
                fault_plan=plan,
                stream_dir=stream_dir,
            )
        table = chaos.to_table()
        assert table.metadata["distributed"]["failures"] == []
        assert self._tables_equal(serial_table, table)
