"""Batched vectorized engine: bit-parity, dispatch, and lifecycle tests.

The batched engine's contract is stronger than the scalar↔vectorized one:
every replication of a batch must be *bit-identical* to the corresponding
single-seed vectorized run (same seeds, same graph, same configuration), with
only ``metadata["batch_size"]`` distinguishing the results.  These tests pin
that contract over ≥20 seeds for every batchable protocol, exercise the
failure-injection paths, and cover the dispatch plumbing
(``run_broadcast_batch`` → ``repeat_broadcast`` → ``run_spec``) plus
the protocol ``reset()`` lifecycle hook the batch relies on.
"""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.engine import RoundEngine, run_broadcast, run_broadcast_batch
from repro.core.engine_vectorized import BatchedVectorizedRoundEngine
from repro.core.errors import SimulationError
from repro.core.rng import RandomSource
from repro.experiments.runner import repeat_broadcast
from repro.graphs.configuration_model import pairing_multigraph, random_regular_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.algorithm2 import Algorithm2
from repro.protocols.pull import PullProtocol
from repro.protocols.push import PushProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.quasirandom import QuasirandomPushProtocol
from repro.protocols.sequential import SequentialAlgorithm1
from repro.spec import GraphSpec, ProtocolSpec, ScenarioSpec, run_spec

PARITY_SEEDS = list(range(100, 122))  # 22 seeds, ≥ the acceptance's 20

PROTOCOL_FACTORIES = {
    "push": lambda n: PushProtocol(n_estimate=n),
    "pull": lambda n: PullProtocol(n_estimate=n),
    "push-pull": lambda n: PushPullProtocol(n_estimate=n),
    "algorithm1": lambda n: Algorithm1(n_estimate=n),
    "algorithm2": lambda n: Algorithm2(n_estimate=n),
    "quasirandom": lambda n: QuasirandomPushProtocol(n_estimate=n),
}


@pytest.fixture(scope="module")
def regular_graph():
    graph = random_regular_graph(512, 8, RandomSource(seed=42), strategy="repair")
    graph.csr()
    return graph


@pytest.fixture(scope="module")
def multigraph():
    # Self-loops and parallel edges exercise the channel-filter path.
    return pairing_multigraph(256, 6, RandomSource(seed=9))


def batch_spec(**overrides) -> ScenarioSpec:
    """Push over a 64-node 4-regular graph, three repetitions."""
    fields = dict(
        name="batch",
        graph=GraphSpec(family="connected-random-regular", params={"n": 64, "d": 4}),
        protocol=ProtocolSpec(name="push"),
        repetitions=3,
        master_seed=1,
        label="b",
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def run_signature(result):
    """Everything a RunResult reports except metadata, as a comparable value."""
    return (
        result.n,
        result.protocol,
        result.source,
        result.success,
        result.rounds_executed,
        result.rounds_to_completion,
        result.total_push_transmissions,
        result.total_pull_transmissions,
        result.total_channels_opened,
        result.total_lost_transmissions,
        result.final_informed,
        tuple(result.informed_curve()),
        tuple(
            (record.round_index, record.informed_before, record.informed_after,
             record.push_transmissions, record.pull_transmissions,
             record.channels_opened, record.lost_transmissions, record.phase)
            for record in result.history
        ),
        tuple(sorted(result.phase_transmissions.items())),
    )


def assert_bit_identical(graph, factory, seeds, **config_kwargs):
    config = SimulationConfig(engine="vectorized", **config_kwargs)
    n = graph.node_count
    singles = [
        run_broadcast(graph, factory(n), seed=seed, config=config) for seed in seeds
    ]
    # The engine itself: run_broadcast_batch runs a one-seed list per seed,
    # and R = 1 batch parity must stay covered.
    batched = BatchedVectorizedRoundEngine(graph, factory(n), seeds, config=config).run()
    assert len(batched) == len(seeds)
    for single, row in zip(singles, batched):
        assert run_signature(single) == run_signature(row)
        assert row.metadata["engine"] == "vectorized"
        assert row.metadata["batch_size"] == len(seeds)


# ---------------------------------------------------------------------------
# Bit-parity with single-seed vectorized runs
# ---------------------------------------------------------------------------


class TestBatchBitParity:
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_FACTORIES))
    def test_each_row_matches_single_run(self, protocol_name, regular_graph):
        assert_bit_identical(
            regular_graph, PROTOCOL_FACTORIES[protocol_name], PARITY_SEEDS
        )

    @pytest.mark.parametrize("protocol_name", ["push", "push-pull", "algorithm1"])
    def test_parity_with_transmission_loss(self, protocol_name, regular_graph):
        assert_bit_identical(
            regular_graph,
            PROTOCOL_FACTORIES[protocol_name],
            PARITY_SEEDS,
            message_loss_probability=0.2,
        )

    def test_parity_with_channel_failure(self, regular_graph):
        assert_bit_identical(
            regular_graph,
            PROTOCOL_FACTORIES["push-pull"],
            PARITY_SEEDS,
            channel_failure_probability=0.1,
            message_loss_probability=0.1,
        )

    def test_parity_on_multigraph_with_self_loops(self, multigraph):
        assert_bit_identical(multigraph, PROTOCOL_FACTORIES["push-pull"], PARITY_SEEDS)

    def test_parity_on_full_schedule(self, regular_graph):
        assert_bit_identical(
            regular_graph,
            PROTOCOL_FACTORIES["algorithm1"],
            PARITY_SEEDS[:8],
            stop_when_informed=False,
        )

    def test_parity_with_non_zero_source(self, regular_graph):
        config = SimulationConfig(engine="vectorized")
        singles = [
            run_broadcast(
                regular_graph, PushProtocol(n_estimate=512), source=37,
                seed=seed, config=config,
            )
            for seed in PARITY_SEEDS[:6]
        ]
        batched = run_broadcast_batch(
            regular_graph, PushProtocol(n_estimate=512), PARITY_SEEDS[:6],
            source=37, config=config,
        )
        for single, row in zip(singles, batched):
            assert run_signature(single) == run_signature(row)

    def test_single_seed_batch_matches_single_run(self, regular_graph):
        assert_bit_identical(regular_graph, PROTOCOL_FACTORIES["push"], [77])


# ---------------------------------------------------------------------------
# Dispatch plumbing
# ---------------------------------------------------------------------------


class TestBatchDispatch:
    def test_empty_seed_list_rejected(self, regular_graph):
        with pytest.raises(SimulationError):
            BatchedVectorizedRoundEngine(
                graph=regular_graph, protocol=PushProtocol(n_estimate=512), seeds=[]
            )

    def test_single_seed_runs_per_seed(self, regular_graph):
        config = SimulationConfig(engine="vectorized")
        [result] = run_broadcast_batch(
            regular_graph, PushProtocol(n_estimate=512), [77], config=config
        )
        single = run_broadcast(
            regular_graph, PushProtocol(n_estimate=512), seed=77, config=config
        )
        assert run_signature(result) == run_signature(single)
        assert result.metadata["engine"] == "vectorized"
        assert "batch_size" not in result.metadata

    def test_unsupported_protocol_falls_back_to_loop(self, regular_graph):
        results = run_broadcast_batch(
            regular_graph, SequentialAlgorithm1(n_estimate=512), seeds=[1, 2]
        )
        assert len(results) == 2
        assert all(r.metadata["engine"] == "scalar" for r in results)
        assert all("batch_size" not in r.metadata for r in results)

    def test_forced_vectorized_with_unsupported_protocol_raises(self, regular_graph):
        with pytest.raises(SimulationError, match="bulk hooks"):
            run_broadcast_batch(
                regular_graph,
                SequentialAlgorithm1(n_estimate=512),
                seeds=[1, 2],
                config=SimulationConfig(engine="vectorized"),
            )

    def test_scalar_engine_request_bypasses_batch(self, regular_graph):
        results = run_broadcast_batch(
            regular_graph,
            PushProtocol(n_estimate=512),
            seeds=[1, 2],
            config=SimulationConfig(engine="scalar"),
        )
        assert all(r.metadata["engine"] == "scalar" for r in results)

    def test_repeat_broadcast_routes_through_batch(self, regular_graph):
        results = repeat_broadcast(
            graph=regular_graph,
            protocol_factory=lambda n: PushProtocol(n_estimate=n),
            n_estimate=512,
            seeds=[5, 6, 7],
        )
        assert all(r.metadata.get("batch_size") == 3 for r in results)

    def test_repeat_broadcast_batch_results_match_loop(self, regular_graph):
        kwargs = dict(
            graph=regular_graph,
            protocol_factory=lambda n: PushProtocol(n_estimate=n),
            n_estimate=512,
            seeds=[5, 6, 7],
            config=SimulationConfig(engine="vectorized"),
        )
        batched = repeat_broadcast(batch=True, **kwargs)
        looped = repeat_broadcast(batch=False, **kwargs)
        for one, other in zip(looped, batched):
            assert run_signature(one) == run_signature(other)

    def test_repeat_broadcast_batch_disabled(self, regular_graph):
        results = repeat_broadcast(
            graph=regular_graph,
            protocol_factory=lambda n: PushProtocol(n_estimate=n),
            n_estimate=512,
            seeds=[5, 6],
            batch=False,
        )
        assert all("batch_size" not in r.metadata for r in results)

    def test_experiment_runner_uses_batch(self):
        results = run_spec(batch_spec()).results()
        assert all(r.metadata.get("batch_size") == 3 for r in results)

    def test_experiment_runner_batch_off_matches_batch_on(self):
        batched = run_spec(batch_spec()).results()
        looped = run_spec(batch_spec(batch=False)).results()
        assert all("batch_size" not in r.metadata for r in looped)
        assert len(looped) == len(batched) == 3
        for one, other in zip(looped, batched):
            assert run_signature(one) == run_signature(other)


# ---------------------------------------------------------------------------
# Protocol reset lifecycle
# ---------------------------------------------------------------------------


class TestProtocolReset:
    def test_quasirandom_scalar_reuse_is_clean(self, regular_graph):
        # Regression: the pointer dict used to leak across runs, so a reused
        # instance silently continued the previous run's cyclic positions.
        protocol = QuasirandomPushProtocol(n_estimate=512)
        config = SimulationConfig(engine="scalar")
        first = run_broadcast(regular_graph, protocol, seed=3, config=config)
        second = run_broadcast(regular_graph, protocol, seed=3, config=config)
        assert run_signature(first) == run_signature(second)

    def test_quasirandom_vectorized_reuse_is_clean(self, regular_graph):
        protocol = QuasirandomPushProtocol(n_estimate=512)
        config = SimulationConfig(engine="vectorized")
        first = run_broadcast(regular_graph, protocol, seed=3, config=config)
        second = run_broadcast(regular_graph, protocol, seed=3, config=config)
        assert run_signature(first) == run_signature(second)

    def test_engines_call_reset(self, regular_graph):
        calls = []

        class Probe(PushProtocol):
            def reset(self):
                calls.append("reset")

        protocol = Probe(n_estimate=512)
        RoundEngine(regular_graph, protocol).run()
        assert calls == ["reset"]
        run_broadcast(
            regular_graph, protocol, seed=1, config=SimulationConfig(engine="vectorized")
        )
        assert calls == ["reset", "reset"]
        run_broadcast_batch(regular_graph, protocol, seeds=[1, 2])
        assert calls == ["reset", "reset", "reset"]

    def test_reset_clears_quasirandom_state(self):
        protocol = QuasirandomPushProtocol(n_estimate=64)
        protocol._pointers[3] = 7
        import numpy as np

        protocol._pointer_table = np.zeros(4, dtype=np.int64)
        protocol.reset()
        assert protocol._pointers == {}
        assert protocol._pointer_table is None
