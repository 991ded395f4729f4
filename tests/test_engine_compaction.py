"""Batch row compaction: bit-parity, trigger mechanics, and index remapping.

The bulk engine's compaction contract is that remapping completed
replications out of the ``(R, n)`` state is *invisible* in the results: a
batch run with compaction on (the default) is bit-identical —
per-round history, transmissions, channel accounting, quasirandom pointer
tables — to the same run with the engine's ``_compaction`` switch off, and
every row stays
bit-identical to the corresponding single-seed vectorized run.  The natural
stress case is a gnp graph near the connectivity threshold, where completion
rounds are maximally uneven and rows leave the batch at many different
rounds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast, run_broadcast_batch
from repro.core.engine_vectorized import BatchedVectorizedRoundEngine
from repro.core.node import VectorState
from repro.core.rng import RandomSource
from repro.graphs.families import gnp_graph
from repro.graphs.configuration_model import random_regular_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.algorithm2 import Algorithm2
from repro.protocols.pull import PullProtocol
from repro.protocols.push import PushProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.quasirandom import QuasirandomPushProtocol

SEEDS = list(range(300, 312))  # 12 replications with staggered completions

PROTOCOL_FACTORIES = {
    "push": lambda n: PushProtocol(n_estimate=n),
    "pull": lambda n: PullProtocol(n_estimate=n),
    "push-pull": lambda n: PushPullProtocol(n_estimate=n),
    "algorithm1": lambda n: Algorithm1(n_estimate=n),
    "algorithm2": lambda n: Algorithm2(n_estimate=n),
    "quasirandom": lambda n: QuasirandomPushProtocol(n_estimate=n),
}


@pytest.fixture(scope="module")
def gnp_near_threshold():
    # p slightly above ln(n)/n: connected (so every replication completes)
    # but with low-degree vertices that spread the completion rounds out.
    n = 1024
    graph = gnp_graph(n, 1.3 * math.log(n) / n, RandomSource(seed=11))
    graph.csr()
    return graph


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


def batch_pair(graph, factory, seeds, **config_kwargs):
    """The same batch run with compaction on and off."""
    n = graph.node_count
    config = SimulationConfig(engine="vectorized", **config_kwargs)
    on = run_broadcast_batch(graph, factory(n), seeds, config=config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchedVectorizedRoundEngine, "_compaction", False)
        off = run_broadcast_batch(graph, factory(n), seeds, config=config)
    return on, off


class TestCompactionBitParity:
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_FACTORIES))
    def test_on_off_identical_with_uneven_completions(
        self, protocol_name, gnp_near_threshold
    ):
        on, off = batch_pair(
            gnp_near_threshold, PROTOCOL_FACTORIES[protocol_name], SEEDS
        )
        completions = {r.rounds_to_completion for r in on}
        # The gnp stress case only means something if rows actually finish
        # in different rounds (so compaction fires mid-run, repeatedly).
        assert len(completions) > 1, "expected staggered completion rounds"
        for a, b in zip(on, off):
            assert run_signature(a) == run_signature(b)

    @pytest.mark.parametrize("protocol_name", ["push", "quasirandom", "algorithm1"])
    def test_compacted_rows_match_single_runs(
        self, protocol_name, gnp_near_threshold
    ):
        factory = PROTOCOL_FACTORIES[protocol_name]
        n = gnp_near_threshold.node_count
        config = SimulationConfig(engine="vectorized")
        batched = run_broadcast_batch(
            gnp_near_threshold, factory(n), SEEDS, config=config
        )
        for seed, row in zip(SEEDS, batched):
            single = run_broadcast(
                gnp_near_threshold, factory(n), seed=seed, config=config
            )
            assert run_signature(single) == run_signature(row)

    def test_single_row_batch(self, gnp_near_threshold):
        on, off = batch_pair(
            gnp_near_threshold, PROTOCOL_FACTORIES["quasirandom"], [777]
        )
        assert run_signature(on[0]) == run_signature(off[0])

    def test_with_transmission_loss(self, gnp_near_threshold):
        on, off = batch_pair(
            gnp_near_threshold,
            PROTOCOL_FACTORIES["push-pull"],
            SEEDS,
            message_loss_probability=0.2,
        )
        for a, b in zip(on, off):
            assert run_signature(a) == run_signature(b)

    def test_with_channel_failure(self, gnp_near_threshold):
        on, off = batch_pair(
            gnp_near_threshold,
            PROTOCOL_FACTORIES["push"],
            SEEDS,
            channel_failure_probability=0.15,
        )
        for a, b in zip(on, off):
            assert run_signature(a) == run_signature(b)

    def test_full_schedule_disables_compaction_harmlessly(self, gnp_near_threshold):
        # Without early stopping no row ever leaves the loop, so compaction
        # never fires; the toggle must still be a no-op on the results.
        on, off = batch_pair(
            gnp_near_threshold,
            PROTOCOL_FACTORIES["push"],
            SEEDS[:6],
            stop_when_informed=False,
        )
        for a, b in zip(on, off):
            assert run_signature(a) == run_signature(b)

    def test_regular_graph_parity(self):
        graph = random_regular_graph(512, 8, RandomSource(seed=42), strategy="repair")
        graph.csr()
        on, off = batch_pair(graph, PROTOCOL_FACTORIES["algorithm2"], SEEDS)
        for a, b in zip(on, off):
            assert run_signature(a) == run_signature(b)


class TestCompactionMechanics:
    def test_vector_compact_rows_hook_fires_and_shrinks_tables(
        self, gnp_near_threshold
    ):
        calls = []

        class Probe(QuasirandomPushProtocol):
            def vector_compact_rows(self, keep, n, old_batch):
                calls.append((keep.size, old_batch, self._pointer_table.shape))
                super().vector_compact_rows(keep, n, old_batch)
                assert self._pointer_table.shape == (keep.size, n)

        n = gnp_near_threshold.node_count
        run_broadcast_batch(
            gnp_near_threshold,
            Probe(n_estimate=n),
            SEEDS,
            config=SimulationConfig(engine="vectorized"),
        )
        assert calls, "compaction never fired on the staggered gnp batch"
        for kept, old_batch, shape in calls:
            assert kept < old_batch
            assert shape == (old_batch, n)

    def test_compact_flat_indices_remaps_rows(self):
        n = 10
        # rows: 0 -> {1, 9}, 1 -> {5}, 2 -> {}, 3 -> {0, 2}
        flat = np.array([1, 9, 15, 30, 32], dtype=np.int32)
        keep = np.array([0, 3])
        out = VectorState.compact_flat_indices(flat, keep, n=n, old_batch=4)
        assert out.dtype == flat.dtype
        assert out.tolist() == [1, 9, 10, 12]

    def test_compact_flat_indices_empty_result(self):
        flat = np.array([3, 7], dtype=np.int64)  # both in row 0
        out = VectorState.compact_flat_indices(
            flat, np.array([1]), n=10, old_batch=2
        )
        assert out.size == 0
        assert out.dtype == flat.dtype

    def test_compact_rows_keeps_informed_flat_invariant(self):
        state = VectorState(n=6, source=2, batch=4)
        state.enable_index_tracking()
        state.commit_delivered(np.array([0, 7, 13, 14, 21]), round_index=1)
        state.compact_rows(np.array([1, 3]))
        assert state.batch == 2
        assert state.informed.shape == (2, 6)
        expected = np.flatnonzero(state.informed.reshape(-1))
        assert state.informed_flat.tolist() == expected.tolist()
        assert state.informed_count.tolist() == [
            int(state.informed[0].sum()),
            int(state.informed[1].sum()),
        ]
