"""The vectorized engine's stub-stealing join kernel.

Joins splice each joiner into ``max(1, target_degree // 2)`` live stubs.  The
engine applies every splice whose unordered node pair is unique among the
round's draws in one array pass and replays the few draws that share a pair
one at a time.  This suite pins that kernel three ways:

1. **golden digests** of whole churned runs — every churn model × two
   protocols × a simple and a multigraph family — recorded from the
   per-splice loop the kernel replaced, so any semantic drift in joins fails
   here even though it would stay self-consistent;
2. a **differential test** against a reference copy of that per-splice loop
   (kept only in this file) on hand-built CSR states: tombstones, ``-1``
   compaction sentinels, a dense multigraph, and flash crowds larger than
   the network;
3. the **splice counters** in ``metadata["churn"]``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast
from repro.core.engine_vectorized import BatchedVectorizedRoundEngine, VectorChurnOps
from repro.core.node import VectorState
from repro.core.rng import RandomSource
from repro.failures.churn import AdversarialChurn, BurstChurn, FlashCrowd, UniformChurn
from repro.graphs.registry import build_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.push_pull import PushPullProtocol

from test_churn_vectorized import fingerprint

GOLDEN_CHURN = {
    "uniform": lambda: UniformChurn(leave_rate=0.02, join_rate=0.02, target_degree=8),
    "burst": lambda: BurstChurn(at_round=3, fraction=0.3),
    "flash-crowd": lambda: FlashCrowd(at_round=2, fraction=0.4, target_degree=8),
    "adversarial": lambda: AdversarialChurn(
        leave_rate=0.05, join_rate=0.02, target_degree=6
    ),
}

GOLDEN_PROTOCOLS = {
    "algorithm1": lambda n: Algorithm1(n_estimate=n),
    "push-pull": lambda n: PushPullProtocol(n_estimate=n),
}

GOLDEN_FAMILIES = ("random-regular", "pairing-multigraph")

#: Counters the golden digests cover.  Keys added to ``metadata["churn"]``
#: later are pinned by their own tests, not by these digests.
GOLDEN_CHURN_KEYS = ("departures", "arrivals", "node_compactions")

#: sha256 of ``_golden_fingerprint`` per (family, churn model, protocol),
#: recorded from the per-splice join loop (n=256, d=8, seed 2008).
GOLDEN_DIGESTS = {
    "random-regular/adversarial/algorithm1": (
        "ece80502e029c462fe66396096654490"
        "70cd02b70edc990de98159a79d41608d"
    ),
    "random-regular/adversarial/push-pull": (
        "e6d424d6eb0b244d1b6965ff98b7214c"
        "18f02fd3aa08261678951f6140d22b88"
    ),
    "random-regular/burst/algorithm1": (
        "035ee031320c104d12641ab07f3eb71a"
        "0cc6a16117bd06741542c0c099786471"
    ),
    "random-regular/burst/push-pull": (
        "1e2086a93d6206c6349e573779af43c3"
        "ddef595904fdb4bd07a71b3f55979ec9"
    ),
    "random-regular/flash-crowd/algorithm1": (
        "57775f5a7835272a79f22ea38fb71b55"
        "3e5c0395125e27f224a1628cd72188a2"
    ),
    "random-regular/flash-crowd/push-pull": (
        "08c3151ca9dd53854f1a8dbafb22f4b7"
        "eeba671470d472d3a2023d1a46a6f833"
    ),
    "random-regular/uniform/algorithm1": (
        "23e487720e31d75f2be1244b31c107ae"
        "b95756209d8f4bca0e2bd6f5bd006852"
    ),
    "random-regular/uniform/push-pull": (
        "ff736b0af3dbc36736afe34d7e1ce3fc"
        "8cd28539599ecd72b9e1998ada810f9a"
    ),
    "pairing-multigraph/adversarial/algorithm1": (
        "47f2891a766f6154ce591e9660fcc5bd"
        "7a9c2d39e555a976b94abe0d0c6e8c7d"
    ),
    "pairing-multigraph/adversarial/push-pull": (
        "b78b55fcd487118ae1d20d87a11069f8"
        "04ca9be7b4e3a5a7e94d26ebb654a9e1"
    ),
    "pairing-multigraph/burst/algorithm1": (
        "ffd7d65d0746e84ca876ce9a289b4846"
        "450bb0f6fdf93fbea471276e856e5c94"
    ),
    "pairing-multigraph/burst/push-pull": (
        "249588aa3c4f27ba019bf28ce4629bdd"
        "705f300930f311e14e2975d14dea774b"
    ),
    "pairing-multigraph/flash-crowd/algorithm1": (
        "5b35668406d2c066d7165aac62736106"
        "0c880d444994ed8efba119b3f9d2b460"
    ),
    "pairing-multigraph/flash-crowd/push-pull": (
        "cf2d60d364046d8d821f7942baf23266"
        "33861df5e7557ea974e59d51b7152c79"
    ),
    "pairing-multigraph/uniform/algorithm1": (
        "6212f2f6d1606a9c5d262ac19c0611cd"
        "55413ed2f90fba1b4082aeee36534c05"
    ),
    "pairing-multigraph/uniform/push-pull": (
        "4d21f6b3b0b88f7a2359c132ce7f7e59"
        "ff1f30fce6993f19f0291fdc59b1175f"
    ),
}


def _golden_fingerprint(result):
    observed = list(fingerprint(result))
    observed[-2] = {key: observed[-2][key] for key in GOLDEN_CHURN_KEYS}
    return hashlib.sha256(repr(tuple(observed)).encode()).hexdigest()


def _golden_run(family, churn_name, protocol_name):
    n = 256
    graph = build_graph(family, rng=RandomSource(3, name="graph"), n=n, d=8)
    return run_broadcast(
        graph=graph,
        protocol=GOLDEN_PROTOCOLS[protocol_name](n),
        seed=2008,
        config=SimulationConfig(engine="vectorized", collect_round_history=True),
        churn_model=GOLDEN_CHURN[churn_name](),
    )


GOLDEN_CASES = [
    (family, churn_name, protocol_name)
    for family in GOLDEN_FAMILIES
    for churn_name in sorted(GOLDEN_CHURN)
    for protocol_name in sorted(GOLDEN_PROTOCOLS)
]


@pytest.mark.parametrize("family,churn_name,protocol_name", GOLDEN_CASES)
def test_golden_churn_digest(family, churn_name, protocol_name):
    result = _golden_run(family, churn_name, protocol_name)
    assert result.metadata["engine"] == "vectorized"
    key = f"{family}/{churn_name}/{protocol_name}"
    assert _golden_fingerprint(result) == GOLDEN_DIGESTS[key]


def test_one_seed_engine_run_takes_churn():
    # A single run is the engine's one-seed case, churn included.
    n = 256
    graph = build_graph("random-regular", rng=RandomSource(3, name="graph"), n=n, d=8)
    (result,) = BatchedVectorizedRoundEngine(
        graph,
        GOLDEN_PROTOCOLS["algorithm1"](n),
        seeds=[2008],
        config=SimulationConfig(engine="vectorized", collect_round_history=True),
        churn_model=GOLDEN_CHURN["flash-crowd"](),
    ).run()
    assert result.metadata["batch_size"] == 1
    assert result.final_informed <= result.metadata["final_node_count"]
    assert (
        _golden_fingerprint(result)
        == GOLDEN_DIGESTS["random-regular/flash-crowd/algorithm1"]
    )


# ---------------------------------------------------------------------------
# Differential test against the per-splice reference loop
# ---------------------------------------------------------------------------


def reference_join(indptr, indices, alive, count, target_degree, generator):
    """The per-splice join loop the engine's array kernel replaced.

    Returns ``(indptr, indices, new_ids)`` for the grown CSR.  ``alive`` is
    the liveness plane before the join; the inputs are not modified.
    """
    indices = indices.copy()
    splices = max(1, int(target_degree) // 2)
    base_n = indptr.size - 1
    alive_nodes = np.flatnonzero(alive)
    live_degrees = np.diff(indptr)[alive_nodes].astype(np.int64)
    cum = np.cumsum(live_degrees)
    total_stubs = int(cum[-1]) if cum.size else 0
    new_ids = list(range(base_n, base_n + count))
    rows = [[] for _ in range(count)]
    if total_stubs > 0:
        uniforms = generator.random(count * splices)
        positions = (uniforms * total_stubs).astype(np.int64)
        np.minimum(positions, total_stubs - 1, out=positions)
        owner_rank = np.searchsorted(cum, positions, side="right")
        owners = alive_nodes[owner_rank]
        offsets = positions - (cum[owner_rank] - live_degrees[owner_rank])
        stub_pos = indptr[owners].astype(np.int64) + offsets
        draw = 0
        for j in range(count):
            joiner = new_ids[j]
            row = rows[j]
            for _ in range(splices):
                u = int(owners[draw])
                pos = int(stub_pos[draw])
                draw += 1
                v = int(indices[pos])
                if v < 0 or v >= base_n or v == u or not alive[v]:
                    continue
                back = np.flatnonzero(indices[indptr[v] : indptr[v + 1]] == u)
                if back.size == 0:
                    continue
                indices[pos] = joiner
                indices[int(indptr[v]) + int(back[0])] = joiner
                row.append(u)
                row.append(v)
    lengths = np.array([len(row) for row in rows], dtype=indptr.dtype)
    new_indptr = np.concatenate([indptr, indptr[-1] + np.cumsum(lengths)])
    tail = [np.asarray(row, dtype=indices.dtype) for row in rows if row]
    return new_indptr.astype(indptr.dtype), np.concatenate([indices] + tail), new_ids


def _reference_join_nodes(engine, count, target_degree, generator, state):
    """Drop-in for ``BatchedVectorizedRoundEngine._join_nodes`` built on the reference."""
    count = int(count)
    if count <= 0:
        return []
    alive = state.alive.copy()
    state.grow_nodes(count)
    engine._indptr, engine._indices, new_ids = reference_join(
        engine._indptr, engine._indices, alive, count, target_degree, generator
    )
    engine._n = engine._indptr.size - 1
    engine._invalidate_topology_caches()
    return new_ids


def _dynamic_engine(family, n, d, graph_seed=3):
    graph = build_graph(family, rng=RandomSource(graph_seed, name="graph"), n=n, d=d)
    engine = BatchedVectorizedRoundEngine(
        graph,
        PushPullProtocol(n_estimate=n),
        seeds=[1],
        config=SimulationConfig(engine="vectorized"),
        churn_model=UniformChurn(leave_rate=0.0, join_rate=0.0, target_degree=8),
    )
    state = VectorState(n=n, source=0)
    state.enable_membership()
    engine._state = state
    engine._reset_dynamic_topology()
    return engine, state


def _assert_join_matches_reference(engine, state, count, target_degree, seed):
    indptr, indices = engine._indptr.copy(), engine._indices.copy()
    alive = state.alive.copy()
    expected_gen = np.random.default_rng(seed)
    expected = reference_join(
        indptr, indices, alive, count, target_degree, expected_gen
    )
    generator = np.random.default_rng(seed)
    ids = VectorChurnOps(engine, state, 1).join(count, target_degree, generator)
    assert ids == expected[2]
    assert engine._indptr.dtype == indptr.dtype
    assert engine._indices.dtype == indices.dtype
    np.testing.assert_array_equal(engine._indptr, expected[0])
    np.testing.assert_array_equal(engine._indices, expected[1])
    # The reference draws exactly one count · splices uniform batch.
    assert generator.bit_generator.state == expected_gen.bit_generator.state


class TestJoinKernelDifferential:
    def test_tombstoned_rows(self):
        engine, state = _dynamic_engine("random-regular", n=64, d=6)
        state.remove_nodes(np.arange(3, 64, 5))
        for round_seed in range(4):
            _assert_join_matches_reference(engine, state, 12, 8, seed=round_seed)

    def test_compaction_sentinels(self):
        engine, state = _dynamic_engine("random-regular", n=64, d=6)
        _assert_join_matches_reference(engine, state, 10, 6, seed=21)
        state.remove_nodes(np.arange(0, state.n, 3)[1:])
        engine._compact_nodes(state)
        assert (engine._indices < 0).any()
        for round_seed in range(3):
            _assert_join_matches_reference(engine, state, 15, 8, seed=30 + round_seed)

    def test_dense_multigraph(self):
        engine, state = _dynamic_engine("pairing-multigraph", n=8, d=6)
        indptr, indices = engine._indptr, engine._indices
        rows = np.repeat(np.arange(8), np.diff(indptr))
        assert (indices == rows).any()  # self-loops present
        for round_seed in range(5):
            _assert_join_matches_reference(engine, state, 6, 6, seed=40 + round_seed)

    @pytest.mark.parametrize("family", GOLDEN_FAMILIES)
    @pytest.mark.parametrize("target_degree", [2, 5, 8])
    def test_crowd_larger_than_the_network(self, family, target_degree):
        # 48 joiners on 32 edges: same-pair draws and stubs taken by
        # earlier joiners of the same call are forced.
        engine, state = _dynamic_engine(family, n=16, d=4)
        _assert_join_matches_reference(engine, state, 48, target_degree, seed=7)

    def test_empty_stub_space_draws_nothing(self):
        engine, state = _dynamic_engine("random-regular", n=8, d=2)
        state.remove_nodes(np.arange(8))
        _assert_join_matches_reference(engine, state, 3, 8, seed=5)

    @pytest.mark.parametrize("fraction", [1.0, 3.0])
    @pytest.mark.parametrize("family", GOLDEN_FAMILIES)
    def test_flash_crowd_runs_match_reference(self, monkeypatch, family, fraction):
        def run():
            graph = build_graph(family, rng=RandomSource(4, name="graph"), n=64, d=4)
            return run_broadcast(
                graph=graph,
                protocol=Algorithm1(n_estimate=64),
                seed=13,
                config=SimulationConfig(engine="vectorized", collect_round_history=True),
                churn_model=FlashCrowd(at_round=2, fraction=fraction, target_degree=8),
            )

        kernel = run()
        monkeypatch.setattr(
            BatchedVectorizedRoundEngine, "_join_nodes", _reference_join_nodes
        )
        reference = run()
        assert kernel.metadata["churn"]["arrivals"] == int(fraction * 64)
        assert _golden_fingerprint(kernel) == _golden_fingerprint(reference)


# ---------------------------------------------------------------------------
# Splice counters
# ---------------------------------------------------------------------------


class TestSpliceCounters:
    @pytest.mark.parametrize(
        "churn_name,target_degree",
        [("uniform", 8), ("flash-crowd", 8), ("adversarial", 6)],
    )
    @pytest.mark.parametrize("family", GOLDEN_FAMILIES)
    def test_every_draw_is_made_or_skipped(self, family, churn_name, target_degree):
        result = _golden_run(family, churn_name, "algorithm1")
        churn = result.metadata["churn"]
        assert churn["arrivals"] > 0 and churn["splices"] > 0
        assert churn["splices"] + churn["splices_skipped"] == churn["arrivals"] * max(
            1, target_degree // 2
        )

    def test_counters_survive_node_compaction(self, monkeypatch):
        graph = build_graph("pairing-multigraph", rng=RandomSource(3, name="graph"), n=256, d=8)
        counters = {}
        for compact in (True, False):
            monkeypatch.setattr(BatchedVectorizedRoundEngine, "_compaction", compact)
            result = run_broadcast(
                graph=graph,
                protocol=Algorithm1(n_estimate=256),
                seed=5,
                config=SimulationConfig(engine="vectorized"),
                churn_model=UniformChurn(leave_rate=0.1, join_rate=0.05, target_degree=8),
            )
            churn = result.metadata["churn"]
            if compact:
                assert churn["node_compactions"] >= 1
            counters[compact] = (churn["splices"], churn["splices_skipped"])
        assert counters[True] == counters[False]
        assert counters[True][0] > 0
