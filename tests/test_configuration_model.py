"""Unit tests for the configuration-model graph generator.

Both pairing builds sort one buffer of 64-bit keys into the CSR.  The
multigraph packs each position's partner into its key when the key fits
(the *pack* branch); the simple build (``strategy="repair"``), and any
graph too wide to pack, keeps each position's node aside, swap-repairs it
in place within each node's row of partners and gathers the partners (the
*no-pack* branch).  Both are held to a reference kept only in this file:
the edge-array pairing, the global-sort repair over all ``m`` edge keys and
:meth:`Graph.from_edge_array` that they replaced.  They must return the
same CSR arrays and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import GraphGenerationError
from repro.core.rng import RandomSource
from repro.graphs import configuration_model
from repro.graphs.base import Graph
from repro.graphs.configuration_model import (
    _pairing_graph,
    connected_random_regular_graph,
    pairing_multigraph,
    random_regular_graph,
    validate_regular_parameters,
)
from repro.graphs.properties import component_labels, is_connected


# -- the reference: edge-array pairing, global-sort repair ---------------------------


def _reference_pairing(n, d, rng):
    """The pairing as an ``(m, 2)`` node array: a shuffled stub array."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.generator.shuffle(stubs)
    return stubs.reshape(-1, 2)


def _reference_repair(edges, rng, max_passes=200):
    """``(repaired copy, passes)`` of the global-sort double-edge-swap repair."""
    edges = np.array(edges, dtype=np.int64, copy=True)
    m = edges.shape[0]
    key_base = int(edges.max()) + 1
    generator = rng.generator
    for passes in range(max_passes):
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keys = lo * key_base + hi
        bad = lo == hi
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        duplicate = np.zeros(m, dtype=bool)
        duplicate[1:] = sorted_keys[1:] == sorted_keys[:-1]
        bad[order[duplicate]] = True
        bad_indices = np.flatnonzero(bad)
        if bad_indices.size == 0:
            return edges, passes
        good_keys = sorted_keys[~bad[order]]
        partners = generator.integers(0, m, size=bad_indices.size)
        u, v = edges[bad_indices, 0], edges[bad_indices, 1]
        x, y = edges[partners, 0], edges[partners, 1]
        key_one = np.minimum(u, y) * key_base + np.maximum(u, y)
        key_two = np.minimum(x, v) * key_base + np.maximum(x, v)
        ok = (u != y) & (x != v) & (key_one != key_two)
        ok &= ~bad[partners]
        ok &= ~np.isin(key_one, good_keys) & ~np.isin(key_two, good_keys)
        accepted = np.flatnonzero(ok)
        if accepted.size:
            _, first = np.unique(partners[accepted], return_index=True)
            accepted = accepted[np.sort(first)]
            proposal_keys = np.concatenate([key_one[accepted], key_two[accepted]])
            unique_keys, counts = np.unique(proposal_keys, return_counts=True)
            colliding = unique_keys[counts > 1]
            if colliding.size:
                keep = ~np.isin(key_one[accepted], colliding) & ~np.isin(
                    key_two[accepted], colliding
                )
                accepted = accepted[keep]
            edges[bad_indices[accepted], 1] = y[accepted]
            edges[partners[accepted], 1] = v[accepted]
    raise GraphGenerationError(
        f"could not repair pairing to a simple graph within {max_passes} passes"
    )


def _reference_simple_graph(n, d, rng):
    edges = _reference_pairing(n, d, rng)
    repaired, _ = _reference_repair(edges, rng.spawn("repair"))
    return Graph.from_edge_array(n, repaired)


def _reference_connected_graph(n, d, rng, max_attempts=50):
    for _ in range(max_attempts):
        candidate = _reference_simple_graph(n, d, rng)
        if component_labels(candidate)[0] == 1:
            return candidate
    raise GraphGenerationError("no connected draw")


def _repair_build(n, d, rng):
    return random_regular_graph(n, d, rng, strategy="repair")


def _connected_build(n, d, rng):
    return connected_random_regular_graph(n, d, rng, strategy="repair")


def _build_outcome(build, n, d, seed):
    """Everything a build leaves behind: CSR arrays, dtypes, edge count and
    the generator's next draw, or the error message it raised."""
    rng = RandomSource(seed=seed)
    try:
        graph = build(n, d, rng)
    except GraphGenerationError as error:
        return str(error)
    indptr, indices = graph.csr()
    return (
        indptr.tolist(),
        indices.tolist(),
        indptr.dtype,
        indices.dtype,
        graph.edge_count,
        int(rng.generator.integers(0, 2**62)),
    )


def _pairing_of(edges, d):
    """The ``uint64`` stub permutation whose consecutive positions pair up as
    ``edges`` (each node appearing ``d`` times)."""
    edges = np.asarray(edges)
    used = np.zeros(int(edges.max()) + 1, dtype=np.int64)
    pi = np.empty(edges.size, dtype=np.uint64)
    for position, node in enumerate(edges.ravel().tolist()):
        pi[position] = node * d + used[node]
        used[node] += 1
    assert (used == d).all()
    return pi


def _repair_edges(edges, d, seed):
    """The repaired build of the pairing of ``edges``."""
    edges = np.asarray(edges)
    return _pairing_graph(edges.size // d, d, _pairing_of(edges, d), RandomSource(seed=seed))


def _csr_equal(graph, other):
    return all(
        np.array_equal(mine, theirs) and mine.dtype == theirs.dtype
        for mine, theirs in zip(graph.csr(), other.csr())
    )


def _no_pack(monkeypatch):
    """Force every multigraph onto the no-pack branch."""
    monkeypatch.setattr(configuration_model, "_KEY_BITS", 0)


class TestPairingDirectCsrBuild:
    """The sorted-key CSR build must match the edge-array build bit for bit:
    same CSR arrays, same generator stream afterwards, on both branches."""

    @staticmethod
    def _assert_matches_edge_array_build(seed, n, d):
        direct_rng = RandomSource(seed=seed)
        direct = pairing_multigraph(n, d, direct_rng)

        reference_rng = RandomSource(seed=seed)
        reference = Graph.from_edge_array(n, _reference_pairing(n, d, reference_rng))

        assert np.array_equal(direct.csr()[0], reference.csr()[0])
        assert np.array_equal(direct.csr()[1], reference.csr()[1])
        assert direct.csr()[1].dtype == reference.csr()[1].dtype
        assert direct.edge_count == reference.edge_count
        # Both paths must consume the identical amount of randomness.
        assert (
            direct_rng.generator.bit_generator.state
            == reference_rng.generator.bit_generator.state
        )

    @pytest.mark.parametrize("seed", [1, 7, 2008])
    @pytest.mark.parametrize("n,d", [(2, 1), (64, 3), (100, 4), (501, 6), (256, 16)])
    def test_bit_identical_to_edge_array_build(self, seed, n, d):
        self._assert_matches_edge_array_build(seed, n, d)

    @pytest.mark.parametrize("seed", [1, 7, 2008])
    @pytest.mark.parametrize("n,d", [(2, 1), (64, 3), (501, 6), (256, 16)])
    def test_no_pack_branch_bit_identical(self, monkeypatch, seed, n, d):
        _no_pack(monkeypatch)
        self._assert_matches_edge_array_build(seed, n, d)

    # 400 and 3006 stubs: one exact chunk, full chunks plus a partial last
    # one, and one stub (the packing: one edge) per chunk.
    @pytest.mark.parametrize("pack", [True, False], ids=["pack", "no-pack"])
    @pytest.mark.parametrize("chunk", [1, 7, 64, 400])
    @pytest.mark.parametrize("n,d", [(100, 4), (501, 6)])
    def test_bit_identical_across_build_chunks(self, monkeypatch, pack, chunk, n, d):
        monkeypatch.setattr(configuration_model, "_BUILD_CHUNK", chunk)
        if not pack:
            _no_pack(monkeypatch)
        self._assert_matches_edge_array_build(2008, n, d)

    @given(
        n=st.integers(min_value=2, max_value=300),
        d=st.sampled_from([1, 2, 3, 4, 8, 16]),
        seed=st.integers(min_value=0, max_value=2**32),
        pack=st.booleans(),
        chunk=st.sampled_from([1, 2, 5, 1 << 15]),
    )
    @settings(max_examples=120, deadline=None)
    def test_grid_matches_edge_array_build(self, n, d, seed, pack, chunk):
        # Every n and d the pairing admits, one-edge graphs included (n = 2,
        # d = 1: a one-edge chunk whose partner swap must not alias).
        n = max(n, d + 1)
        n += (n * d) % 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(configuration_model, "_BUILD_CHUNK", chunk)
            if not pack:
                _no_pack(patch)
            self._assert_matches_edge_array_build(seed, n, d)

    def test_materialised_adjacency_matches_csr(self):
        graph = pairing_multigraph(50, 4, RandomSource(seed=5))
        indptr, indices = graph.csr()
        for node in range(50):
            assert graph.neighbors(node) == list(indices[indptr[node]:indptr[node + 1]])


class TestValidation:
    def test_odd_nd_rejected(self):
        with pytest.raises(GraphGenerationError):
            validate_regular_parameters(5, 3)

    def test_degree_at_least_one(self):
        with pytest.raises(GraphGenerationError):
            validate_regular_parameters(10, 0)

    def test_degree_below_n(self):
        with pytest.raises(GraphGenerationError):
            validate_regular_parameters(4, 4)

    def test_minimum_nodes(self):
        with pytest.raises(GraphGenerationError):
            validate_regular_parameters(1, 1)

    def test_valid_parameters_pass(self):
        validate_regular_parameters(10, 3)
        validate_regular_parameters(9, 4)


class TestPairingMultigraph:
    def test_every_node_has_degree_d(self, rng):
        graph = pairing_multigraph(30, 4, rng)
        assert all(degree == 4 for degree in graph.degrees().values())

    def test_edge_count_matches(self, rng):
        graph = pairing_multigraph(20, 6, rng)
        assert graph.edge_count == 20 * 6 // 2

    def test_deterministic_for_same_seed(self):
        a = pairing_multigraph(16, 3, RandomSource(seed=9))
        b = pairing_multigraph(16, 3, RandomSource(seed=9))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_invalid_parameters_raise(self, rng):
        with pytest.raises(GraphGenerationError):
            pairing_multigraph(5, 3, rng)


#: Hand-made 2-regular pairings on four nodes.
SELF_LOOP = [[0, 0], [1, 2], [1, 3], [2, 3]]
DOUBLE_EDGES = [[0, 1], [0, 1], [2, 3], [2, 3]]
CYCLE = [[0, 1], [1, 2], [2, 3], [3, 0]]


class TestRepairPairing:
    """The in-place repair on hand-made pairings, against the reference."""

    @pytest.mark.parametrize("edges", [SELF_LOOP, DOUBLE_EDGES], ids=["loop", "double"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_repairs_to_simple_like_the_reference(self, edges, seed):
        graph = _repair_edges(edges, 2, seed)
        reference, _ = _reference_repair(np.array(edges), RandomSource(seed=seed))
        assert _csr_equal(graph, Graph.from_edge_array(4, reference))
        assert all(u != v for u, v in reference.tolist())
        assert len({tuple(sorted(edge)) for edge in reference.tolist()}) == len(edges)

    def test_degrees_kept_and_the_graph_is_the_repaired_pairings_csr(self):
        graph = _repair_edges(SELF_LOOP, 2, seed=1)
        reference, _ = _reference_repair(np.array(SELF_LOOP), RandomSource(seed=1))
        assert np.array_equal(np.bincount(reference.ravel()), np.full(4, 2))
        # The repair kept its rows current: the CSR is the repaired pairing's.
        assert _csr_equal(graph, _pairing_graph(4, 2, _pairing_of(reference, 2)))

    def test_already_simple_is_unchanged(self):
        rng = RandomSource(seed=1)
        graph = _pairing_graph(4, 2, _pairing_of(CYCLE, 2), rng)
        assert _csr_equal(graph, _pairing_graph(4, 2, _pairing_of(CYCLE, 2)))
        # No pass drew a partner.
        assert rng.random() == RandomSource(seed=1).random()


class TestRandomRegularGraph:
    @pytest.mark.parametrize("strategy", ["rejection", "repair", "networkx", "auto"])
    def test_all_strategies_produce_simple_regular_graphs(self, strategy):
        rng = RandomSource(seed=5)
        d = 3 if strategy == "rejection" else 6
        graph = random_regular_graph(60, d, rng, strategy=strategy)
        assert graph.is_simple()
        assert all(degree == d for degree in graph.degrees().values())

    def test_non_simple_mode_allows_multigraph(self):
        rng = RandomSource(seed=5)
        graph = random_regular_graph(40, 8, rng, simple=False)
        assert all(degree == 8 for degree in graph.degrees().values())

    def test_unknown_strategy_rejected(self, rng):
        with pytest.raises(GraphGenerationError):
            random_regular_graph(20, 4, rng, strategy="quantum")

    def test_rejection_gives_up_for_large_degree(self, rng):
        with pytest.raises(GraphGenerationError):
            random_regular_graph(64, 16, rng, strategy="rejection", max_attempts=2)

    def test_different_seeds_give_different_graphs(self):
        a = random_regular_graph(64, 4, RandomSource(seed=1))
        b = random_regular_graph(64, 4, RandomSource(seed=2))
        assert sorted(a.edges()) != sorted(b.edges())

    def test_same_seed_reproducible(self):
        a = random_regular_graph(64, 6, RandomSource(seed=77))
        b = random_regular_graph(64, 6, RandomSource(seed=77))
        assert sorted(a.edges()) == sorted(b.edges())


class TestConnectedRandomRegularGraph:
    def test_result_is_connected(self):
        graph = connected_random_regular_graph(128, 4, RandomSource(seed=4))
        assert is_connected(graph)

    def test_result_is_regular_and_simple(self):
        graph = connected_random_regular_graph(100, 6, RandomSource(seed=4))
        assert graph.is_simple()
        assert all(degree == 6 for degree in graph.degrees().values())


class TestVectorizedRepair:
    """The array-based repair pass: stress beyond the tiny fixtures."""

    def test_repairs_dense_pairing_to_simple(self):
        rng = RandomSource(seed=11)
        graph = random_regular_graph(256, 12, rng, strategy="repair")
        assert graph.is_simple()
        assert all(degree == 12 for degree in graph.degrees().values())

    def test_many_bad_edges_converge(self):
        # A pathological 3-regular pairing: two loops, a triple edge and
        # two double edges.
        edges = np.array(
            [[0, 0], [0, 1], [1, 1], [2, 3], [2, 3], [2, 3],
             [4, 5], [4, 5], [4, 6], [5, 7], [6, 7], [6, 7]]
        )
        graph = _repair_edges(edges, 3, seed=3)
        reference, _ = _reference_repair(edges, RandomSource(seed=3))
        assert _csr_equal(graph, Graph.from_edge_array(8, reference))
        assert graph.is_simple()
        assert all(degree == 3 for degree in graph.degrees().values())

    def test_repair_deterministic_for_same_seed(self):
        one = _repair_edges(DOUBLE_EDGES, 2, seed=5)
        two = _repair_edges(DOUBLE_EDGES, 2, seed=5)
        assert _csr_equal(one, two)


class TestRepairMatchesReference:
    """``strategy="repair"`` and the connected builder against the
    edge-array reference: same CSR arrays, dtypes, edge count and next
    generator draw (or the same error)."""

    @given(
        n=st.integers(min_value=17, max_value=400),
        d=st.sampled_from([3, 4, 8, 16]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_simple_and_connected_builds_match(self, n, d, seed):
        n += (n * d) % 2
        assert _build_outcome(_repair_build, n, d, seed) == _build_outcome(
            _reference_simple_graph, n, d, seed
        )
        assert _build_outcome(_connected_build, n, d, seed) == _build_outcome(
            _reference_connected_graph, n, d, seed
        )

    def test_dense_pairing_needing_many_passes(self):
        n, d, seed = 20, 16, 0
        _, passes = _reference_repair(
            _reference_pairing(n, d, RandomSource(seed=seed)),
            RandomSource(seed=seed).spawn("repair"),
        )
        assert passes >= 20
        outcome = _build_outcome(_repair_build, n, d, seed)
        assert outcome == _build_outcome(_reference_simple_graph, n, d, seed)
        assert not isinstance(outcome, str)

    def test_exhausted_passes_raise_the_same_error(self):
        n, d, seed = 18, 16, 1
        message = "could not repair pairing to a simple graph within 200 passes"
        assert _build_outcome(_repair_build, n, d, seed) == message
        assert _build_outcome(_reference_simple_graph, n, d, seed) == message
        with pytest.raises(GraphGenerationError, match="within 200 passes"):
            random_regular_graph(n, d, RandomSource(seed=seed), strategy="repair")

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_bad_edge_scan_across_chunks(self, monkeypatch, chunk):
        # The first pass scans every row in chunks of _BUILD_CHUNK // d rows.
        monkeypatch.setattr(configuration_model, "_BUILD_CHUNK", chunk)
        for n, d, seed in [(100, 8, 2008), (257, 4, 7), (64, 16, 1)]:
            assert _build_outcome(_repair_build, n, d, seed) == _build_outcome(
                _reference_simple_graph, n, d, seed
            )
