"""Unit tests for the configuration-model graph generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import GraphGenerationError
from repro.core.rng import RandomSource
from repro.graphs import configuration_model
from repro.graphs.base import Graph
from repro.graphs.configuration_model import (
    _random_pairing,
    connected_random_regular_graph,
    pairing_multigraph,
    random_regular_graph,
    repair_to_simple,
    validate_regular_parameters,
)
from repro.graphs.properties import is_connected


class TestPairingDirectCsrBuild:
    """The permutation-inverse CSR build must match the edge-array build bit
    for bit: same CSR arrays, same generator stream afterwards."""

    @staticmethod
    def _assert_matches_edge_array_build(seed, n, d):
        direct_rng = RandomSource(seed=seed)
        direct = pairing_multigraph(n, d, direct_rng)

        reference_rng = RandomSource(seed=seed)
        stubs = _random_pairing(n, d, reference_rng)
        reference = Graph.from_edge_array(n, stubs.reshape(-1, 2))

        assert np.array_equal(direct.csr()[0], reference.csr()[0])
        assert np.array_equal(direct.csr()[1], reference.csr()[1])
        assert direct.csr()[1].dtype == reference.csr()[1].dtype
        assert direct.edge_count == reference.edge_count
        # Both paths must consume the identical amount of randomness.
        probe = 2**31
        assert direct_rng.generator.integers(0, probe) == reference_rng.generator.integers(0, probe)

    @pytest.mark.parametrize("seed", [1, 7, 2008])
    @pytest.mark.parametrize("n,d", [(2, 1), (64, 3), (100, 4), (501, 6), (256, 16)])
    def test_bit_identical_to_edge_array_build(self, seed, n, d):
        self._assert_matches_edge_array_build(seed, n, d)

    # 400 and 3006 stubs: one exact chunk, full chunks plus a partial last
    # one, and one stub per chunk.
    @pytest.mark.parametrize("chunk", [1, 7, 64, 400])
    @pytest.mark.parametrize("n,d", [(100, 4), (501, 6)])
    def test_bit_identical_across_build_chunks(self, monkeypatch, chunk, n, d):
        monkeypatch.setattr(configuration_model, "_BUILD_CHUNK", chunk)
        self._assert_matches_edge_array_build(2008, n, d)

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


class TestRepairToSimple:
    def test_repairs_self_loop(self, rng):
        edges = np.array([[0, 0], [1, 2], [3, 4], [5, 6]])
        repaired = repair_to_simple(edges, rng)
        assert all(u != v for u, v in repaired)

    def test_repairs_duplicate_edge(self, rng):
        edges = np.array([[0, 1], [0, 1], [2, 3], [4, 5]])
        repaired = repair_to_simple(edges, rng)
        keys = {tuple(sorted(edge)) for edge in repaired.tolist()}
        assert len(keys) == len(repaired)

    def test_preserves_degree_sequence(self, rng):
        edges = np.array([[0, 0], [0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])
        before = np.bincount(edges.flatten(), minlength=6)
        repaired = repair_to_simple(edges, rng)
        after = np.bincount(repaired.flatten(), minlength=6)
        assert np.array_equal(before, after)

    def test_already_simple_is_unchanged(self, rng):
        edges = np.array([[0, 1], [2, 3]])
        repaired = repair_to_simple(edges, rng)
        assert np.array_equal(repaired, edges)


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
        # A pathological multiset: several loops and duplicate clusters.
        edges = np.array(
            [[0, 0], [1, 1], [2, 3], [2, 3], [2, 3], [4, 5], [4, 5], [6, 7],
             [8, 9], [10, 11], [12, 13], [14, 15], [0, 2], [1, 3]]
        )
        before = np.bincount(edges.flatten(), minlength=16)
        repaired = repair_to_simple(edges, RandomSource(seed=3))
        after = np.bincount(repaired.flatten(), minlength=16)
        assert np.array_equal(before, after)
        assert all(u != v for u, v in repaired)
        keys = {tuple(sorted(edge)) for edge in repaired.tolist()}
        assert len(keys) == len(repaired)

    def test_repair_deterministic_for_same_seed(self):
        edges = np.array([[0, 0], [1, 2], [1, 2], [3, 4], [5, 6], [0, 3]])
        one = repair_to_simple(edges, RandomSource(seed=5))
        two = repair_to_simple(edges, RandomSource(seed=5))
        assert np.array_equal(one, two)

    def test_input_array_is_not_mutated(self):
        edges = np.array([[0, 0], [1, 2], [3, 4], [5, 6]])
        snapshot = edges.copy()
        repair_to_simple(edges, RandomSource(seed=1))
        assert np.array_equal(edges, snapshot)
