"""Unit tests for the baseline graph families."""

from __future__ import annotations

import pytest

from repro.core.errors import GraphGenerationError
from repro.core.rng import RandomSource
from repro.graphs.families import (
    complete_graph,
    gnp_graph,
    hypercube_graph,
    regular_product_with_clique,
    ring_graph,
)
from repro.graphs.properties import is_connected


class TestCompleteGraph:
    def test_edge_count(self):
        graph = complete_graph(10)
        assert graph.edge_count == 45
        assert all(degree == 9 for degree in graph.degrees().values())

    def test_minimum_size(self):
        with pytest.raises(GraphGenerationError):
            complete_graph(1)

    def test_is_simple_and_connected(self):
        graph = complete_graph(6)
        assert graph.is_simple()
        assert is_connected(graph)


class TestGnpGraph:
    def test_extreme_probabilities(self, rng):
        empty = gnp_graph(20, 0.0, rng)
        assert empty.edge_count == 0
        full = gnp_graph(10, 1.0, rng)
        assert full.edge_count == 45

    def test_invalid_probability(self, rng):
        with pytest.raises(GraphGenerationError):
            gnp_graph(10, 1.5, rng)

    def test_tiny_probability_is_an_edgeless_draw(self):
        # 1 - p rounds to 1: networkx's geometric skip would divide by zero.
        tiny, zero = RandomSource(seed=0), RandomSource(seed=0)
        graph = gnp_graph(2, 4.3e-94, tiny)
        assert graph.node_count == 2 and graph.edge_count == 0
        assert gnp_graph(2, 0.0, zero).edge_count == 0
        assert tiny.generator.bit_generator.state == zero.generator.bit_generator.state

    def test_edge_count_roughly_matches_expectation(self, rng):
        graph = gnp_graph(200, 0.1, rng)
        expected = 0.1 * 200 * 199 / 2
        assert 0.6 * expected < graph.edge_count < 1.4 * expected


class TestHypercube:
    def test_dimensions(self):
        cube = hypercube_graph(4)
        assert cube.node_count == 16
        assert all(degree == 4 for degree in cube.degrees().values())
        assert cube.edge_count == 16 * 4 // 2

    def test_neighbours_differ_in_one_bit(self):
        cube = hypercube_graph(3)
        for node in cube.nodes():
            for neighbour in cube.neighbors(node):
                assert bin(node ^ neighbour).count("1") == 1

    def test_invalid_dimension(self):
        with pytest.raises(GraphGenerationError):
            hypercube_graph(0)


class TestRing:
    def test_ring_structure(self):
        ring = ring_graph(7)
        assert ring.edge_count == 7
        assert all(degree == 2 for degree in ring.degrees().values())
        assert is_connected(ring)

    def test_minimum_size(self):
        with pytest.raises(GraphGenerationError):
            ring_graph(2)


class TestProductWithClique:
    def test_size_and_degree(self, rng):
        graph = regular_product_with_clique(20, 4, rng, clique_size=5)
        assert graph.node_count == 100
        # Each node: clique_size-1 = 4 intra-clique edges + d = 4 inter-copy edges.
        assert all(degree == 8 for degree in graph.degrees().values())

    def test_connected(self, rng):
        graph = regular_product_with_clique(16, 4, rng, clique_size=3)
        assert is_connected(graph)

    def test_invalid_clique_size(self, rng):
        with pytest.raises(GraphGenerationError):
            regular_product_with_clique(10, 4, rng, clique_size=1)
