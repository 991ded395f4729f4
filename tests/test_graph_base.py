"""Unit tests for repro.graphs.base.Graph."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs.base import Graph


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.node_count == 0
        assert graph.edge_count == 0
        assert graph.nodes() == []

    def test_from_edges(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert graph.node_count == 3
        assert graph.edge_count == 2
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)

    def test_from_networkx_relabels(self):
        nx_graph = nx.Graph()
        nx_graph.add_edges_from([("a", "b"), ("b", "c")])
        graph = Graph.from_networkx(nx_graph)
        assert graph.node_count == 3
        assert graph.edge_count == 2
        assert graph.nodes() == [0, 1, 2]

    def test_add_edge_requires_existing_nodes(self):
        graph = Graph(range(2))
        with pytest.raises(KeyError):
            graph.add_edge(0, 5)


class TestMutation:
    def test_add_and_remove_edge(self):
        graph = Graph(range(3))
        graph.add_edge(0, 1)
        assert graph.edge_count == 1
        graph.remove_edge(0, 1)
        assert graph.edge_count == 0
        assert not graph.has_edge(0, 1)

    def test_parallel_edges_tracked_with_multiplicity(self):
        graph = Graph(range(2))
        graph.add_edge(0, 1)
        graph.add_edge(0, 1)
        assert graph.edge_count == 2
        assert graph.degree(0) == 2
        assert graph.has_parallel_edges()
        assert not graph.is_simple()
        assert graph.edges().count((0, 1)) == 2

    def test_self_loop(self):
        graph = Graph(range(2))
        graph.add_edge(1, 1)
        assert graph.has_self_loop()
        assert not graph.is_simple()
        # A self-loop consumes two stubs, so it contributes two to the degree.
        assert graph.degree(1) == 2
        assert (1, 1) in graph.edges()
        assert graph.edge_count == 1

    def test_remove_node_cleans_incident_edges(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        graph.remove_node(0)
        assert 0 not in graph
        assert graph.edge_count == 2
        assert graph.degree(1) == 1
        assert graph.degree(3) == 1

    def test_remove_node_with_parallel_edges(self):
        graph = Graph(range(3))
        graph.add_edge(0, 1)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.remove_node(0)
        assert graph.edge_count == 1
        assert graph.degree(1) == 1

    def test_add_node_idempotent(self):
        graph = Graph(range(2))
        graph.add_node(1)
        graph.add_node(7)
        assert graph.node_count == 3


class TestQueries:
    def test_degrees_and_regularity(self):
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert triangle.degrees() == {0: 2, 1: 2, 2: 2}
        assert triangle.is_regular()
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert not path.is_regular()

    def test_neighbors_with_multiplicity(self):
        graph = Graph(range(3))
        graph.add_edge(0, 1)
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        assert sorted(graph.neighbors(0)) == [1, 1, 2]

    def test_edges_undirected_deduplication(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]

    def test_contains_and_len(self):
        graph = Graph(range(4))
        assert 3 in graph
        assert 4 not in graph
        assert len(graph) == 4

    def test_is_regular_on_empty_graph(self):
        assert Graph().is_regular()


class TestConversionsAndCopy:
    def test_to_networkx_roundtrip_edge_count(self):
        graph = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 5
        assert nx_graph.number_of_edges() == 4

    def test_to_networkx_multigraph_preserves_multiplicity(self):
        graph = Graph(range(2))
        graph.add_edge(0, 1)
        graph.add_edge(0, 1)
        assert graph.to_networkx_multigraph().number_of_edges() == 2

    @pytest.mark.parametrize("build", ["from_edge_array", "from_csr"])
    @pytest.mark.parametrize("convert", ["to_networkx", "to_networkx_multigraph"])
    def test_conversions_keep_isolated_nodes_of_bulk_graphs(self, build, convert):
        import numpy as np

        if build == "from_edge_array":
            graph = Graph.from_edge_array(5, np.array([[0, 1], [1, 2]]))
        else:
            graph = Graph.from_csr(5, np.array([0, 1, 3, 4, 4, 4]), np.array([1, 0, 2, 1]))
        nx_graph = getattr(graph, convert)()
        assert sorted(nx_graph.nodes()) == [0, 1, 2, 3, 4]
        assert nx_graph.number_of_edges() == 2
        assert nx.number_connected_components(nx_graph) == 3

    def test_copy_is_independent(self):
        graph = Graph.from_edges(3, [(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert graph.edge_count == 1
        assert clone.edge_count == 2
        assert graph.neighbors(1) == [0]


class TestCSRView:
    def test_csr_matches_adjacency(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        indptr, indices = graph.csr()
        for node in range(4):
            stubs = sorted(indices[indptr[node] : indptr[node + 1]].tolist())
            assert stubs == sorted(graph.neighbors(node))

    def test_csr_preserves_multiplicity_and_self_loops(self):
        graph = Graph(range(2))
        graph.add_edge(0, 1)
        graph.add_edge(0, 1)
        graph.add_edge(1, 1)
        indptr, indices = graph.csr()
        assert indices[indptr[0] : indptr[1]].tolist() == [1, 1]
        # A self-loop consumes two stubs, exactly as in neighbors().
        assert sorted(indices[indptr[1] : indptr[2]].tolist()) == [0, 0, 1, 1]

    def test_csr_is_cached_until_mutation(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)])
        first = graph.csr()
        assert graph.csr() is first
        graph.add_edge(0, 2)
        second = graph.csr()
        assert second is not first
        assert second[0][-1] == 6

    def test_csr_rejects_non_contiguous_ids(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)])
        graph.remove_node(1)
        assert not graph.has_contiguous_ids()
        with pytest.raises(ValueError):
            graph.csr()

    def test_degree_array_matches_degrees(self):
        graph = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        degrees = graph.degree_array()
        assert degrees.tolist() == [graph.degree(v) for v in range(4)]

    def test_from_edge_array_equivalent_to_from_edges(self):
        import numpy as np

        edges = [(0, 1), (1, 2), (2, 0), (2, 2), (0, 1)]
        bulk = Graph.from_edge_array(3, np.array(edges))
        scalar = Graph.from_edges(3, edges)
        assert bulk.node_count == scalar.node_count
        assert bulk.edge_count == scalar.edge_count
        for node in range(3):
            assert sorted(bulk.neighbors(node)) == sorted(scalar.neighbors(node))

    def test_from_edge_array_rejects_out_of_range(self):
        import numpy as np

        with pytest.raises(ValueError):
            Graph.from_edge_array(2, np.array([(0, 5)]))

    def test_from_edge_array_empty(self):
        import numpy as np

        graph = Graph.from_edge_array(3, np.empty((0, 2), dtype=np.int64))
        assert graph.node_count == 3
        assert graph.edge_count == 0

    def test_from_edge_array_rejects_malformed_shape_even_when_empty(self):
        import numpy as np

        with pytest.raises(ValueError):
            Graph.from_edge_array(3, np.empty((0, 7), dtype=np.int64))
        with pytest.raises(ValueError):
            Graph.from_edge_array(3, np.empty(0, dtype=np.int64))


class TestLazyAdjacency:
    """Bulk-constructed graphs answer array queries without building lists."""

    def _lazy_graph(self):
        import numpy as np

        return Graph.from_edge_array(
            4, np.array([(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)])
        )

    def test_bulk_construction_defers_adjacency(self):
        graph = self._lazy_graph()
        assert graph._lazy_n == 4
        # Array-backed queries must not materialise the dict.
        assert graph.node_count == 4
        assert len(graph) == 4
        assert 3 in graph and 4 not in graph
        assert graph.nodes() == [0, 1, 2, 3]
        assert list(graph.iter_nodes()) == [0, 1, 2, 3]
        assert graph.degree(1) == 4  # self-loop counts twice
        assert graph.degrees() == {0: 2, 1: 4, 2: 2, 3: 2}
        assert graph.has_contiguous_ids()
        assert graph.has_self_loop()
        assert not graph.has_parallel_edges()
        assert not graph.is_simple()
        assert not graph.is_regular()
        assert graph._lazy_n == 4

    def test_neighbors_materialises_and_matches_scalar_construction(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)]
        import numpy as np

        lazy = Graph.from_edge_array(4, np.array(edges))
        scalar = Graph.from_edges(4, edges)
        for node in range(4):
            assert sorted(lazy.neighbors(node)) == sorted(scalar.neighbors(node))
        assert lazy._lazy_n is None

    def test_mutation_materialises_first(self):
        graph = self._lazy_graph()
        graph.add_edge(0, 2)
        assert graph._lazy_n is None
        assert graph.edge_count == 6
        assert graph.has_edge(0, 2)

    def test_lazy_copy_is_independent(self):
        graph = self._lazy_graph()
        clone = graph.copy()
        clone.add_edge(0, 2)
        assert clone.edge_count == graph.edge_count + 1
        assert not graph.has_edge(0, 2)
        assert sorted(graph.neighbors(0)) == [1, 3]

    def test_lazy_parallel_edge_detection(self):
        import numpy as np

        graph = Graph.from_edge_array(3, np.array([(0, 1), (0, 1), (1, 2)]))
        assert graph.has_parallel_edges()
        assert not graph.has_self_loop()
        assert graph.is_regular() is False

    def test_lazy_regularity(self):
        import numpy as np

        ring = Graph.from_edge_array(4, np.array([(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert ring.is_regular()
        assert ring.is_simple()
