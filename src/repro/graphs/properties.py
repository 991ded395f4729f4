"""Structural property checks for generated graphs.

The paper's analysis leans on a handful of structural facts about random
regular graphs — connectivity for ``d >= 3``, logarithmic diameter, and edge
expansion via the expander mixing lemma with second eigenvalue at most
``2·sqrt(d-1)·(1+o(1))`` (Friedman's theorem).  This module computes those
quantities for concrete graphs so experiments and tests can verify that the
generated substrates actually have the properties the theory assumes.

Connectivity is answered by :func:`component_labels` with array passes over
the CSR stub view, so checking a million-node graph costs NumPy time and
never builds Python adjacency lists.  ``networkx`` is left only for the
exact distance computations (:func:`diameter`,
:func:`average_shortest_path_length`) and is imported when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from .base import Graph

__all__ = [
    "GraphProfile",
    "component_labels",
    "is_connected",
    "connected_components",
    "diameter",
    "average_shortest_path_length",
    "degree_histogram",
    "edge_boundary_size",
    "edges_within",
    "profile_graph",
]


@dataclass(frozen=True)
class GraphProfile:
    """Summary of the structural properties of one graph."""

    node_count: int
    edge_count: int
    min_degree: int
    max_degree: int
    is_regular: bool
    is_simple: bool
    is_connected: bool
    diameter: Optional[int]
    second_eigenvalue: Optional[float]
    friedman_bound: Optional[float]

    def satisfies_friedman_bound(self, slack: float = 1.1) -> bool:
        """True if λ₂ ≤ slack · 2√(d−1), the bound used in the lower-bound proof."""
        if self.second_eigenvalue is None or self.friedman_bound is None:
            return False
        return self.second_eigenvalue <= slack * self.friedman_bound


def _csr_arrays(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """The graph's stubs as CSR arrays over positions in ``graph.nodes()``.

    Graphs with contiguous ids ``0..n-1`` (every bulk-built graph) hand over
    their cached CSR view.  Sparse id spaces — materialised graphs after
    :meth:`Graph.remove_node`, e.g. a churned p2p overlay — are relabelled
    through ``graph.nodes()`` first.
    """
    if graph.has_contiguous_ids():
        return graph.csr()
    nodes = graph.nodes()
    position = {node: index for index, node in enumerate(nodes)}
    lists = [graph.neighbors(node) for node in nodes]
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum([len(adjacency) for adjacency in lists], out=indptr[1:])
    indices = np.fromiter(
        (position[other] for adjacency in lists for other in adjacency),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return indptr, indices


#: Nodes per block when :func:`component_labels` collects the forward
#: edges, and edges per block of its passes.
_LABEL_BLOCK = 1 << 16


def component_labels(graph: Graph) -> Tuple[int, np.ndarray]:
    """``(count, labels)``: the connected components as an integer labelling.

    ``labels[i]`` is the component of ``graph.nodes()[i]``; components are
    numbered ``0..count-1`` in order of their smallest node.  Self-loops and
    parallel edges are irrelevant to connectivity and an isolated node is a
    component of its own.

    The labeller is hook-and-shortcut label propagation over the CSR stub
    pairs, with no Python loop per node or per component.  Every node starts
    as its own root.  Each pass hooks the larger root of every edge that
    still joins two roots onto the smallest root it is joined to
    (``np.minimum.at``), then pointer-jumps ``labels = labels[labels]`` until
    every node points at a root again.  Hooks only ever point to smaller
    ids, so the forest stays acyclic; a root survives a pass only if it is a
    local minimum among its neighbouring roots, and edges inside one
    component drop out of the working set as soon as they stop crossing.
    The surviving roots are the component minima.  Random regular graphs
    settle in a handful of passes.

    The scratch is two edge arrays.  Each edge is stored once, in its
    ``(smaller, larger)`` orientation, collected from the CSR rows block by
    block.  The first pass starts from the identity labelling, so it hooks
    every edge without reading a label.  Later passes overwrite each kept
    edge with its endpoints' roots, block by block: a node's root after a
    pass is its old root's, so the contracted edge crosses exactly when the
    original one would.
    """
    indptr, indices = _csr_arrays(graph)
    n = indptr.size - 1
    dtype = indices.dtype
    labels = np.arange(n, dtype=dtype)
    # Every non-loop edge has exactly one stub whose owner is the smaller
    # end; self-loops never join two components.
    low = np.empty(indices.size // 2, dtype=dtype)
    high = np.empty_like(low)
    size = 0
    degrees = np.diff(indptr)
    for start in range(0, n, _LABEL_BLOCK):
        stop = min(start + _LABEL_BLOCK, n)
        owners = np.repeat(labels[start:stop], degrees[start:stop])
        stubs = indices[indptr[start] : indptr[stop]]
        forward = owners < stubs
        count = int(np.count_nonzero(forward))
        low[size : size + count] = owners[forward]
        high[size : size + count] = stubs[forward]
        size += count
    low, high = low[:size], high[:size]
    while size:
        np.minimum.at(labels, high, low)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        size = 0
        for start in range(0, low.size, _LABEL_BLOCK):
            ends = labels.take(low[start : start + _LABEL_BLOCK])
            others = labels.take(high[start : start + _LABEL_BLOCK])
            crossing = ends != others
            count = int(np.count_nonzero(crossing))
            ends, others = ends[crossing], others[crossing]
            np.minimum(ends, others, out=low[size : size + count])
            np.maximum(ends, others, out=high[size : size + count])
            size += count
        low, high = low[:size], high[:size]
    roots = labels == np.arange(n, dtype=dtype)
    component_of_root = np.cumsum(roots, dtype=dtype) - 1
    return int(np.count_nonzero(roots)), component_of_root[labels]


def is_connected(graph: Graph) -> bool:
    """True if the graph has a single connected component (the empty graph is)."""
    if graph.node_count == 0:
        return True
    count, _ = component_labels(graph)
    return count == 1


def connected_components(graph: Graph) -> List[Set[int]]:
    """The connected components as node-id sets, ordered by smallest node."""
    count, labels = component_labels(graph)
    if count == 0:
        return []
    nodes = np.asarray(graph.nodes(), dtype=np.int64)
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=count))[:-1]
    return [set(part.tolist()) for part in np.split(nodes[order], bounds)]


def diameter(graph: Graph) -> int:
    """Exact diameter (raises ``networkx.NetworkXError`` if disconnected)."""
    import networkx as nx

    return nx.diameter(graph.to_networkx())


def average_shortest_path_length(graph: Graph) -> float:
    """Average hop distance over all node pairs."""
    import networkx as nx

    return nx.average_shortest_path_length(graph.to_networkx())


def degree_histogram(graph: Graph) -> dict:
    """Mapping of degree value to the number of nodes with that degree."""
    histogram: dict = {}
    for degree in graph.degrees().values():
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def edge_boundary_size(graph: Graph, node_set: Set[int]) -> int:
    """Number of edges between ``node_set`` and its complement.

    This is ``|E(S, S̄)|`` in the paper's notation, the quantity bounded from
    below by the expander mixing lemma in the proof of Theorem 1.
    """
    count = 0
    for node in node_set:
        if node not in graph:
            continue
        for neighbour in graph.neighbors(node):
            if neighbour not in node_set:
                count += 1
    return count


def edges_within(graph: Graph, node_set: Set[int]) -> int:
    """Number of edges with both endpoints inside ``node_set`` ("inner edges").

    Every inner edge contributes exactly two adjacency entries within the set
    (self-loops contribute both of theirs at the same node), so the entry
    count halves to the edge count.
    """
    count = 0
    for node in node_set:
        if node not in graph:
            continue
        for neighbour in graph.neighbors(node):
            if neighbour in node_set:
                count += 1
    return count // 2


def second_largest_adjacency_eigenvalue(graph: Graph) -> float:
    """The second-largest eigenvalue (by value) of the adjacency matrix.

    Computed densely with numpy; intended for the moderate sizes used in
    property tests and profiles, not for the largest benchmark graphs.
    """
    nodes = graph.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    matrix = np.zeros((n, n))
    for u, v in graph.edges():
        if u == v:
            matrix[index[u], index[u]] += 2
        else:
            matrix[index[u], index[v]] += 1
            matrix[index[v], index[u]] += 1
    eigenvalues = np.linalg.eigvalsh(matrix)
    return float(eigenvalues[-2]) if n >= 2 else 0.0


def expander_mixing_bound(d: int, n: int, set_size: int, lam: float) -> float:
    """Lower bound on ``|E(S, S̄)|`` from the expander mixing lemma.

    For a d-regular graph with second eigenvalue ``lam`` and ``|S| = s``:

        |E(S, S̄)| ≥ d·s·(n−s)/n − lam·sqrt(s·(n−s))

    This is the inequality used in the lower-bound proof (Section 2).
    """
    s = set_size
    expected = d * s * (n - s) / n
    deviation = lam * math.sqrt(s * (n - s))
    return max(0.0, expected - deviation)


def profile_graph(graph: Graph, compute_spectrum: bool = True) -> GraphProfile:
    """Compute a :class:`GraphProfile` for ``graph``.

    ``compute_spectrum=False`` skips the dense eigenvalue computation (O(n³)),
    which is the right choice above a few thousand nodes.
    """
    degrees = list(graph.degrees().values())
    connected = is_connected(graph)
    graph_diameter = diameter(graph) if connected and graph.node_count > 1 else None
    lam: Optional[float] = None
    friedman: Optional[float] = None
    if compute_spectrum and graph.node_count >= 2:
        lam = second_largest_adjacency_eigenvalue(graph)
        if graph.is_regular() and degrees and degrees[0] >= 2:
            friedman = 2.0 * math.sqrt(degrees[0] - 1)
    return GraphProfile(
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        min_degree=min(degrees) if degrees else 0,
        max_degree=max(degrees) if degrees else 0,
        is_regular=graph.is_regular(),
        is_simple=graph.is_simple(),
        is_connected=connected,
        diameter=graph_diameter,
        second_eigenvalue=lam,
        friedman_bound=friedman,
    )
