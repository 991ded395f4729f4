"""Non-regular graph families used as baselines and counterexamples.

The paper's related-work discussion compares against results on complete
graphs (Karp et al.), Erdős–Rényi ``G(n,p)`` graphs (Elsässer; Elsässer &
Sauerwald), and hypercubes (Feige et al.).  The conclusion also exhibits the
Cartesian product of a random regular graph with ``K5`` as a graph with
similar expansion where the multiple-choice trick does *not* help.  All of
these generators live here so experiments can swap topologies freely.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.errors import GraphGenerationError
from ..core.rng import RandomSource
from .base import Graph
from .configuration_model import random_regular_graph

__all__ = [
    "complete_graph",
    "gnp_graph",
    "hypercube_graph",
    "ring_graph",
    "regular_product_with_clique",
]


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n`` (the Karp et al. setting).

    Assembled from a bulk edge array (with the CSR cache seeded as a side
    effect) because ``K_n`` has ``n(n-1)/2`` edges and per-edge construction
    dominates profile time in the pull/push-pull experiments.
    """
    if n < 2:
        raise GraphGenerationError(f"complete graph needs n >= 2, got {n}")
    rows, cols = np.triu_indices(n, k=1)
    return Graph.from_edge_array(n, np.column_stack([rows, cols]))


def gnp_graph(n: int, p: float, rng: RandomSource) -> Graph:
    """An Erdős–Rényi ``G(n, p)`` graph."""
    if n < 1:
        raise GraphGenerationError(f"G(n,p) needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise GraphGenerationError(f"edge probability must be in [0, 1], got {p}")
    seed = rng.randint(0, 2**31 - 1)
    graph = Graph(range(n))
    if 1.0 - p == 1.0:
        # No edge: networkx would divide by log(1 - p) == 0 for 0 < p < ~1e-16.
        return graph
    import networkx as nx

    nx_graph = nx.fast_gnp_random_graph(n, p, seed=seed)
    for u, v in nx_graph.edges():
        graph.add_edge(u, v)
    return graph


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-dimensional hypercube on ``2**dimension`` nodes."""
    if dimension < 1:
        raise GraphGenerationError(f"hypercube dimension must be >= 1, got {dimension}")
    n = 2**dimension
    graph = Graph(range(n))
    for node in range(n):
        for bit in range(dimension):
            neighbour = node ^ (1 << bit)
            if neighbour > node:
                graph.add_edge(node, neighbour)
    return graph


def ring_graph(n: int) -> Graph:
    """A cycle on ``n`` nodes — the classic worst case for rumour spreading."""
    if n < 3:
        raise GraphGenerationError(f"ring needs n >= 3, got {n}")
    graph = Graph(range(n))
    for node in range(n):
        graph.add_edge(node, (node + 1) % n)
    return graph


def regular_product_with_clique(
    n: int, d: int, rng: RandomSource, clique_size: int = 5
) -> Graph:
    """Cartesian product of a random d-regular graph with ``K_clique_size``.

    This is the paper's closing counterexample: a graph with expansion and
    connectivity similar to a random regular graph on which the
    multiple-choice modification gives no notable improvement, because each
    node's "local clique" keeps being re-called.

    Node ``(v, i)`` of the product is encoded as ``v * clique_size + i``.
    """
    if clique_size < 2:
        raise GraphGenerationError(f"clique size must be >= 2, got {clique_size}")
    base = random_regular_graph(n, d, rng)
    graph = Graph(range(n * clique_size))
    # Edges inside each copy of the clique.
    for v in range(n):
        for i, j in itertools.combinations(range(clique_size), 2):
            graph.add_edge(v * clique_size + i, v * clique_size + j)
    # One edge per base edge within each clique layer.
    for u, v in base.edges():
        for i in range(clique_size):
            graph.add_edge(u * clique_size + i, v * clique_size + i)
    return graph
