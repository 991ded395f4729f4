"""A small adjacency-list graph tailored to the broadcast simulator.

The simulator needs fast neighbour sampling, support for multigraphs (the
configuration model can produce self-loops and parallel edges, and the paper
explicitly analyses the process on such graphs), and cheap node insertion and
removal for churn experiments.  ``networkx`` is great for analysis but its
per-call overhead dominates at the scale of millions of neighbour lookups, so
the core simulator uses this dedicated structure and converts to ``networkx``
only for exact distance computations; ``networkx`` is imported by the
conversions themselves, never by ``import repro``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Graph"]


def csr_index_dtype(n: int, stub_count: int) -> np.dtype:
    """The narrowest index dtype that can address a CSR view of this size.

    ``int32`` halves the memory traffic of every stub gather in the bulk
    engines (and the resident size of million-node graphs); ``int64`` is used
    only when the stub count or node count could overflow 32-bit indexing.
    """
    if max(int(n) + 1, int(stub_count)) < 2**31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class Graph:
    """An undirected (multi)graph stored as adjacency lists.

    Parallel edges are represented by repeated entries in the adjacency list;
    self-loops by a node appearing in its own list (once per loop).  The
    broadcast protocols sample *distinct stubs*, so a parallel edge genuinely
    raises the chance of calling that neighbour — exactly the semantics of the
    configuration model in the paper.
    """

    def __init__(self, nodes: Iterable[int] = ()) -> None:
        self._adjacency: Dict[int, List[int]] = {node: [] for node in nodes}
        self._edge_count = 0
        self._csr_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # When set, the graph was bulk-constructed and the adjacency dict has
        # not been materialised yet: node ids are 0.._lazy_n-1 and the CSR
        # cache is the single source of truth.  Everything the vectorized
        # engines and generators need (csr, degrees, membership, simplicity
        # checks) is answered straight from the arrays; the dict-of-lists is
        # built on first access by a consumer that genuinely needs it.  This
        # is what keeps million-node graph construction in NumPy time instead
        # of list-building time.
        self._lazy_n: Optional[int] = None
        self._csr_stats: Optional[Tuple[bool, Optional[int]]] = None
        self._loop_nodes: Optional[np.ndarray] = None
        self._non_isolated: Optional[np.ndarray] = None

    def _invalidate_csr(self) -> None:
        self._csr_cache = None
        self._csr_stats = None
        self._loop_nodes = None
        self._non_isolated = None

    def _materialise(self) -> None:
        """Build the adjacency dict of a bulk-constructed graph on demand."""
        if self._lazy_n is None:
            return
        indptr, indices = self._csr_cache
        stubs = indices.tolist()
        bounds = indptr.tolist()
        self._adjacency = {
            node: stubs[bounds[node] : bounds[node + 1]]
            for node in range(self._lazy_n)
        }
        self._lazy_n = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Build a graph on nodes ``0..n-1`` from an edge list."""
        graph = cls(range(n))
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def from_edge_array(cls, n: int, edges: np.ndarray) -> "Graph":
        """Build a graph on nodes ``0..n-1`` from an ``(m, 2)`` endpoint array.

        Bulk counterpart of :meth:`from_edges` used by the graph generators:
        the adjacency lists are assembled with NumPy grouping instead of ``m``
        individual ``add_edge`` calls, and the CSR view is seeded as a side
        effect, so million-node graphs construct in seconds.  Self-loops are
        represented exactly as ``add_edge`` would represent them (two entries
        at the looping node).
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edge array must have shape (m, 2), got {edges.shape}")
        if edges.size == 0:
            return cls(range(n))
        if edges.min() < 0 or edges.max() >= n:
            raise ValueError(f"edge endpoints must lie in [0, {n})")
        # Interleaved stub views: src is the contiguous edge buffer itself,
        # dst the partner of each stub (one copy instead of two concats).
        edges = np.ascontiguousarray(edges)
        src = edges.ravel()
        dst = edges[:, ::-1].ravel()
        order = np.argsort(src, kind="stable")
        dtype = csr_index_dtype(n, src.size)
        grouped = dst[order].astype(dtype, copy=False)
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=dtype)
        np.cumsum(counts, out=indptr[1:])
        graph = cls()
        graph._adjacency = {}
        graph._lazy_n = n
        graph._edge_count = edges.shape[0]
        graph._csr_cache = (indptr, grouped)
        return graph

    @classmethod
    def from_csr(cls, n: int, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """Build a graph on nodes ``0..n-1`` directly from a CSR stub view.

        The fastest constructor: generators that can lay out each node's
        adjacency stubs themselves (e.g. the pairing model, where every node
        owns exactly ``d`` stubs) skip the per-edge grouping sort entirely.
        ``indices`` must contain every edge twice (once per endpoint;
        self-loops contribute two entries at the looping node), exactly as
        :meth:`csr` would report it.  The arrays are adopted, not copied, and
        must not be mutated by the caller afterwards.
        """
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        dtype = csr_index_dtype(n, indices.size)
        indptr = indptr.astype(dtype, copy=False)
        indices = indices.astype(dtype, copy=False)
        if indptr.ndim != 1 or indptr.size != n + 1:
            raise ValueError(f"indptr must have shape ({n + 1},), got {indptr.shape}")
        if indices.ndim != 1 or indices.size != int(indptr[-1]):
            raise ValueError(
                f"indices must hold indptr[-1] = {int(indptr[-1])} stubs, "
                f"got {indices.size}"
            )
        if indices.size % 2 != 0:
            raise ValueError("stub count must be even (two stubs per edge)")
        graph = cls()
        graph._adjacency = {}
        graph._lazy_n = n
        graph._edge_count = indices.size // 2
        graph._csr_cache = (indptr, indices)
        return graph

    @classmethod
    def from_networkx(cls, nx_graph: "nx.Graph") -> "Graph":
        """Convert a networkx graph (nodes are relabelled to 0..n-1)."""
        mapping = {node: index for index, node in enumerate(sorted(nx_graph.nodes()))}
        graph = cls(range(len(mapping)))
        for u, v in nx_graph.edges():
            graph.add_edge(mapping[u], mapping[v])
        return graph

    def add_node(self, node_id: int) -> None:
        """Add an isolated node (no-op if already present)."""
        self._materialise()
        if node_id not in self._adjacency:
            self._adjacency[node_id] = []
            self._invalidate_csr()

    def add_edge(self, u: int, v: int) -> None:
        """Add an undirected edge (allows self-loops and parallel edges).

        A self-loop consumes two stubs of its node, exactly as in the
        configuration model, so it appears twice in the adjacency list and
        contributes two to the node's degree.
        """
        self._materialise()
        if u not in self._adjacency or v not in self._adjacency:
            raise KeyError(f"both endpoints must exist before adding edge ({u}, {v})")
        self._adjacency[u].append(v)
        self._adjacency[v].append(u)
        self._edge_count += 1
        self._invalidate_csr()

    def remove_edge(self, u: int, v: int) -> None:
        """Remove one copy of the undirected edge ``(u, v)``."""
        self._materialise()
        self._adjacency[u].remove(v)
        self._adjacency[v].remove(u)
        self._edge_count -= 1
        self._invalidate_csr()

    def remove_node(self, node_id: int) -> None:
        """Remove a node and all its incident edges."""
        self._materialise()
        neighbours = self._adjacency.pop(node_id)
        removed = 0
        for other in set(neighbours):
            if other == node_id:
                removed += neighbours.count(node_id) // 2
                continue
            count = self._adjacency[other].count(node_id)
            self._adjacency[other] = [x for x in self._adjacency[other] if x != node_id]
            removed += count
        self._edge_count -= removed
        self._invalidate_csr()

    # -- queries ---------------------------------------------------------------

    def __contains__(self, node_id: int) -> bool:
        if self._lazy_n is not None:
            return isinstance(node_id, (int, np.integer)) and 0 <= node_id < self._lazy_n
        return node_id in self._adjacency

    def __len__(self) -> int:
        if self._lazy_n is not None:
            return self._lazy_n
        return len(self._adjacency)

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self)

    @property
    def edge_count(self) -> int:
        """Number of edges (parallel edges counted with multiplicity)."""
        return self._edge_count

    def nodes(self) -> List[int]:
        """All node ids, sorted."""
        if self._lazy_n is not None:
            return list(range(self._lazy_n))
        return sorted(self._adjacency)

    def iter_nodes(self) -> Iterator[int]:
        """Iterate node ids in insertion order (cheaper than sorting)."""
        if self._lazy_n is not None:
            return iter(range(self._lazy_n))
        return iter(self._adjacency)

    def neighbors(self, node_id: int) -> List[int]:
        """The adjacency list of ``node_id`` (with multiplicity); not a copy."""
        self._materialise()
        return self._adjacency[node_id]

    def degree(self, node_id: int) -> int:
        """Degree of ``node_id`` (a self-loop contributes two)."""
        if self._lazy_n is not None:
            if not 0 <= node_id < self._lazy_n:
                raise KeyError(node_id)
            indptr, _ = self._csr_cache
            return int(indptr[node_id + 1] - indptr[node_id])
        return len(self._adjacency[node_id])

    def degrees(self) -> Dict[int, int]:
        """Mapping of node id to degree."""
        if self._lazy_n is not None:
            counts = np.diff(self._csr_cache[0]).tolist()
            return dict(enumerate(counts))
        return {node: len(adj) for node, adj in self._adjacency.items()}

    def edges(self) -> List[Tuple[int, int]]:
        """Every edge once as a ``(min, max)`` pair (with multiplicity)."""
        self._materialise()
        seen: Dict[Tuple[int, int], int] = {}
        for u, adj in self._adjacency.items():
            for v in adj:
                key = (u, v) if u <= v else (v, u)
                seen[key] = seen.get(key, 0) + 1
        result: List[Tuple[int, int]] = []
        for (u, v), count in seen.items():
            # Both endpoints contribute an adjacency entry per edge copy
            # (self-loops contribute two entries at the same node), so every
            # edge is seen exactly twice.
            result.extend([(u, v)] * (count // 2))
        return result

    def has_edge(self, u: int, v: int) -> bool:
        """True if at least one edge joins ``u`` and ``v``."""
        self._materialise()
        return v in self._adjacency.get(u, ())

    def _stub_owners(self) -> np.ndarray:
        """The owning node of each CSR stub (lazy graphs only)."""
        indptr, _ = self._csr_cache
        return np.repeat(
            np.arange(self._lazy_n, dtype=np.int64), np.diff(indptr)
        )

    def has_self_loop(self) -> bool:
        """True if any node has an edge to itself."""
        if self._lazy_n is not None:
            return self.csr_stats()[0]
        return any(node in adj for node, adj in self._adjacency.items())

    def has_parallel_edges(self) -> bool:
        """True if any pair of nodes is joined by more than one edge."""
        if self._lazy_n is not None:
            _, indices = self._csr_cache
            owners = self._stub_owners()
            non_loop = indices != owners
            # Owner-major stub keys: duplicates within a node's list land
            # adjacent after a sort, so one pass finds any parallel edge.
            keys = np.sort(owners[non_loop] * self._lazy_n + indices[non_loop])
            return bool((keys[1:] == keys[:-1]).any())
        for node, adj in self._adjacency.items():
            non_loop = [v for v in adj if v != node]
            if len(non_loop) != len(set(non_loop)):
                return True
        return False

    def is_simple(self) -> bool:
        """True if the graph has neither self-loops nor parallel edges."""
        return not self.has_self_loop() and not self.has_parallel_edges()

    def is_regular(self) -> bool:
        """True if every node has the same degree."""
        if self._lazy_n is not None:
            counts = np.diff(self._csr_cache[0])
            return bool(counts.size == 0 or (counts == counts[0]).all())
        degrees = {len(adj) for adj in self._adjacency.values()}
        return len(degrees) <= 1

    # -- bulk (CSR) view ---------------------------------------------------------

    def has_contiguous_ids(self) -> bool:
        """True if the node ids are exactly ``0..n-1`` (CSR requirement)."""
        if self._lazy_n is not None:
            return self._lazy_n > 0
        n = len(self._adjacency)
        if n == 0:
            return False
        return min(self._adjacency) == 0 and max(self._adjacency) == n - 1

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The adjacency structure as cached CSR offset arrays.

        Returns ``(indptr, indices)`` — ``indices[indptr[v]:indptr[v+1]]`` are
        the adjacency stubs of node ``v``, in the same order as
        :meth:`neighbors`, so index-based sampling over either view draws from
        the same distribution (parallel edges and self-loops keep their
        multiplicity).  The arrays are cached until the graph mutates; callers
        must treat them as read-only.

        Raises
        ------
        ValueError
            If the node ids are not contiguous ``0..n-1`` (e.g. after churn).
        """
        if self._csr_cache is None:
            if not self.has_contiguous_ids():
                raise ValueError(
                    "CSR export requires contiguous node ids 0..n-1; "
                    "this graph has been mutated into a sparse id space"
                )
            n = len(self._adjacency)
            counts = np.empty(n, dtype=np.int64)
            for node in range(n):
                counts[node] = len(self._adjacency[node])
            dtype = csr_index_dtype(n, int(counts.sum()))
            indptr = np.zeros(n + 1, dtype=dtype)
            np.cumsum(counts, out=indptr[1:])
            indices = np.empty(int(indptr[-1]), dtype=dtype)
            for node in range(n):
                start, end = indptr[node], indptr[node + 1]
                if end > start:
                    indices[start:end] = self._adjacency[node]
            self._csr_cache = (indptr, indices)
        return self._csr_cache

    def degree_array(self) -> np.ndarray:
        """Per-node degrees as an array aligned with the CSR view."""
        indptr, _ = self.csr()
        return np.diff(indptr)

    #: Nodes per block of :meth:`csr_stats`'s self-loop scan.
    _STATS_BLOCK_NODES = 1 << 16

    def csr_stats(self) -> Tuple[bool, Optional[int]]:
        """``(has_self_loops, uniform_degree)`` for the CSR view, cached with it.

        The engines key their fast paths off these two facts (skip the
        self-call filter on loop-free graphs, replace per-sampler degree
        gathers with scalar arithmetic on regular ones).  They are O(m) to
        derive, so they live here next to the CSR cache — computed once per
        graph, invalidated together with it on mutation — instead of being
        recomputed by every engine construction in a per-seed loop.

        The self-loop check reads :meth:`self_loop_nodes`.
        """
        if self._csr_stats is None:
            degrees = np.diff(self.csr()[0])
            uniform = (
                int(degrees[0])
                if degrees.size and (degrees == degrees[0]).all()
                else None
            )
            self._csr_stats = (bool(self.self_loop_nodes().size), uniform)
        return self._csr_stats

    def self_loop_nodes(self) -> np.ndarray:
        """Ascending ids of the nodes with a self-loop stub, cached with the CSR.

        In the CSR index dtype.  The scan walks the nodes in blocks of
        :attr:`_STATS_BLOCK_NODES`, comparing each block's stubs against
        their owners, so its scratch is one block's owner array, not one
        entry per stub.
        """
        if self._loop_nodes is None:
            indptr, indices = self.csr()
            degrees = np.diff(indptr)
            found = [indices[:0]]
            for start in range(0, degrees.size, self._STATS_BLOCK_NODES):
                stop = min(start + self._STATS_BLOCK_NODES, degrees.size)
                owners = np.repeat(
                    np.arange(start, stop, dtype=indices.dtype), degrees[start:stop]
                )
                owners = owners[indices[indptr[start] : indptr[stop]] == owners]
                # Owners ascend, so a node's loop stubs are adjacent.
                first = np.ones(owners.size, dtype=bool)
                np.not_equal(owners[1:], owners[:-1], out=first[1:])
                found.append(owners[first])
            self._loop_nodes = np.concatenate(found)
        return self._loop_nodes

    def non_isolated_nodes(self) -> np.ndarray:
        """Ascending ids of the nodes with at least one stub, cached with the CSR.

        In the CSR index dtype and read-only: every bulk engine run on the
        graph samples a pull round from this list, so it is built (and its
        pages faulted in) once per graph rather than once per run.
        """
        if self._non_isolated is None:
            indptr, indices = self.csr()
            uniform = self.csr_stats()[1]
            if uniform is None:
                nodes = np.flatnonzero(np.diff(indptr)).astype(indices.dtype, copy=False)
            else:
                nodes = np.arange(indptr.size - 1 if uniform else 0, dtype=indices.dtype)
            nodes.flags.writeable = False
            self._non_isolated = nodes
        return self._non_isolated

    # -- conversions -------------------------------------------------------------

    def to_networkx(self) -> "nx.Graph":
        """Convert to a networkx ``Graph`` (parallel edges collapse)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(self.nodes())
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    def to_networkx_multigraph(self) -> "nx.MultiGraph":
        """Convert to a networkx ``MultiGraph`` preserving multiplicity."""
        import networkx as nx

        nx_graph = nx.MultiGraph()
        nx_graph.add_nodes_from(self.nodes())
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    def copy(self) -> "Graph":
        """A deep copy of the graph."""
        clone = Graph()
        if self._lazy_n is not None:
            # Share the immutable CSR arrays; the clone materialises its own
            # adjacency lists the moment anything mutates or reads them.
            clone._lazy_n = self._lazy_n
            clone._csr_cache = self._csr_cache
        else:
            clone._adjacency = {
                node: list(adj) for node, adj in self._adjacency.items()
            }
        clone._edge_count = self._edge_count
        return clone
