"""The configuration (pairing) model for random d-regular graphs.

This is the exact generative process the paper analyses (Section 1.2): start
with ``n`` nodes carrying ``d`` unmatched stubs each; repeatedly pick two
unmatched stubs uniformly at random and join them with an edge.  The process
may create self-loops and parallel edges; the paper argues it is sufficient to
analyse the algorithm on the (possibly non-simple) outcome because every
simple d-regular graph is produced with equal probability and the failure
probability is small for constant degrees.

Three ways of obtaining a *simple* graph are provided, selectable through the
``strategy`` parameter of :func:`random_regular_graph`:

* ``"rejection"`` — draw pairings until one is simple.  Faithful to the
  textbook description but the acceptance probability decays like
  ``exp(-(d²-1)/4)``, so it is only practical for ``d ≤ 4`` or so.
* ``"repair"`` — draw one pairing and remove self-loops / parallel edges by
  uniform double-edge swaps.  This is the standard practical construction and
  is asymptotically uniform for the degrees used here; it is the default for
  larger ``d``.
* ``"networkx"`` — delegate to :func:`networkx.random_regular_graph`.

``strategy="auto"`` (default) picks rejection when the expected acceptance
probability is reasonable and repair otherwise.

:func:`connected_random_regular_graph` redraws until the outcome is
connected.  The check is :func:`repro.graphs.properties.component_labels`,
a few array passes over the CSR view: it consumes no randomness and leaves
the graph lazy (no adjacency lists), so only ``strategy="networkx"`` ever
imports ``networkx``.
"""

from __future__ import annotations

import math
import numpy as np

from ..core.errors import GraphGenerationError
from ..core.rng import RandomSource
from .base import Graph
from .properties import component_labels

__all__ = [
    "pairing_multigraph",
    "random_regular_graph",
    "connected_random_regular_graph",
    "validate_regular_parameters",
    "repair_to_simple",
]

#: Stub entries per pass of the pairing build's scatter and gather loops;
#: bounds their scratch at a few MiB whatever the graph size.
_BUILD_CHUNK = 1 << 20


def validate_regular_parameters(n: int, d: int) -> None:
    """Validate that an ``n``-node ``d``-regular graph can exist.

    Requirements: ``n >= 2``, ``1 <= d < n``, and ``n * d`` even (handshake
    lemma).  Raises :class:`GraphGenerationError` otherwise.
    """
    if n < 2:
        raise GraphGenerationError(f"need at least two nodes, got n={n}")
    if d < 1:
        raise GraphGenerationError(f"degree must be at least 1, got d={d}")
    if d >= n:
        raise GraphGenerationError(f"degree d={d} must be smaller than n={n}")
    if (n * d) % 2 != 0:
        raise GraphGenerationError(
            f"no d-regular graph exists for odd n*d (n={n}, d={d})"
        )


def _random_pairing(n: int, d: int, rng: RandomSource) -> np.ndarray:
    """A uniformly random perfect matching of the ``n*d`` stubs.

    Returns an array of node indices in which positions ``2i`` and ``2i+1``
    are the endpoints of the ``i``-th edge.  Shuffling the stub array and
    pairing consecutive entries is distributionally identical to the
    sequential "match the next unmatched stub with a uniform unmatched stub"
    description in the paper.
    """
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.generator.shuffle(stubs)
    return stubs


def pairing_multigraph(n: int, d: int, rng: RandomSource) -> Graph:
    """One draw of the pairing process (self-loops / parallel edges allowed).

    Built straight into CSR form without the ``O(m log m)`` stable argsort
    over the ``2m`` stubs that :meth:`Graph.from_edge_array` would perform.
    Because every node owns exactly ``d`` stubs, the CSR layout is known up
    front (node ``v`` occupies slots ``v*d .. v*d+d-1``); drawing the stub
    permutation directly, inverting it with one scatter, and sorting each
    node's ``d`` positions row-wise recovers the partner of every stub with
    counting-sort-style array passes.

    Bit-parity: an in-place shuffle of an index-dtype ``arange(2m)`` makes
    the draws of ``Generator.permutation(2m)`` (which shuffles an int64
    one), i.e. of the previous ``shuffle`` of the stub array, and the
    row-wise position sort reproduces the stable-argsort stub order, so this
    build returns the identical graph (same CSR arrays, same generator
    state) as the edge-array path, about 3x faster at ``n = 10^6``.

    Memory: the build owns the permutation and one work buffer, both ``2m``
    index-dtype entries.  The inverse scatter fills the buffer chunk by
    chunk, the row sort runs in place, and the partner gather overwrites it
    chunk by chunk, so the buffer itself becomes ``indices``.  Scratch
    beyond the two arrays is bounded by :data:`_BUILD_CHUNK` entries.  The
    traced peak at ``n = 10^6, d = 8`` is ~66 MB, about 2.0x the CSR.
    """
    validate_regular_parameters(n, d)
    two_m = n * d
    # int32 keys halve the traffic of the two random-access passes (the
    # inverse scatter and the partner gather), which dominate at this scale.
    dtype = np.int32 if two_m < 2**31 else np.int64
    # pi[p] = original stub at shuffled position p; stubs of node v are the
    # original positions v*d .. v*d+d-1, and shuffled positions p and p^1 are
    # matched (consecutive entries pair up).
    # What ``Generator.permutation(2m)`` does to an int64 arange: same
    # draws and generator state, without the int64 array and its copy.
    pi = np.arange(two_m, dtype=dtype)
    rng.generator.shuffle(pi)
    # The inverse permutation: buffer[s] = shuffled position of stub s.
    buffer = np.empty(two_m, dtype=dtype)
    for start in range(0, two_m, _BUILD_CHUNK):
        stop = min(start + _BUILD_CHUNK, two_m)
        buffer[pi[start:stop]] = np.arange(start, stop, dtype=dtype)
    # Each row holds one node's d shuffled positions; ascending order matches
    # the stable grouping sort of the edge-array build.
    buffer.reshape(n, d).sort(axis=1)
    # Position p is matched with p ^ 1, whose stub belongs to node
    # pi[p ^ 1] // d: overwrite each position with that partner node.
    for start in range(0, two_m, _BUILD_CHUNK):
        block = buffer[start : start + _BUILD_CHUNK]
        np.bitwise_xor(block, 1, out=block)
        block[...] = pi[block]
        np.floor_divide(block, d, out=block)
    indptr = np.arange(0, two_m + 1, d, dtype=dtype)
    return Graph.from_csr(n, indptr, buffer)


def _pairing_edge_array(n: int, d: int, rng: RandomSource) -> np.ndarray:
    """The pairing as an ``(m, 2)`` edge array (no Graph object yet)."""
    stubs = _random_pairing(n, d, rng)
    return stubs.reshape(-1, 2)


def _isin_sorted(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """``np.isin(values, sorted_keys)`` for an ascending ``sorted_keys``.

    A binary search per value; ``np.isin`` would hash or sort all of
    ``sorted_keys`` again on every call.
    """
    if sorted_keys.size == 0:
        return np.zeros(values.shape, dtype=bool)
    positions = np.searchsorted(sorted_keys, values)
    return sorted_keys[np.minimum(positions, sorted_keys.size - 1)] == values


def repair_to_simple(
    edges: np.ndarray, rng: RandomSource, max_passes: int = 200
) -> np.ndarray:
    """Remove self-loops and parallel edges from a pairing by double-edge swaps.

    A *bad* edge (self-loop or duplicate of an earlier edge) is repaired by
    picking a uniformly random partner edge and swapping one endpoint with it,
    which preserves every node's degree.  Each pass is fully array-based:

    1. bad edges are found by sorting the undirected edge keys (a self-loop,
       or any copy of a key after its first occurrence, is bad);
    2. every bad edge proposes a swap with one uniformly drawn partner;
    3. proposals are accepted only when they provably keep the multiset
       simple — the partner is a good edge claimed by no other proposal, the
       swap creates no self-loop, and the two new keys collide neither with
       the surviving good keys nor with any other accepted proposal's keys.

    Rejected proposals simply retry in the next pass with fresh partners, so
    each pass monotonically reduces the bad-edge count; a handful of passes
    suffices in practice because the expected number of bad edges is
    ``O(d²)``, while the per-pass cost is a few ``O(m log m)`` array
    operations instead of a Python scan over all ``m`` edges.

    Parameters
    ----------
    edges:
        ``(m, 2)`` integer array of edge endpoints (modified copy returned).
    rng:
        Randomness source for partner selection.
    max_passes:
        Safety bound on repair sweeps before giving up.

    Raises
    ------
    GraphGenerationError
        If the edge multiset cannot be made simple within ``max_passes``.
    """
    edges = np.array(edges, dtype=np.int64, copy=True)
    m = edges.shape[0]
    if m == 0:
        return edges
    key_base = int(edges.max()) + 1
    generator = rng.generator

    for _ in range(max_passes):
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
            return edges
        good_keys = sorted_keys[~bad[order]]

        partners = generator.integers(0, m, size=bad_indices.size)
        u, v = edges[bad_indices, 0], edges[bad_indices, 1]
        x, y = edges[partners, 0], edges[partners, 1]
        # Swap v and y: (u, v), (x, y) -> (u, y), (x, v).
        key_one = np.minimum(u, y) * key_base + np.maximum(u, y)
        key_two = np.minimum(x, v) * key_base + np.maximum(x, v)
        ok = (u != y) & (x != v) & (key_one != key_two)
        ok &= ~bad[partners]
        ok &= ~_isin_sorted(key_one, good_keys) & ~_isin_sorted(key_two, good_keys)
        accepted = np.flatnonzero(ok)
        if accepted.size:
            # Each good partner may take part in at most one swap per pass.
            _, first = np.unique(partners[accepted], return_index=True)
            accepted = accepted[np.sort(first)]
            # Accepted proposals must also not collide with each other.
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


def _acceptance_probability(d: int) -> float:
    """Approximate probability that a raw pairing is simple (McKay–Wormald)."""
    return math.exp(-(d * d - 1) / 4.0)


def random_regular_graph(
    n: int,
    d: int,
    rng: RandomSource,
    simple: bool = True,
    strategy: str = "auto",
    max_attempts: int = 200,
) -> Graph:
    """Generate a random ``d``-regular graph on ``n`` nodes.

    Parameters
    ----------
    simple:
        If True (default), return a graph without self-loops or parallel
        edges.  If False, return one raw pairing draw (the multigraph model
        the analysis works with directly).
    strategy:
        ``"rejection"``, ``"repair"``, ``"networkx"`` or ``"auto"`` (see the
        module docstring).  Ignored when ``simple`` is False.
    max_attempts:
        Retry budget for the rejection strategy.

    Raises
    ------
    GraphGenerationError
        If the parameters are invalid, the strategy name is unknown, or no
        simple graph could be produced within the budget.
    """
    validate_regular_parameters(n, d)
    if not simple:
        return pairing_multigraph(n, d, rng)

    if strategy == "auto":
        strategy = "rejection" if _acceptance_probability(d) >= 0.05 else "repair"

    if strategy == "rejection":
        for _ in range(max_attempts):
            candidate = pairing_multigraph(n, d, rng)
            if candidate.is_simple():
                return candidate
        raise GraphGenerationError(
            f"failed to generate a simple {d}-regular graph on {n} nodes "
            f"after {max_attempts} pairing attempts; use strategy='repair'"
        )

    if strategy == "repair":
        edges = _pairing_edge_array(n, d, rng)
        edges = repair_to_simple(edges, rng.spawn("repair"))
        return Graph.from_edge_array(n, edges)

    if strategy == "networkx":
        import networkx as nx

        nx_graph = nx.random_regular_graph(d, n, seed=rng.randint(0, 2**31 - 1))
        return Graph.from_networkx(nx_graph)

    raise GraphGenerationError(
        f"unknown generation strategy {strategy!r}; "
        "expected 'auto', 'rejection', 'repair', or 'networkx'"
    )


def connected_random_regular_graph(
    n: int,
    d: int,
    rng: RandomSource,
    simple: bool = True,
    strategy: str = "auto",
    max_attempts: int = 50,
) -> Graph:
    """A random d-regular graph that is connected.

    For ``d >= 3`` a random regular graph is connected with high probability,
    so this almost never retries; it exists so experiments can assume a single
    component without sprinkling connectivity checks everywhere.  Each draw
    is accepted iff :func:`~repro.graphs.properties.component_labels` counts
    one component.  That check is array passes over the CSR view; it draws
    no randomness, so the accepted graph and the generator state afterwards
    depend only on the draws, and the returned graph is still CSR-only.
    """
    components = 0
    for _ in range(max_attempts):
        candidate = random_regular_graph(n, d, rng, simple=simple, strategy=strategy)
        components, _ = component_labels(candidate)
        if components == 1:
            return candidate
    raise GraphGenerationError(
        f"could not generate a connected {d}-regular graph on {n} nodes "
        f"after {max_attempts} attempts (last attempt had "
        f"{components} components)"
    )
