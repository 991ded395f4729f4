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

Both pairing builds are one function over the draw's stub permutation
(edge ``i`` is positions ``2i`` and ``2i + 1``, and position ``p`` belongs
to node ``owner(p) = stub // d``).  Each position becomes a 64-bit key,
``owner(p)`` above ``p``, and one in-place sort lays the keys out as the
CSR rows.  A multigraph packs the partner's node ``owner(p ^ 1)`` into the
key's low bits when ``2·bits(n - 1) + bits(2m - 1) <= 64``, so the sorted
low field *is* ``indices``; the key buffer narrows into its own front half
and shrinks in place, and the build peaks at 8 bytes per stub.  The repair
(and a graph too wide to pack) keeps each position's node aside in the
CSR index dtype, sorts ``(owner, position)`` keys into rows of positions,
and gathers the partners after the repair, at 12 bytes per stub.  The repair
finds bad edges within the rows (a node's partners in position order) and
swaps entries of the node-of-position array in place, so no pass sorts all
``m`` edge keys and no edge array is built.

:func:`connected_random_regular_graph` redraws until the outcome is
connected.  The check is :func:`repro.graphs.properties.component_labels`,
a few array passes over the CSR view: it consumes no randomness and leaves
the graph lazy (no adjacency lists), so only ``strategy="networkx"`` ever
imports ``networkx``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.errors import GraphGenerationError
from ..core.rng import RandomSource
from .base import Graph, csr_index_dtype
from .properties import component_labels

__all__ = [
    "pairing_multigraph",
    "random_regular_graph",
    "connected_random_regular_graph",
    "validate_regular_parameters",
]

#: Stub entries per pass of the pairing build's chunked loops (the key
#: packing rounds it up to whole edges); bounds their scratch at a few
#: hundred KiB whatever the graph size.
_BUILD_CHUNK = 1 << 15

#: Bits in a pairing sort key.  A multigraph whose ``(owner, position,
#: partner)`` key fits packs its partners into the key; the repair, and a
#: graph too wide for that, key ``(owner, position)`` and gather them.
_KEY_BITS = 64


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


def _shuffled_stubs(n: int, d: int, rng: RandomSource) -> np.ndarray:
    """One draw of the pairing process as its ``uint64`` stub permutation.

    Entry ``p`` is the stub at shuffled position ``p`` (stub ``s`` belongs
    to node ``s // d``), and positions ``2i`` and ``2i + 1`` form edge
    ``i``: distributionally the paper's "match the next unmatched stub with
    a uniform unmatched stub".  Shuffling ``arange(2m)`` in place makes the
    draws of ``Generator.permutation(2m)`` and of shuffling the
    ``np.repeat(arange(n), d)`` stub array; the array then holds the
    build's sort keys.
    """
    stubs = np.arange(n * d, dtype=np.uint64)
    rng.generator.shuffle(stubs)
    return stubs


def _pairing_graph(
    n: int, d: int, keys: np.ndarray, repair: Optional[RandomSource] = None
) -> Graph:
    """The CSR graph of the stub permutation ``keys`` (``uint64``, consumed),
    first repaired when ``repair`` (the repair stream) is given.

    Each position ``p`` becomes a sort key, its node ``owner(p) = keys[p] //
    d`` above ``p``, so one in-place sort lays the keys out as the CSR: rows
    by node, each row's entries in position order, as the stable grouping
    sort of an edge-array build would.  A multigraph whose key also fits the
    partner's node ``owner(p ^ 1)`` (:data:`_KEY_BITS`) packs it into the
    low bits, which then are ``indices``.  Otherwise each position's node is
    kept aside (``nodes``), the sorted low bits are positions, the repair
    works on these rows, and a gather ``nodes[rows ^ 1]`` makes them
    ``indices``.  The low field is narrowed into the front of the key
    buffer, which then shrinks in place to become ``indices``, so the build
    peaks at 8 bytes per stub (12 with ``nodes``) plus scratch bounded by
    :data:`_BUILD_CHUNK`.
    """
    two_m = keys.size
    dtype = csr_index_dtype(n, two_m)
    node_bits = (n - 1).bit_length()
    position_bits = (two_m - 1).bit_length()
    if node_bits + position_bits > 64:
        raise GraphGenerationError(
            f"a pairing of {two_m} stubs on {n} nodes exceeds 64-bit sort keys"
        )
    pack = repair is None and 2 * node_bits + position_bits <= _KEY_BITS
    nodes = None if pack else np.empty(two_m, dtype=dtype)
    step = _BUILD_CHUNK + _BUILD_CHUNK % 2
    scratch = np.empty(min(step, two_m), dtype=np.uint64)
    ramp = np.arange(scratch.size, dtype=np.uint64)
    for start in range(0, two_m, step):
        block = keys[start : start + step]
        owner = scratch[: block.size]
        np.floor_divide(block, d, out=owner)
        if nodes is not None:
            nodes[start : start + block.size] = owner
        np.left_shift(owner, position_bits, out=block)
        block += ramp[: block.size]
        block += start
        if pack:
            block <<= node_bits
            block[0::2] |= owner[1::2]
            block[1::2] |= owner[0::2]
    keys.sort()
    # Ascending chunks never overwrite a key they have not read yet.
    low = (1 << (node_bits if pack else position_bits)) - 1
    narrow = keys.view(dtype)
    for start in range(0, two_m, step):
        block = keys[start : start + step]
        field = scratch[: block.size]
        np.bitwise_and(block, low, out=field)
        narrow[start : start + block.size] = field
    del narrow, block, owner, field
    # No view of the keys is left.  refcheck=True would still refuse under
    # a profiler, whose frame holds a reference to the bound method.
    keys.resize(two_m * dtype.itemsize // 8, refcheck=False)
    indices = keys.view(dtype)
    if nodes is not None:
        if repair is not None:
            _repair_pairing(nodes, indices.reshape(n, d), repair)
        for start in range(0, two_m, _BUILD_CHUNK):
            block = indices[start : start + _BUILD_CHUNK]
            np.bitwise_xor(block, 1, out=block)
            block[...] = nodes[block]
    indptr = np.arange(0, two_m + 1, d, dtype=dtype)
    return Graph.from_csr(n, indptr, indices)


def pairing_multigraph(n: int, d: int, rng: RandomSource) -> Graph:
    """One draw of the pairing process (self-loops / parallel edges allowed).

    Built straight into CSR form (:func:`_pairing_graph`) by one in-place
    sort of ``2m`` packed 64-bit keys, ``owner(p) | p | owner(p ^ 1)`` with
    ``bits(n - 1) + bits(2m - 1) + bits(n - 1)`` bits (63 at ``n = 10^6, d
    = 8``; exactly 64 at ``d = 16``), instead of the ``O(m log m)`` stable
    argsort over the stubs that :meth:`Graph.from_edge_array` would
    perform.  The result is identical (same CSR arrays, same generator
    state) to grouping the shuffled stub array's edges with a stable
    argsort.  The only random-access pass is the shuffle.  The key buffer
    becomes ``indices``, so the build peaks at 8 bytes per stub plus a few
    hundred KiB of chunk scratch: ~64.5 MB traced at ``n = 10^6, d = 8``,
    twice the CSR.  A graph whose packed key would exceed 64 bits (``n >
    2^20`` at ``d = 8``) keys ``owner(p) | p`` and gathers the partners
    instead (12 bytes per stub).
    """
    validate_regular_parameters(n, d)
    return _pairing_graph(n, d, _shuffled_stubs(n, d, rng))


def _bad_edges(nodes: np.ndarray, rows: np.ndarray, scan: np.ndarray) -> np.ndarray:
    """The bad edges with an endpoint among the nodes ``scan``, ascending.

    ``nodes[p]`` is the node of position ``p``.  An edge is bad when it is a
    self-loop or a later copy (by edge index) of an earlier edge's pair.  A
    row lists its node's partners in position order, so a bad edge shows in
    either endpoint's row as an entry equal to an earlier one: a later copy
    repeats the first copy's partner, and a self-loop's second entry repeats
    its first.  The rows are compared column-major, so each of the ``d - 1``
    shifts is one pass over a contiguous block.
    """
    d = rows.shape[1]
    step = max(1, _BUILD_CHUNK // d)
    found = []
    for start in range(0, scan.size, step):
        columns = rows[scan[start : start + step]].T.copy()
        partners = nodes[columns ^ 1]
        repeat = np.zeros(columns.shape, dtype=bool)
        for shift in range(1, d):
            repeat[shift:] |= partners[shift:] == partners[:-shift]
        found.append(columns[repeat] >> 1)
    # Sorted and deduplicated without np.unique, whose plain form imports
    # numpy.ma (~15 ms at first use).
    edges = np.sort(np.concatenate(found))
    return edges[np.diff(edges, prepend=-1) != 0]


def _rows_hold(
    nodes: np.ndarray, rows: np.ndarray, owners: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Whether row ``owners[i]`` lists ``values[i]`` as a partner."""
    partners = nodes[rows[owners] ^ 1]
    return (partners == values[:, None]).any(axis=1)


def _repair_pairing(
    nodes: np.ndarray, rows: np.ndarray, rng: RandomSource, max_passes: int = 200
) -> None:
    """Remove self-loops and parallel edges from a pairing in place.

    ``nodes[p]`` is the node of position ``p`` (edge ``i`` is positions
    ``2i`` and ``2i + 1``).

    A *bad* edge (self-loop, or a later copy of an earlier edge's pair) is
    repaired by picking a uniformly random partner edge and swapping one
    endpoint with it, which preserves every node's degree.  Each pass:

    1. finds the bad edges, in ascending edge index, from the rows
       (:func:`_bad_edges`);
    2. draws one partner per bad edge, ``integers(0, m, size=#bad)``;
    3. accepts a proposal only when it provably keeps the pairing simple:
       the partner is a good edge claimed by no other proposal, the swap
       creates no self-loop, and neither new pair is already an edge (the
       first copy of every pair is good and a self-loop never is, so this
       is "``y`` is already in row ``u``") nor another accepted proposal's.

    The swap ``(u, v), (x, y) -> (u, y), (x, v)`` of bad edge ``b`` with
    partner ``p`` exchanges ``nodes[2b + 1]`` and ``nodes[2p + 1]``; only the rows
    of ``v`` and ``y`` reorder, and are re-sorted.  A swap's two new pairs
    are fresh, so no good edge turns bad, and an edge's badness reads off
    either endpoint's row: the next pass rescans only the rows of this
    pass's bad edges' first endpoints ``u``.  Rejected proposals retry there
    with fresh partners; a handful of passes suffices in practice because
    the expected number of bad edges is ``O(d²)``.  ``rows`` are the
    ``(n, d)`` ascending positions of each node's stubs, kept current.

    Raises
    ------
    GraphGenerationError
        If the pairing cannot be made simple within ``max_passes``.
    """
    n = rows.shape[0]
    m = nodes.size // 2
    generator = rng.generator
    scan = np.arange(n)
    for _ in range(max_passes):
        bad = _bad_edges(nodes, rows, scan)
        if bad.size == 0:
            return
        partners = generator.integers(0, m, size=bad.size)
        u, v = nodes[2 * bad], nodes[2 * bad + 1]
        x, y = nodes[2 * partners], nodes[2 * partners + 1]
        # Swap v and y: (u, v), (x, y) -> (u, y), (x, v).
        key_one = np.minimum(u, y).astype(np.int64) * n + np.maximum(u, y)
        key_two = np.minimum(x, v).astype(np.int64) * n + np.maximum(x, v)
        ok = (u != y) & (x != v) & (key_one != key_two)
        # bad is ascending: a binary search finds the partners that are bad.
        ok &= bad[np.minimum(np.searchsorted(bad, partners), bad.size - 1)] != partners
        ok &= ~_rows_hold(nodes, rows, u, y) & ~_rows_hold(nodes, rows, x, v)
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
            bad_stub = 2 * bad[accepted] + 1
            partner_stub = 2 * partners[accepted] + 1
            nodes[bad_stub], nodes[partner_stub] = nodes[partner_stub], nodes[bad_stub]
            # Row v trades position 2b + 1 for 2p + 1, row y the reverse.
            owners = np.concatenate([v[accepted], y[accepted]])
            moved = np.concatenate([bad_stub, partner_stub])
            column = np.argmax(rows[owners] == moved[:, None], axis=1)
            rows[owners, column] = np.concatenate([partner_stub, bad_stub])
            rows[owners] = np.sort(rows[owners], axis=1)
        scan = u
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
        return _pairing_graph(n, d, _shuffled_stubs(n, d, rng), rng.spawn("repair"))

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
