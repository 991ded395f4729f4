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

Both pairing builds work on the draw's stub permutation ``pi`` (edge ``i``
is positions ``2i`` and ``2i + 1``, node of position ``p`` is
``pi[p] // d``) and lay out the CSR with one inverse scatter, a row sort of
each node's ``d`` positions and one partner gather.  The repair runs between
the sort and the gather: it finds bad edges within the rows (a node's
partners in position order) and swaps entries of ``pi`` in place, so no pass
sorts all ``m`` edge keys and no edge array is built.

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
from .base import Graph
from .properties import component_labels

__all__ = [
    "pairing_multigraph",
    "random_regular_graph",
    "connected_random_regular_graph",
    "validate_regular_parameters",
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


def _shuffled_stubs(n: int, d: int, rng: RandomSource) -> np.ndarray:
    """One draw of the pairing process as its stub permutation ``pi``.

    ``pi[p]`` is the stub at shuffled position ``p`` (stub ``s`` belongs to
    node ``s // d``), and positions ``2i`` and ``2i + 1`` form edge ``i``:
    distributionally the paper's "match the next unmatched stub with a
    uniform unmatched stub".  Shuffling an index-dtype ``arange(2m)`` in
    place makes the draws of ``Generator.permutation(2m)`` and of shuffling
    the ``np.repeat(arange(n), d)`` stub array; int32 halves the traffic of
    the build's random-access scatter and gather, which dominate at scale.
    """
    two_m = n * d
    pi = np.arange(two_m, dtype=np.int32 if two_m < 2**31 else np.int64)
    rng.generator.shuffle(pi)
    return pi


def _pairing_graph(
    n: int, d: int, pi: np.ndarray, repair: Optional[RandomSource] = None
) -> Graph:
    """The CSR graph of the pairing ``pi``, first repaired when ``repair``
    (the repair stream) is given.

    One scatter inverts ``pi`` into a work buffer, so row ``v`` holds node
    ``v``'s positions, and a row sort orders them, as the stable grouping
    sort of an edge-array build would.  The repair works on these rows.
    Then each position is overwritten with its partner's node
    ``pi[p ^ 1] // d``, so the buffer itself becomes ``indices``.  Scratch
    beyond ``pi`` and the buffer is bounded by :data:`_BUILD_CHUNK`.
    """
    buffer = np.empty_like(pi)
    for start in range(0, pi.size, _BUILD_CHUNK):
        stop = min(start + _BUILD_CHUNK, pi.size)
        buffer[pi[start:stop]] = np.arange(start, stop, dtype=pi.dtype)
    rows = buffer.reshape(n, d)
    rows.sort(axis=1)
    if repair is not None:
        _repair_pairing(pi, rows, repair)
    for start in range(0, pi.size, _BUILD_CHUNK):
        block = buffer[start : start + _BUILD_CHUNK]
        np.bitwise_xor(block, 1, out=block)
        block[...] = pi[block]
        np.floor_divide(block, d, out=block)
    indptr = np.arange(0, pi.size + 1, d, dtype=pi.dtype)
    return Graph.from_csr(n, indptr, buffer)


def pairing_multigraph(n: int, d: int, rng: RandomSource) -> Graph:
    """One draw of the pairing process (self-loops / parallel edges allowed).

    Built straight into CSR form (:func:`_pairing_graph`) without the
    ``O(m log m)`` stable argsort over the ``2m`` stubs that
    :meth:`Graph.from_edge_array` would perform: every node owns exactly
    ``d`` stubs, so node ``v`` occupies slots ``v*d .. v*d+d-1``.  The
    result is identical (same CSR arrays, same generator state) to grouping
    the shuffled stub array's edges with a stable argsort, about 3x faster
    at ``n = 10^6``.  The build owns the permutation and one work buffer,
    both ``2m`` index-dtype entries; the traced peak at ``n = 10^6, d = 8``
    is ~66 MB, about 2.0x the CSR.
    """
    validate_regular_parameters(n, d)
    return _pairing_graph(n, d, _shuffled_stubs(n, d, rng))


def _bad_edges(pi: np.ndarray, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The bad edges with an endpoint among ``nodes``, ascending.

    An edge is bad when it is a self-loop or a later copy (by edge index)
    of an earlier edge's pair.  A row lists its node's partners in position
    order, so a bad edge shows in either endpoint's row as an entry equal to
    an earlier one: a later copy repeats the first copy's partner, and a
    self-loop's second entry repeats its first.  The rows are compared
    column-major, so each of the ``d - 1`` shifts is one pass over a
    contiguous block.
    """
    d = rows.shape[1]
    step = max(1, _BUILD_CHUNK // d)
    found = []
    for start in range(0, nodes.size, step):
        columns = rows[nodes[start : start + step]].T.copy()
        partners = pi[columns ^ 1] // d
        repeat = np.zeros(columns.shape, dtype=bool)
        for shift in range(1, d):
            repeat[shift:] |= partners[shift:] == partners[:-shift]
        found.append(columns[repeat] >> 1)
    # Sorted and deduplicated without np.unique, whose plain form imports
    # numpy.ma (~15 ms at first use).
    edges = np.sort(np.concatenate(found))
    return edges[np.diff(edges, prepend=-1) != 0]


def _rows_hold(
    pi: np.ndarray, rows: np.ndarray, owners: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Whether row ``owners[i]`` lists ``values[i]`` as a partner."""
    partners = pi[rows[owners] ^ 1] // rows.shape[1]
    return (partners == values[:, None]).any(axis=1)


def _repair_pairing(
    pi: np.ndarray, rows: np.ndarray, rng: RandomSource, max_passes: int = 200
) -> None:
    """Remove self-loops and parallel edges from the pairing ``pi`` in place.

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
    partner ``p`` exchanges ``pi[2b + 1]`` and ``pi[2p + 1]``; only the rows
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
    n, d = rows.shape
    m = pi.size // 2
    generator = rng.generator
    nodes = np.arange(n)
    for _ in range(max_passes):
        bad = _bad_edges(pi, rows, nodes)
        if bad.size == 0:
            return
        partners = generator.integers(0, m, size=bad.size)
        u, v = pi[2 * bad] // d, pi[2 * bad + 1] // d
        x, y = pi[2 * partners] // d, pi[2 * partners + 1] // d
        # Swap v and y: (u, v), (x, y) -> (u, y), (x, v).
        key_one = np.minimum(u, y).astype(np.int64) * n + np.maximum(u, y)
        key_two = np.minimum(x, v).astype(np.int64) * n + np.maximum(x, v)
        ok = (u != y) & (x != v) & (key_one != key_two)
        # bad is ascending: a binary search finds the partners that are bad.
        ok &= bad[np.minimum(np.searchsorted(bad, partners), bad.size - 1)] != partners
        ok &= ~_rows_hold(pi, rows, u, y) & ~_rows_hold(pi, rows, x, v)
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
            pi[bad_stub], pi[partner_stub] = pi[partner_stub], pi[bad_stub]
            # Row v trades position 2b + 1 for 2p + 1, row y the reverse.
            owners = np.concatenate([v[accepted], y[accepted]])
            moved = np.concatenate([bad_stub, partner_stub])
            column = np.argmax(rows[owners] == moved[:, None], axis=1)
            rows[owners, column] = np.concatenate([partner_stub, bad_stub])
            rows[owners] = np.sort(rows[owners], axis=1)
        nodes = u
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
