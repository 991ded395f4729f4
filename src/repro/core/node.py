"""Per-node protocol state.

The simulator keeps one :class:`NodeState` per node.  Protocols read and
update it through a small, explicit API; the round engine only ever touches
the delivery buffer (:meth:`NodeState.deliver`) and the end-of-round commit
(:meth:`NodeState.commit_round`), which makes the "messages received in round
``t`` only take effect in round ``t + 1``" semantics of the paper explicit.

:class:`VectorState` is the struct-of-arrays counterpart used by the bulk
engine (:mod:`repro.core.engine_vectorized`): the engine-owned fields —
informed flag and informed round — held as ``(R, n)`` NumPy arrays over all
nodes of ``R`` replications (``R = 1`` for a single run), so a round is a
handful of bulk operations instead of ``n`` object manipulations, and its
deliveries commit in one call (:meth:`VectorState.commit_delivered`).
Algorithm 1's Phase-4 ``active`` flag has no plane there: the protocol
keeps its active nodes as a sorted index list and reads the flag off the
informed round.  Sorted index pools of the informed nodes and
of last round's commits (:meth:`VectorState.enable_index_tracking`) are kept
only for protocols that read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

__all__ = [
    "NodeState",
    "StateTable",
    "VectorState",
    "merge_sorted_disjoint",
    "remove_sorted_values",
]


def merge_sorted_disjoint(base: np.ndarray, newly: np.ndarray) -> np.ndarray:
    """Merge two sorted, disjoint index arrays into one sorted array.

    One stable sort of the two runs back to back, in ``base.dtype``: NumPy's
    stable sort is a timsort, which finds the two sorted runs and merges
    them in O(base + newly) without a mask the size of the result.  The
    values are distinct, so the result is the unique sorted union.  Phase
    protocols use this to grow their sorted active sets incrementally
    instead of re-scanning a boolean plane every round; the state's own
    informed pool merges the same way, in place in its buffer.
    """
    if newly.size == 0:
        return base
    merged = np.concatenate((base, newly), dtype=base.dtype)
    merged.sort(kind="stable")
    return merged


def remove_sorted_values(
    base: np.ndarray, drop: np.ndarray, in_place: bool = False
) -> np.ndarray:
    """Remove the values of sorted ``drop`` from sorted ``base``.

    O(drop · log base) via binary search — values of ``drop`` absent from
    ``base`` are ignored.  The membership layer uses this to evict departed
    node ids from the engines' sorted index pools without rescanning them.
    With ``in_place`` the kept values move to the front of ``base`` and the
    result is a prefix view of it, so a prefix of a reserved buffer
    (:func:`_extended`) stays one.
    """
    if base.size == 0 or drop.size == 0:
        return base
    positions = np.searchsorted(base, drop)
    in_range = positions < base.size
    positions = positions[in_range]
    hits = positions[base[positions] == drop[in_range]]
    if hits.size == 0:
        return base
    keep = np.ones(base.size, dtype=bool)
    keep[hits] = False
    if not in_place:
        return base[keep]
    kept = base.size - hits.size
    base[:kept] = base[keep]
    return base[:kept]


def _capacity(size: int) -> int:
    """Entries a growing buffer reserves for ``size``: an eighth more, so
    that appends reallocate geometrically while the slack stays small."""
    return size + (size >> 3)


def _extended(array: np.ndarray, values: np.ndarray, room: int = 0) -> np.ndarray:
    """``array`` with ``values`` appended on its last axis.

    ``array`` is an array of its own or a prefix view this function (or an
    in-place :func:`remove_sorted_values`) returned, whose ``base`` is then a
    buffer its owner reserved.  The values are written into that buffer
    while it has room, and otherwise into a new one that starts with a copy
    of ``array`` and holds ``room`` entries, or an eighth more than needed
    (:func:`_capacity`) when ``room`` is too small.  The result is the
    buffer's prefix; of a ``(1, capacity)`` buffer that view is
    C-contiguous, so its ``reshape(-1)`` is a view too.
    """
    used = array.shape[-1]
    size = used + values.shape[-1]
    buffer = array.base
    if buffer is None or buffer.shape[-1] < size:
        capacity = room if size <= room else _capacity(size)
        buffer = np.empty((*array.shape[:-1], capacity), dtype=array.dtype)
        buffer[..., :used] = array
    grown = buffer[..., :size]
    grown[..., used:] = values
    return grown


@dataclass
class NodeState:
    """Mutable broadcast state of a single node for a single message.

    Attributes
    ----------
    node_id:
        Identifier of the node in the graph (0-based).
    informed:
        Whether the node currently knows the message.
    informed_round:
        Round in which the node became informed (``0`` for the source,
        ``None`` while uninformed).  Newly delivered messages are staged in
        ``_pending_round`` and only promoted by :meth:`commit_round`, matching
        the synchronous model where a node cannot forward a message in the
        same round it receives it.
    active:
        Phase-4 "active" flag used by Algorithm 1: nodes informed during
        Phase 3 or 4 switch to active and keep pushing until the horizon.
    memory:
        Recently contacted neighbours, used only by the sequentialised
        variant of the model (avoid the last three partners).
    """

    node_id: int
    informed: bool = False
    informed_round: Optional[int] = None
    active: bool = False
    memory: list = field(default_factory=list)
    _pending_round: Optional[int] = field(default=None, repr=False)

    # -- lifecycle -----------------------------------------------------------

    def make_source(self) -> None:
        """Mark this node as the message creator (informed at round 0)."""
        self.informed = True
        self.informed_round = 0

    def deliver(self, current_round: int) -> bool:
        """Stage delivery of the message during ``current_round``.

        Returns True if this is the first copy the node has seen this round
        and it was previously uninformed (useful for duplicate accounting).
        The node does not count as informed for decision purposes until
        :meth:`commit_round` runs at the end of the round.
        """
        if self.informed:
            return False
        if self._pending_round is None:
            self._pending_round = current_round
            return True
        return False

    def commit_round(self) -> bool:
        """Promote a staged delivery at the end of a round.

        Returns True if the node transitioned from uninformed to informed.
        """
        if self.informed or self._pending_round is None:
            return False
        self.informed = True
        self.informed_round = self._pending_round
        self._pending_round = None
        return True

    # -- queries -------------------------------------------------------------

    def newly_informed_in(self, round_index: int) -> bool:
        """True if the node became informed exactly in ``round_index``."""
        return self.informed and self.informed_round == round_index

    def remember_partner(self, partner: int, window: int) -> None:
        """Record ``partner`` in the bounded contact memory (FIFO window)."""
        self.memory.append(partner)
        if len(self.memory) > window:
            del self.memory[: len(self.memory) - window]


class StateTable:
    """The collection of all node states for one broadcast run.

    Provides the aggregate queries that protocols and metrics need (informed
    count, newly informed set) without exposing engine internals.
    """

    def __init__(self, n: int, source: int) -> None:
        if not 0 <= source < n:
            raise ValueError(f"source {source} outside [0, {n})")
        self._states: Dict[int, NodeState] = {
            node_id: NodeState(node_id=node_id) for node_id in range(n)
        }
        self._states[source].make_source()
        self._informed_count = 1
        self._dropped_pending_deliveries = 0
        self.source = source
        #: The id the next churn joiner takes: one past the largest id at
        #: the run's first join, then counting up (``None`` before it).
        self.next_joiner_id: Optional[int] = None

    # -- element access -------------------------------------------------------

    def __getitem__(self, node_id: int) -> NodeState:
        return self._states[node_id]

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        return iter(self._states.values())

    # -- node membership (churn support) --------------------------------------

    def add_node(self, node_id: int) -> NodeState:
        """Register a node that joined the network mid-run (uninformed)."""
        if node_id in self._states:
            raise ValueError(f"node {node_id} already present")
        state = NodeState(node_id=node_id)
        self._states[node_id] = state
        return state

    def remove_node(self, node_id: int) -> NodeState:
        """Remove a node that left the network mid-run.

        A departing node may hold a delivery staged earlier in the same round
        (``deliver`` ran, ``commit_round`` has not).  That transmission was
        already counted by the engine but will never produce an informed node;
        it is recorded in :attr:`dropped_pending_deliveries` so transmission
        accounting identities can distinguish "lost to failure" from "lost to
        churn".  The removed state is returned with its staged delivery
        cleared, so re-adding the same id later starts from a clean slate.
        """
        state = self._states.pop(node_id)
        if state.informed:
            self._informed_count -= 1
        elif state._pending_round is not None:
            self._dropped_pending_deliveries += 1
            state._pending_round = None
        return state

    def contains(self, node_id: int) -> bool:
        """True if ``node_id`` currently belongs to the network."""
        return node_id in self._states

    def node_ids(self) -> list:
        """All current node ids (sorted for determinism)."""
        return sorted(self._states)

    # -- aggregate queries -----------------------------------------------------

    @property
    def informed_count(self) -> int:
        """Number of currently informed nodes."""
        return self._informed_count

    @property
    def dropped_pending_deliveries(self) -> int:
        """Staged deliveries that vanished because their node departed."""
        return self._dropped_pending_deliveries

    @property
    def uninformed_count(self) -> int:
        """Number of currently uninformed nodes."""
        return len(self._states) - self._informed_count

    def all_informed(self) -> bool:
        """True if every present node is informed."""
        return self._informed_count == len(self._states)

    def informed_ids(self) -> Set[int]:
        """Ids of informed nodes (new set, safe to mutate)."""
        return {s.node_id for s in self._states.values() if s.informed}

    def uninformed_ids(self) -> Set[int]:
        """Ids of uninformed nodes (new set, safe to mutate)."""
        return {s.node_id for s in self._states.values() if not s.informed}

    def commit_round(self) -> Set[int]:
        """Promote all staged deliveries; return ids newly informed."""
        newly = set()
        for state in self._states.values():
            if state.commit_round():
                newly.add(state.node_id)
        self._informed_count += len(newly)
        return newly


class VectorState:
    """Broadcast state of *all* nodes of ``R`` replications as NumPy arrays.

    The bulk engine's counterpart of :class:`StateTable`: one boolean array
    per flag instead of one :class:`NodeState` object per node.  The commit
    discipline is identical — a round's deliveries reach the flags only
    through :meth:`commit_delivered`, once, after every channel of the
    round — so "a node cannot forward a message in the round it receives
    it" holds bit-for-bit.

    Every array has the shape ``(R, n)``: one row per replication, every row
    starting from the same source, ``R = batch`` (1 for a single run).
    Aggregate queries return per-row arrays.  Protocol bulk hooks are written
    against elementwise semantics; hooks that need an explicitly shaped array
    should use :attr:`shape` rather than ``n``.

    Protocol bulk hooks (``vector_wants_push`` etc.) receive this object and
    must treat the arrays as read-only; only the engine and the commit hook
    mutate them.

    Attributes
    ----------
    informed:
        ``bool[R, n]`` — node currently knows the message.
    informed_round:
        ``int32[R, n]`` — round the node became informed (``0`` for the
        source, ``-1`` while uninformed).

    With :meth:`enable_index_tracking` the state additionally maintains
    :attr:`informed_flat` — the ascending flat indices ``row * n + node`` of
    all informed nodes — and :attr:`newly_flat` (last round's commits),
    which is what lets the engine sample pushers in O(informed) instead of
    scanning all ``R·n`` flags every round.  The engine enables it for
    protocols that override a pool hook (``vector_push_samplers`` or
    ``vector_caller_pool``).  For ``R = 1`` flat indices are node ids.
    Once a commit informs a node, ``informed_flat`` is a view of a buffer
    with room for all ``R·n`` indices, which each commit appends to and
    re-sorts in place and a departure evicts from in place: a view read in
    one round is stale after the next commit.

    Under dynamic membership (:meth:`enable_membership`) the planes are
    prefixes of buffers reserved with room to spare, so a join writes only
    its own entries.
    """

    __slots__ = (
        "n",
        "source",
        "batch",
        "informed",
        "informed_round",
        "_mark",
        "_informed_count",
        "_track_indices",
        "_informed_flat",
        "_newly_flat",
        "_pool",
        "_alive",
        "_alive_count",
    )

    def __init__(self, n: int, source: int, batch: int = 1) -> None:
        if not 0 <= source < n:
            raise ValueError(f"source {source} outside [0, {n})")
        if batch < 1:
            raise ValueError(f"batch size must be >= 1, got {batch}")
        self.n = n
        self.source = source
        self.batch = batch
        shape = (batch, n)
        self.informed = np.zeros(shape, dtype=bool)
        # int32 suffices for round numbers; at n = 10⁶ this alone halves the
        # resident state (the old int64 array dominated the footprint).
        self.informed_round = np.full(shape, -1, dtype=np.int32)
        # The dense commit's mask: allocated on first use, all False between
        # commits, extended by joins and dropped by every other shape change.
        self._mark: Optional[np.ndarray] = None
        self.informed[:, source] = True
        self.informed_round[:, source] = 0
        self._informed_count = np.ones(batch, dtype=np.int64)
        self._track_indices = False
        self._informed_flat: Optional[np.ndarray] = None
        self._newly_flat: Optional[np.ndarray] = None
        # The buffer informed_flat is a prefix of, once merges append to it
        # (see _extended); None while informed_flat is an array of its own.
        self._pool: Optional[np.ndarray] = None
        self._alive: Optional[np.ndarray] = None
        self._alive_count: Optional[int] = None

    # -- sorted informed-index tracking (the engine's active set) --------------

    @property
    def index_dtype(self) -> np.dtype:
        """Narrowest dtype that can hold a flat index into the state."""
        return np.dtype(np.int32 if self.informed.size < 2**31 else np.int64)

    def enable_index_tracking(self) -> None:
        """Maintain the sorted flat-index vector of informed nodes.

        ``informed_flat`` then always equals
        ``np.flatnonzero(informed.reshape(-1))`` (ascending).  Each commit
        appends its newly informed indices to the buffer ``informed_flat``
        is a prefix of and merges the two sorted runs with one in-place
        stable sort, O(informed + newly), instead of an O(R·n) scan per
        round; ``newly_flat`` holds the indices committed by the most
        recent round (initially the source entries, which is exactly the
        "pushes in round 1" set of the phase-structured protocols).
        """
        self._track_indices = True
        flat = np.arange(self.batch, dtype=self.index_dtype) * self.n + self.source
        self._informed_flat = flat
        self._newly_flat = flat

    @property
    def informed_flat(self) -> np.ndarray:
        """Sorted flat indices of informed nodes (index tracking only)."""
        if self._informed_flat is None:
            raise RuntimeError("enable_index_tracking() has not been called")
        return self._informed_flat

    @property
    def newly_flat(self) -> np.ndarray:
        """Flat indices committed by the last round (index tracking only)."""
        if self._newly_flat is None:
            raise RuntimeError("enable_index_tracking() has not been called")
        return self._newly_flat

    def _record_newly(self, newly: np.ndarray) -> None:
        if not self._track_indices:
            return
        self._newly_flat = newly
        if newly.size == 0:
            return
        # Append in place and merge the two sorted runs with one stable sort
        # (see merge_sorted_disjoint).  The buffer has room for every flat
        # index (only its written prefix becomes resident), so no round
        # allocates a pool-sized array and the pool never exists twice;
        # under membership it has an eighth more, for the ids joins add.
        room = self.informed.size if self._alive is None else _capacity(self.n)
        merged = _extended(self._informed_flat, newly, room)
        merged.sort(kind="stable")
        self._informed_flat = merged
        self._pool = merged.base

    # -- dynamic membership (tombstone masks; one-row states only) -------------

    def enable_membership(self) -> None:
        """Track node-axis membership for churn runs (tombstone masks).

        Departed nodes stay as *dead columns* in the state arrays — their
        flags cleared, their ids evicted from the index pools — until the
        engine's threshold-triggered :meth:`compact_nodes` renumbers them
        away.  Joins grow the arrays at the tail (:meth:`grow_nodes`), so live
        ids are always ``flatnonzero(alive)``.  Membership needs ``R = 1``:
        replications' graphs would diverge under churn.
        """
        if self.batch != 1:
            raise ValueError("dynamic membership requires a one-row state")
        self._alive = np.ones(self.n, dtype=bool)
        self._alive_count = self.n

    @property
    def alive(self) -> np.ndarray:
        """``bool[n]`` liveness plane (membership tracking only)."""
        if self._alive is None:
            raise RuntimeError("enable_membership() has not been called")
        return self._alive

    @property
    def alive_count(self) -> int:
        """Number of live nodes (``n`` when membership is not tracked)."""
        if self._alive is None:
            return self.n
        return self._alive_count

    def remove_nodes(self, ids: np.ndarray) -> int:
        """Tombstone the (live, ascending) node ids in ``ids``.

        Clears every per-node flag and evicts the ids from the sorted index
        pools, so a departed node can neither push, pull, nor count as
        informed from this point on; the informed pool keeps its buffer.
        Returns how many of the removed nodes were informed (the engine's
        informed-count bookkeeping).
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return 0
        alive = self.alive
        # Row 0 as a 1-D view: fancy indexing it is cheaper than [0, ids].
        informed_removed = int(np.count_nonzero(self.informed[0][ids]))
        alive[ids] = False
        self._alive_count -= int(ids.size)
        self.informed[0][ids] = False
        self.informed_round[0][ids] = -1
        self._informed_count[0] -= informed_removed
        if self._track_indices:
            self._informed_flat = remove_sorted_values(
                self._informed_flat, ids, in_place=self._pool is not None
            )
            self._newly_flat = remove_sorted_values(self._newly_flat, ids)
        return informed_removed

    def grow_nodes(self, count: int) -> np.ndarray:
        """Append ``count`` fresh live, uninformed nodes; return their ids.

        New ids are always the tail of the id space (``n .. n+count-1``), so
        sorted pools stay sorted and the engine's CSR rows can be appended in
        the same order.  The planes (and the dense commit's mask) are
        prefixes of reserved buffers (:func:`_extended`), so a join writes
        only the joiners' entries and reallocates geometrically.
        """
        if self._alive is None:
            raise RuntimeError("enable_membership() has not been called")
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        old_n = self.n
        self.informed = _extended(self.informed, np.zeros((1, count), dtype=bool))
        self.informed_round = _extended(
            self.informed_round, np.full((1, count), -1, dtype=np.int32)
        )
        if self._mark is not None:
            self._mark = _extended(self._mark, np.zeros(count, dtype=bool))
        self._alive = _extended(self._alive, np.ones(count, dtype=bool))
        self._alive_count += count
        self.n = old_n + count
        return np.arange(old_n, self.n, dtype=np.int64)

    def compact_nodes(self, keep: np.ndarray) -> np.ndarray:
        """Renumber the id space down to the (ascending) ids in ``keep``.

        The node-axis mirror of :meth:`compact_rows`: every state plane is
        sliced to the kept nodes and the sorted pools are renumbered through
        the returned remap table (``int64[old_n]``; dropped ids map to
        ``-1``).  The caller — the engine — applies the same table to its CSR
        copy and to any protocol-held index pools, so every id table moves
        through one remap.  The remap is monotone on survivors, which is what
        keeps all position/degree-based draws bit-identical across compaction
        on/off.
        """
        if self._alive is None:
            raise RuntimeError("enable_membership() has not been called")
        keep = np.asarray(keep, dtype=np.int64)
        old_n = self.n
        remap = np.full(old_n, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size, dtype=np.int64)
        self.informed = self.informed.take(keep, axis=1)
        self.informed_round = self.informed_round.take(keep, axis=1)
        self._mark = None
        self._alive = np.ones(keep.size, dtype=bool)
        self._alive_count = int(keep.size)
        self.n = int(keep.size)
        # Informed ⊆ alive (remove_nodes clears the flag), so every pooled id
        # survives the remap; monotonicity preserves the sorted order.
        if self._track_indices:
            dtype = self.index_dtype
            self._informed_flat = remap[self._informed_flat].astype(dtype, copy=False)
            self._newly_flat = remap[self._newly_flat].astype(dtype, copy=False)
            self._pool = None
        self.source = int(remap[self.source]) if 0 <= self.source < old_n else -1
        return remap

    # -- aggregate queries -----------------------------------------------------

    @property
    def shape(self):
        """Shape of the state arrays, ``(R, n)``."""
        return self.informed.shape

    @property
    def informed_count(self) -> np.ndarray:
        """Informed nodes per replication, ``int64[R]``."""
        return self._informed_count

    # -- round lifecycle -------------------------------------------------------

    def commit_delivered(self, delivered: np.ndarray, round_index: int) -> np.ndarray:
        """Commit a round's deliveries; return the flat ids newly informed.

        ``delivered`` holds flat indices ``row * n + node`` (plain node ids
        for ``R = 1``) and may repeat an index or name an informed node.
        The returned indices are the distinct uninformed ones, ascending, in
        :attr:`index_dtype`; they address ``informed.reshape(-1)``, so hooks
        that flip per-node flags should index through ``array.reshape(-1)``
        (a view for these contiguous arrays).  A sparse delivery set is
        deduplicated by sorting (``O(k log k)``); one of at least a quarter
        of the state is marked into a mask and scanned (``O(R·n)``).
        """
        flat_informed = self.informed.reshape(-1)
        if delivered.size * 4 >= flat_informed.size:
            if self._mark is None:
                self._mark = np.zeros(flat_informed.size, dtype=bool)
            mark = self._mark
            mark[delivered] = True
            np.greater(mark, flat_informed, out=mark)  # delivered and uninformed
            newly = np.flatnonzero(mark).astype(self.index_dtype, copy=False)
            mark.fill(False)
        else:
            newly = delivered[~flat_informed[delivered]]
            newly = newly.astype(self.index_dtype, copy=False)
            newly.sort()
            if newly.size > 1:
                keep = np.empty(newly.size, dtype=bool)
                keep[0] = True
                np.not_equal(newly[1:], newly[:-1], out=keep[1:])
                newly = newly[keep]
        if newly.size:
            flat_informed[newly] = True
            self.informed_round.reshape(-1)[newly] = round_index
            self._count_newly(newly)
        self._record_newly(newly)
        return newly

    def _count_newly(self, newly: np.ndarray) -> None:
        """Add the sorted flat indices ``newly`` to the per-row counts."""
        if self.batch == 1:
            self._informed_count[0] += newly.size
        else:
            self._informed_count += np.diff(self.row_bounds(newly, self.n, self.batch))

    # -- row compaction ---------------------------------------------------------

    @staticmethod
    def row_bounds(flat: np.ndarray, n: int, batch: int) -> np.ndarray:
        """Positions of the row starts ``0, n, …, batch · n`` in sorted
        ``(row * n + node)`` indices.

        One row needs no search: its bounds are ``[0, flat.size]``.  Otherwise
        the starts are built in ``flat``'s dtype when they fit: a search with
        wider values would first copy all of ``flat`` to int64.
        """
        if batch == 1:
            return np.array([0, flat.size])
        dtype = flat.dtype if flat.itemsize >= 8 or batch * n < 2**31 else np.int64
        return np.searchsorted(flat, np.arange(batch + 1, dtype=dtype) * n)

    @staticmethod
    def compact_flat_indices(
        flat: np.ndarray, keep: np.ndarray, n: int, old_batch: int
    ) -> np.ndarray:
        """Remap sorted ``(row * n + node)`` indices onto the kept rows.

        Entries belonging to dropped rows are removed; surviving entries are
        renumbered so row ``keep[i]`` becomes row ``i``.  Shared by
        :meth:`compact_rows` and the protocols' ``vector_compact_rows`` hooks
        (e.g. Algorithm 1's active-node list), so every flat index table is
        remapped by the same arithmetic.
        """
        bounds = VectorState.row_bounds(flat, n, old_batch).tolist()
        # One slice per kept row, shifted from old_row * n to new_row * n.
        parts = [
            flat[bounds[row] : bounds[row + 1]] - flat.dtype.type((row - new_row) * n)
            for new_row, row in enumerate(np.asarray(keep).tolist())
        ]
        if not parts:
            return np.empty(0, dtype=flat.dtype)
        return np.concatenate(parts)

    def compact_rows(self, keep: np.ndarray) -> None:
        """Drop replication rows not listed in ``keep`` (ascending row indices).

        Used by the engine to remap completed replications out of the state:
        every ``(R, n)`` plane is sliced down to the kept rows and the flat
        index vectors are renumbered accordingly, so subsequent rounds run
        over a smaller ensemble.  The caller owns the mapping from compacted
        row numbers back to original replications.
        """
        old_batch = self.batch
        keep = np.asarray(keep, dtype=np.int64)
        self.informed = self.informed[keep]
        self.informed_round = self.informed_round[keep]
        self._mark = None
        self._informed_count = self._informed_count[keep]
        self.batch = int(keep.size)
        if self._track_indices:
            self._informed_flat = self.compact_flat_indices(
                self._informed_flat, keep, self.n, old_batch
            )
            self._newly_flat = self.compact_flat_indices(
                self._newly_flat, keep, self.n, old_batch
            )
            self._pool = None
