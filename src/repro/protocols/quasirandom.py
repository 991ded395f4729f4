"""Quasirandom rumour spreading (Doerr, Friedrich, Sauerwald) as a baseline.

Each node holds a cyclic list of its neighbours (here: its adjacency list,
which stands in for the adversarial list of the original paper).  When a node
becomes informed it picks a uniformly random starting position in its list;
from then on it pushes to successive list entries, one per round.  Doerr et
al. show ``O(log n)`` broadcast time on hypercubes and random graphs, making
this a natural deterministic-ish comparison point for the phase-structured
algorithm: it also avoids re-calling recent partners, but via list order
rather than memory or multiple simultaneous choices.

The protocol's only randomness is one starting offset per node, which makes
it a natural bulk-array candidate.  A node that first pushes in round
``t0`` from offset ``s`` pushes in round ``t`` to list entry
``(s + t - t0) mod degree``, so the bulk hook keeps one integer per node,
``s - t0``, in a table shaped like the engine state (``(R, n)``, one row
per replication) and reads every cursor in closed form: nothing advances a
cursor, and a round writes only its newly informed nodes.  The scalar
engine keeps the original per-node dict.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..core.errors import ConfigurationError
from ..core.node import NodeState, VectorState
from ..core.rng import RandomSource
from .base import BroadcastProtocol, OptionalHorizonMixin

__all__ = ["QuasirandomPushProtocol"]

#: Samplers per pass of the bulk hook's gathers: bounds their scratch at a
#: few hundred KiB whatever the pool size.
_GATHER_CHUNK = 1 << 15


class QuasirandomPushProtocol(BroadcastProtocol, OptionalHorizonMixin):
    """Quasirandom push: random starting point, then deterministic list order."""

    name = "quasirandom-push"
    supports_vectorized = True

    def __init__(
        self,
        n_estimate: int,
        horizon_factor: float = 6.0,
        horizon_override: Optional[int] = None,
    ) -> None:
        if n_estimate < 2:
            raise ConfigurationError(f"n_estimate must be >= 2, got {n_estimate}")
        if horizon_factor <= 0:
            raise ConfigurationError(f"horizon_factor must be positive, got {horizon_factor}")
        self.n_estimate = n_estimate
        default = math.ceil(horizon_factor * math.log2(n_estimate))
        self._horizon = self.resolve_horizon(default, horizon_override)
        # Per-node pointer into the neighbour list; created lazily when the
        # node first selects a target after becoming informed.  The scalar
        # engine uses the dict, the bulk engine the array table (shaped like
        # the engine state; an entry is the pointer minus the round, see
        # vector_call_targets) and a callee buffer reused across one-row
        # rounds.  All are per-run state and are dropped by reset().
        self._pointers: Dict[int, int] = {}
        self._pointer_table: Optional[np.ndarray] = None
        self._callees: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._pointers = {}
        self._pointer_table = None
        self._callees = None

    def horizon(self) -> int:
        return self._horizon

    def push_round(self, round_index: int) -> bool:
        return True

    def pull_round(self, round_index: int) -> bool:
        return False

    def fanout(self, state: NodeState, round_index: int) -> int:
        return 1 if state.informed else 0

    def wants_push(self, state: NodeState, round_index: int) -> bool:
        return state.informed

    def wants_pull(self, state: NodeState, round_index: int) -> bool:
        return False

    def select_call_targets(
        self,
        state: NodeState,
        neighbours: List[int],
        round_index: int,
        rng: RandomSource,
    ) -> List[int]:
        """Return the next neighbour in the node's cyclic list order."""
        if not neighbours or not state.informed:
            return []
        node_id = state.node_id
        if node_id not in self._pointers:
            self._pointers[node_id] = rng.randint(0, len(neighbours))
        pointer = self._pointers[node_id]
        target = neighbours[pointer % len(neighbours)]
        self._pointers[node_id] = pointer + 1
        return [target]

    # -- bulk hooks -----------------------------------------------------------

    def vector_fanout(self, round_index: int) -> int:
        return 1

    def vector_caller_pool(self, round_index: int, state: VectorState) -> np.ndarray:
        # Uninformed nodes have fanout 0 in the scalar model, so only the
        # informed nodes are charged channels: an O(informed) segment sum.
        return state.informed_flat

    def vector_wants_push(self, round_index: int, state: VectorState) -> np.ndarray:
        return state.informed

    def vector_push_samplers(self, round_index: int, state: VectorState) -> np.ndarray:
        return state.informed_flat

    def vector_wants_pull(self, round_index: int, state: VectorState) -> np.ndarray:
        return np.zeros(state.shape, dtype=bool)

    def vector_compact_rows(self, keep: np.ndarray, n: int, old_batch: int) -> None:
        # The cursor table is per replication; drop the completed rows so it
        # keeps the engine state's (R, n) shape.
        if self._pointer_table is not None:
            self._pointer_table = self._pointer_table[keep]

    def vector_call_targets(
        self,
        round_index: int,
        state: VectorState,
        samplers: np.ndarray,
        generator: np.random.Generator,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        row: int = 0,
        positions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Each sampler's cursor entry of its CSR list, in closed form.

        The engine passes the informed pool minus isolated nodes as
        ``samplers``, so the nodes sampling for the first time are last
        round's commits, ``state.newly_flat``: a commit is a delivered call,
        so it has a neighbour, and round 1's source is asked only when it
        has one (otherwise it has no sampler).  They draw
        their starting offsets ``s`` in one batched ``integers`` call, in
        ascending order, and the table keeps ``s - round_index``; a node's
        pointer in round ``t`` is then ``table + t``, the cursor the scalar
        engine advances by one per round.  A call writes only the fresh
        nodes and gathers only what it returns, so with ``positions`` it
        costs O(newly + asked).  With one state row the callees are a view
        of a buffer the next call overwrites (the engine consumes a round's
        callees before the next round).
        """
        table = self._pointer_table
        if table is None or table.shape != state.shape:
            # int32: an entry lies in (-horizon, degree), and the table is
            # the protocol's only (R, n) footprint.
            table = np.zeros(state.shape, dtype=np.int32)
            self._pointer_table = table
        bases = table[row]
        fresh = state.newly_flat
        if state.batch > 1:
            base = row * state.n
            fresh = fresh[fresh.searchsorted(base) : fresh.searchsorted(base + state.n)]
            fresh = fresh - fresh.dtype.type(base)
        if fresh.size:
            starts = generator.integers(0, degrees[fresh])
            starts -= round_index
            bases[fresh] = starts
        if positions is not None:
            samplers = samplers[positions]
        if samplers.size <= _GATHER_CHUNK:
            return self._entries(bases, round_index, samplers, indptr, indices, degrees)
        if state.batch > 1:
            callees = np.empty(samplers.size, dtype=indices.dtype)
        else:
            if self._callees is None or self._callees.size < samplers.size:
                self._callees = np.empty(state.n, dtype=indices.dtype)
            callees = self._callees[: samplers.size]
        for start in range(0, samplers.size, _GATHER_CHUNK):
            nodes = samplers[start : start + _GATHER_CHUNK]
            callees[start : start + nodes.size] = self._entries(
                bases, round_index, nodes, indptr, indices, degrees
            )
        return callees

    @staticmethod
    def _entries(
        bases: np.ndarray,
        round_index: int,
        nodes: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
    ) -> np.ndarray:
        """The list entry each of ``nodes`` calls in ``round_index``."""
        pointers = bases[nodes]
        pointers += round_index
        pointers %= degrees[nodes]
        pointers += indptr[nodes]
        return indices[pointers]

    def describe(self) -> dict:
        description = super().describe()
        description.update({"n_estimate": self.n_estimate})
        return description
