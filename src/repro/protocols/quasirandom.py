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
it a natural bulk-array candidate: the per-node cursor lives in an integer
pointer table shaped like the engine state (``(R, n)``, one row per
replication), advanced by a vectorized gather into the CSR
adjacency ``indices``.  The scalar engine keeps the original per-node dict.
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
        # the engine state, -1 marking "not started yet").  Both are per-run
        # state and are dropped by reset().
        self._pointers: Dict[int, int] = {}
        self._pointer_table: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._pointers = {}
        self._pointer_table = None

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
        """Advance each sampler's cursor and gather its CSR list entry.

        Nodes sampling for the first time draw a uniform starting offset in
        one batched ``integers`` call; everyone else follows the cyclic list
        deterministically, so a round costs a couple of gathers regardless of
        how many nodes are pushing.  With ``positions`` every cursor still
        advances, but only the entries of ``samplers[positions]`` are
        gathered.
        """
        table = self._pointer_table
        if table is None or table.shape != state.shape:
            # int32 cursors: values stay below horizon + degree, and the
            # table is the protocol's only (R, n) footprint.
            table = np.full(state.shape, -1, dtype=np.int32)
            self._pointer_table = table
        cursors = table[row]
        sampler_degrees = degrees[samplers]
        pointers = cursors[samplers]
        fresh = pointers < 0
        if fresh.any():
            pointers[fresh] = generator.integers(0, sampler_degrees[fresh])
        cursors[samplers] = pointers + 1
        if positions is not None:
            samplers = samplers[positions]
            pointers = pointers[positions]
            sampler_degrees = sampler_degrees[positions]
        return indices[indptr[samplers] + pointers % sampler_degrees]

    def describe(self) -> dict:
        description = super().describe()
        description.update({"n_estimate": self.n_estimate})
        return description
