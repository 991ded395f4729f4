"""The protocol interface driven by the round engine.

A :class:`BroadcastProtocol` encapsulates every *decision* a node makes in the
random phone call model — how many distinct neighbours to call, whether to
push or pull the message this round, and when to stop — while the engine owns
the mechanics (channel bookkeeping, delivery, failure injection, metrics).

All protocols in this package are *address-oblivious* in the paper's sense:
their decisions depend only on the current round number and on when the node
itself became informed, never on the identity of the node at the other end of
a channel.

The ``vector_*`` hooks restate the per-node decisions for the bulk engine
over whole ``(R, n)`` state arrays.  Each round kind has one sender input:
a push-only round reads the sorted index pool of its pushers
(:meth:`BroadcastProtocol.vector_push_samplers`, which defaults to the
indices of the :meth:`~BroadcastProtocol.vector_wants_push` mask), a round
that pulls reads the push and pull masks, and the channel charge reads the
pool of calling nodes (:meth:`~BroadcastProtocol.vector_caller_pool`,
``None`` when every node calls).  Which optional hooks a protocol replaces
is read off the class (:meth:`BroadcastProtocol.overrides`), not declared
by flags.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Set

import numpy as np

from ..core.node import NodeState, StateTable, VectorState
from ..core.rng import RandomSource

__all__ = ["BroadcastProtocol"]


class BroadcastProtocol(ABC):
    """Decision logic of one broadcast protocol for one message.

    A protocol instance is created per run (it may hold per-run state such as
    the quasirandom pointer table) and is parameterised by the network size
    estimate ``n_estimate`` the nodes are assumed to share.  The engine calls
    the hooks in the order documented on each method.
    """

    #: Human-readable protocol name used in results and tables.
    name: str = "abstract"

    #: Number of most recent partners each node remembers and avoids when
    #: choosing its next call target (0 disables the memory mechanism).  Only
    #: the sequentialised variant of the model uses a non-zero window.
    memory_window: int = 0

    #: Opt-in capability flag for the bulk NumPy engine.  A protocol that sets
    #: this True promises that (a) the three ``vector_*`` decision hooks below
    #: are implemented and agree node-for-node with ``fanout`` / ``wants_push``
    #: / ``wants_pull``, (b) its fanout is uniform across nodes within a
    #: round, (c) it does not use the contact-memory mechanism
    #: (``memory_window == 0``) nor the per-channel exchange hook, and a
    #: custom ``select_call_targets`` has a ``vector_call_targets``
    #: counterpart, and
    #: (d) it relies on none of the :class:`StateTable`-based lifecycle hooks
    #: the bulk engine never calls: ``finished`` must keep its default,
    #: and an ``on_round_committed`` override needs a
    #: ``vector_on_round_committed`` counterpart.  The dispatch predicate
    #: (:func:`repro.core.engine_vectorized.vectorization_unsupported_reason`,
    #: consulted by :func:`repro.core.engine.plan_run`) enforces (c) and (d)
    #: with :meth:`overrides`, and the plan falls back to the scalar engine
    #: when they are violated.
    supports_vectorized: bool = False

    @classmethod
    def overrides(cls, hook: str) -> bool:
        """True if this protocol class replaces the interface's ``hook``.

        One identity test decides every optional path: the engines call the
        exchange hook and a custom target hook only when they are
        overridden, the bulk engine tracks index pools only for a protocol
        that overrides a pool hook, and the dispatch predicate refuses a
        scalar hook override without its bulk counterpart.
        """
        return getattr(cls, hook) is not getattr(BroadcastProtocol, hook)

    # -- scheduling -----------------------------------------------------------

    @abstractmethod
    def horizon(self) -> int:
        """Total number of rounds the protocol runs for (its Monte Carlo budget)."""

    def phase_label(self, round_index: int) -> str:
        """Name of the phase ``round_index`` belongs to (for metrics); may be empty."""
        return ""

    # -- per-round gating -------------------------------------------------------

    @abstractmethod
    def push_round(self, round_index: int) -> bool:
        """True if *any* node may push during ``round_index``.

        Used by the engine as a coarse filter; per-node refinement happens in
        :meth:`wants_push`.
        """

    @abstractmethod
    def pull_round(self, round_index: int) -> bool:
        """True if *any* node may pull during ``round_index``.

        When False the engine skips sampling calls for nodes that will not
        push, because those channels cannot carry information this round.
        """

    # -- per-node decisions -------------------------------------------------------

    @abstractmethod
    def fanout(self, state: NodeState, round_index: int) -> int:
        """Number of distinct neighbours ``state``'s node calls this round."""

    @abstractmethod
    def wants_push(self, state: NodeState, round_index: int) -> bool:
        """True if the node sends the message over its *outgoing* channels."""

    @abstractmethod
    def wants_pull(self, state: NodeState, round_index: int) -> bool:
        """True if the node sends the message over its *incoming* channels."""

    # -- neighbour selection -------------------------------------------------------

    def select_call_targets(
        self,
        state: NodeState,
        neighbours: List[int],
        round_index: int,
        rng: RandomSource,
    ) -> List[int]:
        """Choose which neighbours the node calls this round.

        The default implementation samples ``fanout`` distinct entries of the
        adjacency list uniformly at random (repeated adjacency entries model
        parallel edges of the configuration model, so they legitimately weight
        the draw).  Protocols with a memory window additionally avoid the most
        recently contacted partners, falling back to the full neighbourhood if
        the restriction would leave no candidates.
        """
        k = self.fanout(state, round_index)
        if k <= 0 or not neighbours:
            return []
        candidates = neighbours
        if self.memory_window > 0 and state.memory:
            remembered = set(state.memory[-self.memory_window :])
            filtered = [v for v in neighbours if v not in remembered]
            if filtered:
                candidates = filtered
        targets = rng.sample_distinct(candidates, k)
        if self.memory_window > 0:
            for target in targets:
                state.remember_partner(target, self.memory_window)
        return targets

    # -- bulk (vectorized) hooks ------------------------------------------------

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
        """Bulk counterpart of a custom :meth:`select_call_targets` (fanout 1).

        Protocols whose neighbour choice is not a uniform stub draw (e.g. the
        quasirandom cyclic-list pointer) override this to return, for each
        node in ``samplers``, the callee node id.  The engine provides the
        graph's CSR view (``indices[indptr[v]:indptr[v+1]]`` lists ``v``'s
        stubs in :meth:`repro.graphs.base.Graph.neighbors` order) and the
        per-replication ``generator`` for any randomness; ``row`` is the
        replication's state row (0 for a single run) so per-node protocol
        state can be kept per replication.
        Only consulted when a protocol overrides it, and only for protocols
        with uniform fanout 1.

        ``positions`` (ascending indices into ``samplers``) asks for the
        callees of ``samplers[positions]`` only, in that order: the engine
        passes it when it works a round from the receiver side.  The call
        must still do everything a call without it does (advance every
        sampler's state, draw every random number, in the same order), so
        the run does not depend on which side the engine took.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the bulk target hook"
        )

    def vector_push_samplers(self, round_index: int, state: VectorState) -> np.ndarray:
        """Sorted flat indices of this round's pushers.

        The engine's one input in push-only rounds.  The array must equal
        ``np.flatnonzero(vector_wants_push(...).reshape(-1))`` — same set,
        ascending order — which is what this default computes, so a
        protocol with only a mask still runs.  Protocols override it to
        return a view of an engine-maintained set (``state.informed_flat``,
        ``state.newly_flat``) or of their own sorted index table; the engine
        maintains those sets (:meth:`VectorState.enable_index_tracking`)
        exactly when a protocol overrides this hook or
        :meth:`vector_caller_pool`.  Push-only rounds then cost O(pushers)
        instead of an O(R·n) scan.
        """
        return np.flatnonzero(self.vector_wants_push(round_index, state).reshape(-1))

    def vector_caller_pool(
        self, round_index: int, state: VectorState
    ) -> Optional[np.ndarray]:
        """Sorted flat indices of the nodes that open channels, or ``None``.

        ``None`` (the default) means every node opens ``min(fanout, degree)``
        channels, the full phone-call model the engine charges by
        arithmetic.  Protocols whose *uninformed* nodes stay silent (scalar
        ``fanout`` returns 0 for them — e.g. the quasirandom protocol)
        return the nodes whose scalar fanout is positive, so the bulk engine
        charges channels as the scalar engine does, with an O(callers)
        segment sum.
        """
        return None

    def vector_compact_rows(self, keep: np.ndarray, n: int, old_batch: int) -> None:
        """Remap per-replication protocol state onto the kept batch rows.

        Called by the bulk engine when it compacts completed replications
        out of its ``(R, n)`` state: ``keep`` holds the surviving row indices
        (ascending) of the previous ``old_batch``-row layout, and row
        ``keep[i]`` becomes row ``i``.  Protocols that hold per-replication
        state outside the engine-owned :class:`VectorState` — pointer tables
        shaped ``(R, n)``, per-row index lists, etc. — must drop the dead
        rows here (2-D tables: ``table[keep]``; sorted flat index vectors:
        :meth:`VectorState.compact_flat_indices`).  Stateless protocols
        inherit the no-op.  The hook is only ever invoked between rounds,
        after the round's deliveries have committed.
        """

    #: Opt-in for the vectorized engine's dynamic-membership (churn) mode.  A
    #: protocol that sets this True promises its decisions remain well-defined
    #: when nodes depart or join mid-broadcast: departed nodes are tombstoned
    #: (their flags cleared, their ids retired) and joiners extend the id
    #: space, so per-node protocol state must be index-positional and survive
    #: :meth:`vector_remove_nodes` / :meth:`vector_compact_nodes`.  Stateless
    #: protocols (push, pull, push-pull) can simply flip the flag; protocols
    #: holding their own index pools (Algorithm 1's active set) must also
    #: implement the two membership hooks.  :func:`repro.core.engine.plan_run`
    #: refuses vectorized churn for protocols that leave this False.
    supports_dynamic_membership: bool = False

    def vector_remove_nodes(self, ids: np.ndarray, state: VectorState) -> None:
        """Evict departed node ids from protocol-held state (churn mode only).

        Called by the vectorized engine's dynamic-membership mode immediately
        after ``ids`` (sorted, ascending) have been tombstoned in ``state``.
        The engine already clears the engine-owned state (the informed and
        pending flags, the informed round and the sorted index pools);
        protocols that mirror node ids in their *own* structures — Algorithm
        1's sorted active set, a pointer table — must drop the departed
        entries here.  Stateless protocols inherit the no-op.
        """

    def vector_compact_nodes(self, remap: np.ndarray, state: VectorState) -> None:
        """Renumber protocol-held node ids after node-axis compaction.

        Called when the dynamic-membership engine compacts tombstoned ids out
        of the node axis: ``remap`` maps every old id to its new id (``-1``
        for dropped ids; the map is monotone over surviving ids, so sorted
        index vectors stay sorted under ``remap[vec]``).  ``state`` has
        already been compacted.  Protocols that keep node ids outside the
        engine-owned state must apply the remap here; stateless protocols
        inherit the no-op.
        """

    def vector_fanout(self, round_index: int) -> int:
        """Uniform per-node fanout for ``round_index`` (bulk engine only).

        The vectorized engine samples all nodes' call targets in one batch,
        which requires every node to use the same fanout within a round.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the bulk fanout hook"
        )

    def vector_wants_push(self, round_index: int, state: VectorState) -> np.ndarray:
        """Boolean mask over all nodes that push during ``round_index``.

        Must equal ``[wants_push(states[v], round_index) for v in nodes]``
        element-wise; the returned array (or view) is not mutated by the
        engine but must not alias writable protocol state.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the bulk push hook"
        )

    def vector_wants_pull(self, round_index: int, state: VectorState) -> np.ndarray:
        """Boolean mask over all nodes that answer calls during ``round_index``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the bulk pull hook"
        )

    def vector_on_round_committed(
        self, round_index: int, state: VectorState, newly_informed: np.ndarray
    ) -> None:
        """Bulk counterpart of :meth:`on_round_committed` (ids as an array)."""

    # -- lifecycle hooks -------------------------------------------------------------

    def reset(self) -> None:
        """Drop all per-run state so the instance can drive a fresh run.

        Every engine calls this once before round 1, so a protocol instance
        reused across runs (or across the replications of a batched run)
        starts each broadcast from a clean slate.  Protocols that accumulate
        per-run state outside the engine-owned node state — e.g. the
        quasirandom pointer table — must override this and clear it; stateless
        protocols inherit the no-op.
        """

    def on_channel_exchange(
        self, caller_state: NodeState, callee_state: NodeState, round_index: int
    ) -> None:
        """Called once per open channel, by the scalar engine, if overridden.

        Runs after the round's transmissions but before deliveries commit, so
        protocols that piggyback metadata on the communication (e.g. the
        median-counter rule observing its partners' counters) can record what
        each endpoint learned this round.
        """

    def on_round_committed(
        self, round_index: int, states: StateTable, newly_informed: Set[int]
    ) -> None:
        """Called after deliveries of ``round_index`` have been committed.

        Phase-structured protocols use this to flip per-node flags (e.g.
        Algorithm 1 marks nodes informed during Phases 3–4 as ``active``).
        """

    def finished(self, round_index: int, states: StateTable) -> bool:
        """True if the protocol has nothing further to do after ``round_index``.

        The default is to simply run out the horizon.  The engine also stops
        early when every node is informed if the simulation configuration
        requests it.
        """
        return round_index >= self.horizon()

    # -- misc -------------------------------------------------------------------------

    def describe(self) -> dict:
        """A serialisable description of the protocol's parameters."""
        return {"name": self.name, "horizon": self.horizon()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} horizon={self.horizon()}>"


class OptionalHorizonMixin:
    """Shared handling of an optional user-supplied horizon override."""

    def resolve_horizon(self, default: int, override: Optional[int]) -> int:
        """Return ``override`` if given, else ``default`` (both at least 1)."""
        value = default if override is None else override
        return max(1, int(value))
