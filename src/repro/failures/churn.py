"""Node churn during a broadcast.

Peer-to-peer overlays change while a broadcast is in flight: peers leave and
new peers join.  The paper claims robustness "against limited changes in the
size of the network"; experiment E8 quantifies that by running Algorithm 1
while a :class:`ChurnModel` removes and adds nodes every round.

Joining nodes are wired into the overlay by *stub stealing*: a joiner of
target degree ``d`` picks ``max(1, ⌊d/2⌋)`` random existing edges and splices
itself into the middle of each (replacing edge ``(u, v)`` with
``(u, joiner)`` and ``(joiner, v)``), which keeps every existing node's degree
unchanged and gives the joiner degree ``2·max(1, ⌊d/2⌋)`` — less when a drawn
edge is unusable (a self-loop, a departed endpoint, or an edge another joiner
already split) and its splice is skipped.  Leaving nodes simply disappear
with their edges; the overlay maintenance layer (:mod:`repro.p2p.overlay`) is
responsible for longer-term repair, while this module models the transient
disruption.

Two execution surfaces
----------------------

Every model implements the scalar hook :meth:`ChurnModel.apply` (mutate a
:class:`~repro.graphs.base.Graph` and :class:`~repro.core.node.StateTable`
object by object).  Models that additionally set
``supports_vectorized = True`` implement :meth:`ChurnModel.vector_apply`,
which expresses the same membership step as bulk edits against the vectorized
engine's membership surface (``VectorChurnOps`` in
:mod:`repro.core.engine_vectorized`): ascending live-id views, batched
departures, and stub-stealing joins as CSR splices.  The two surfaces draw
from independently derived RNG streams and agree *statistically*, not
draw-for-draw — the vectorized path keeps departed nodes' stubs as tombstones
(filtered at call time) where the scalar path deletes edges outright.

Vectorized draws must be *renumbering invariant*: every random decision may
depend only on live-node **positions** (rank in ascending id order), live
counts, and per-node degrees — never on raw id values — so that the engine's
threshold-triggered node compaction (which renumbers ids) cannot change the
draw sequence.  The helpers here follow that discipline; custom models must
too, or the compaction-on/off bit-parity contract breaks.

Models are instances and may be reused across runs: :meth:`ChurnModel.reset`
is invoked by every engine before round 1 (the same lifecycle contract as
``BroadcastProtocol.reset``) and must clear any per-run state — e.g.
:class:`UniformChurn`'s joiner-id allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.errors import ConfigurationError
from ..core.node import StateTable
from ..core.rng import RandomSource
from ..graphs.base import Graph

__all__ = [
    "ChurnEvent",
    "ChurnModel",
    "NoChurn",
    "UniformChurn",
    "BurstChurn",
    "FlashCrowd",
    "AdversarialChurn",
]


@dataclass(frozen=True)
class ChurnEvent:
    """What a churn step did in one round."""

    round_index: int
    departed: List[int] = field(default_factory=list)
    joined: List[int] = field(default_factory=list)

    @property
    def departures(self) -> int:
        return len(self.departed)

    @property
    def arrivals(self) -> int:
        return len(self.joined)


def _sorted_distinct_positions(
    generator: np.random.Generator, size: int, count: int
) -> np.ndarray:
    """``count`` distinct positions in ``[0, size)``, ascending.

    The draw depends only on ``(size, count)`` — both invariant under id
    renumbering — which is what keeps vectorized churn bit-identical across
    node compaction on/off.  ``count >= size`` selects everything without
    consuming a draw (the branch itself is renumbering invariant).
    """
    if count <= 0 or size <= 0:
        return np.empty(0, dtype=np.int64)
    if count >= size:
        return np.arange(size, dtype=np.int64)
    picks = generator.choice(size, size=count, replace=False)
    picks.sort()
    return picks.astype(np.int64, copy=False)


class ChurnModel:
    """Interface for per-round network membership changes.

    Class attributes
    ----------------
    supports_vectorized:
        Declares that :meth:`vector_apply` is implemented, making the model
        admissible on the vectorized engine's dynamic-membership fast path.
        The flag-requires-hook contract is enforced by lint rule VEC001.
    """

    supports_vectorized = False

    def reset(self) -> None:
        """Clear per-run state.  Every engine calls this once before round 1.

        Models are plain reusable instances (a batch loop runs many
        broadcasts through one model), so anything accumulated during a run —
        id allocators, round counters — must be re-initialised here.
        """

    def apply(
        self, round_index: int, graph: Graph, states: StateTable, rng: RandomSource
    ) -> ChurnEvent:
        """Mutate ``graph`` and ``states`` for ``round_index``; report what changed."""
        return ChurnEvent(round_index=round_index)

    def vector_apply(
        self, round_index: int, ops, rng: RandomSource
    ) -> ChurnEvent:
        """Apply this round's membership step through the bulk surface.

        ``ops`` is the engine's ``VectorChurnOps``: ``live_count`` /
        ``source`` properties, ``live_nodes()`` / ``informed_nodes()`` /
        ``newly_informed_nodes()`` ascending-id views, and the mutators
        ``depart(ids)`` and ``join(count, target_degree, generator)``.
        Implementations must follow the renumbering-invariant draw discipline
        described in the module docstring.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the vectorized bulk hook"
        )

    def describe(self) -> dict:
        return {"model": type(self).__name__}


class NoChurn(ChurnModel):
    """The default: the network does not change during the broadcast."""


class _SplicingChurnBase(ChurnModel):
    """Shared machinery for models that wire joiners in by stub stealing."""

    def __init__(self, target_degree: int, protect_source: bool) -> None:
        if target_degree < 2:
            raise ConfigurationError(f"target_degree must be >= 2, got {target_degree}")
        self.target_degree = target_degree
        self.protect_source = protect_source
        self._next_node_id: Optional[int] = None

    def reset(self) -> None:
        # A reused instance must re-derive the first fresh joiner id from the
        # *current* run's graph; carrying the allocator across runs leaks
        # ever-growing ids into later runs (and breaks re-run determinism).
        self._next_node_id = None

    # -- scalar helpers --------------------------------------------------------

    def _allocate_node_id(self, graph: Graph) -> int:
        if self._next_node_id is None:
            self._next_node_id = (max(graph.iter_nodes()) + 1) if len(graph) else 0
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def _splice_joiner(self, graph: Graph, joiner: int, rng: RandomSource) -> None:
        """Wire ``joiner`` into the overlay by splitting random existing edges."""
        graph.add_node(joiner)
        edges = graph.edges()
        if not edges:
            return
        splices = max(1, self.target_degree // 2)
        for _ in range(splices):
            u, v = edges[rng.randint(0, len(edges))]
            if u == joiner or v == joiner or u == v:
                continue
            if not graph.has_edge(u, v):
                continue
            graph.remove_edge(u, v)
            graph.add_edge(u, joiner)
            graph.add_edge(joiner, v)

    def _scalar_join(
        self, graph: Graph, states: StateTable, rng: RandomSource, arrivals: int
    ) -> List[int]:
        joined: List[int] = []
        for _ in range(arrivals):
            joiner = self._allocate_node_id(graph)
            self._splice_joiner(graph, joiner, rng)
            states.add_node(joiner)
            joined.append(joiner)
        return joined

    @staticmethod
    def _scalar_depart(graph: Graph, states: StateTable, nodes) -> List[int]:
        departed: List[int] = []
        for node in nodes:
            graph.remove_node(node)
            states.remove_node(node)
            departed.append(node)
        return departed

    # -- vectorized helpers ----------------------------------------------------

    def _vector_depart_from(
        self, ops, rng: RandomSource, candidates: np.ndarray, count: int
    ) -> List[int]:
        if self.protect_source:
            candidates = candidates[candidates != ops.source]
        picks = _sorted_distinct_positions(rng.generator, int(candidates.size), count)
        if picks.size == 0:
            return []
        departed = candidates[picks]
        ops.depart(departed)
        return departed.tolist()


class UniformChurn(_SplicingChurnBase):
    """Uniform random departures and arrivals at fixed per-round rates.

    Parameters
    ----------
    leave_rate:
        Expected fraction of current nodes that leave per round.
    join_rate:
        Expected number of joiners per round, as a fraction of the current
        network size.
    target_degree:
        Degree the joiners aim for when splicing into the overlay.
    protect_source:
        Never remove the broadcast source (keeps the experiment meaningful —
        if the only informed node departs in round 1, every protocol fails).
    max_rounds:
        Stop churning after this many rounds (``None`` = churn forever); lets
        experiments model a burst of churn early in the broadcast.
    """

    supports_vectorized = True

    def __init__(
        self,
        leave_rate: float,
        join_rate: float,
        target_degree: int,
        protect_source: bool = True,
        max_rounds: Optional[int] = None,
    ) -> None:
        if not 0.0 <= leave_rate < 1.0:
            raise ConfigurationError(f"leave_rate must be in [0, 1), got {leave_rate}")
        if not 0.0 <= join_rate < 1.0:
            raise ConfigurationError(f"join_rate must be in [0, 1), got {join_rate}")
        super().__init__(target_degree=target_degree, protect_source=protect_source)
        self.leave_rate = leave_rate
        self.join_rate = join_rate
        self.max_rounds = max_rounds

    # -- main hooks -------------------------------------------------------------

    def apply(
        self, round_index: int, graph: Graph, states: StateTable, rng: RandomSource
    ) -> ChurnEvent:
        if self.max_rounds is not None and round_index > self.max_rounds:
            return ChurnEvent(round_index=round_index)

        current_nodes = [node for node in graph.iter_nodes() if states.contains(node)]
        departures = rng.binomial(len(current_nodes), self.leave_rate)
        arrivals = rng.binomial(len(current_nodes), self.join_rate)

        candidates = [
            node
            for node in current_nodes
            if not (self.protect_source and node == states.source)
        ]
        departed = self._scalar_depart(
            graph, states, rng.sample_distinct(candidates, departures)
        )
        joined = self._scalar_join(graph, states, rng, arrivals)
        return ChurnEvent(round_index=round_index, departed=departed, joined=joined)

    def vector_apply(
        self, round_index: int, ops, rng: RandomSource
    ) -> ChurnEvent:
        if self.max_rounds is not None and round_index > self.max_rounds:
            return ChurnEvent(round_index=round_index)

        live = ops.live_count
        departures = rng.binomial(live, self.leave_rate)
        arrivals = rng.binomial(live, self.join_rate)

        departed: List[int] = []
        if departures:
            departed = self._vector_depart_from(
                ops, rng, ops.live_nodes(), departures
            )
        joined: List[int] = []
        if arrivals:
            joined = ops.join(arrivals, self.target_degree, rng.generator)
        return ChurnEvent(round_index=round_index, departed=departed, joined=joined)

    def describe(self) -> dict:
        return {
            "model": type(self).__name__,
            "leave_rate": self.leave_rate,
            "join_rate": self.join_rate,
            "target_degree": self.target_degree,
            "max_rounds": self.max_rounds,
        }


class BurstChurn(ChurnModel):
    """Mass simultaneous departures at one chosen round.

    Models the paper's worst transient: a ``fraction`` of the network drops
    out at ``at_round`` all at once (a correlated failure — datacentre
    outage, partition heal), instead of the steady trickle of
    :class:`UniformChurn`.  Exactly ``floor(fraction · candidates)`` nodes
    leave; no joins.
    """

    supports_vectorized = True

    def __init__(
        self, at_round: int, fraction: float, protect_source: bool = True
    ) -> None:
        if at_round < 1:
            raise ConfigurationError(f"at_round must be >= 1, got {at_round}")
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
        self.at_round = at_round
        self.fraction = fraction
        self.protect_source = protect_source

    def apply(
        self, round_index: int, graph: Graph, states: StateTable, rng: RandomSource
    ) -> ChurnEvent:
        if round_index != self.at_round:
            return ChurnEvent(round_index=round_index)
        candidates = [
            node
            for node in graph.iter_nodes()
            if states.contains(node)
            and not (self.protect_source and node == states.source)
        ]
        count = int(self.fraction * len(candidates))
        departed = _SplicingChurnBase._scalar_depart(
            graph, states, rng.sample_distinct(candidates, count)
        )
        return ChurnEvent(round_index=round_index, departed=departed)

    def vector_apply(
        self, round_index: int, ops, rng: RandomSource
    ) -> ChurnEvent:
        if round_index != self.at_round:
            return ChurnEvent(round_index=round_index)
        candidates = ops.live_nodes()
        if self.protect_source:
            candidates = candidates[candidates != ops.source]
        count = int(self.fraction * int(candidates.size))
        picks = _sorted_distinct_positions(rng.generator, int(candidates.size), count)
        departed: List[int] = []
        if picks.size:
            chosen = candidates[picks]
            ops.depart(chosen)
            departed = chosen.tolist()
        return ChurnEvent(round_index=round_index, departed=departed)

    def describe(self) -> dict:
        return {
            "model": type(self).__name__,
            "at_round": self.at_round,
            "fraction": self.fraction,
            "protect_source": self.protect_source,
        }


class FlashCrowd(_SplicingChurnBase):
    """Mass simultaneous joins at one chosen round.

    The dual of :class:`BurstChurn`: ``floor(fraction · current size)`` fresh
    uninformed nodes splice into the overlay at ``at_round`` — a flash crowd
    arriving mid-broadcast, diluting the informed fraction in one step.
    """

    supports_vectorized = True

    def __init__(
        self, at_round: int, fraction: float, target_degree: int = 8
    ) -> None:
        if at_round < 1:
            raise ConfigurationError(f"at_round must be >= 1, got {at_round}")
        if fraction < 0.0:
            raise ConfigurationError(f"fraction must be >= 0, got {fraction}")
        super().__init__(target_degree=target_degree, protect_source=True)
        self.at_round = at_round
        self.fraction = fraction

    def apply(
        self, round_index: int, graph: Graph, states: StateTable, rng: RandomSource
    ) -> ChurnEvent:
        if round_index != self.at_round:
            return ChurnEvent(round_index=round_index)
        current = sum(1 for node in graph.iter_nodes() if states.contains(node))
        arrivals = int(self.fraction * current)
        joined = self._scalar_join(graph, states, rng, arrivals)
        return ChurnEvent(round_index=round_index, joined=joined)

    def vector_apply(
        self, round_index: int, ops, rng: RandomSource
    ) -> ChurnEvent:
        if round_index != self.at_round:
            return ChurnEvent(round_index=round_index)
        arrivals = int(self.fraction * ops.live_count)
        joined: List[int] = []
        if arrivals:
            joined = ops.join(arrivals, self.target_degree, rng.generator)
        return ChurnEvent(round_index=round_index, joined=joined)

    def describe(self) -> dict:
        return {
            "model": type(self).__name__,
            "at_round": self.at_round,
            "fraction": self.fraction,
            "target_degree": self.target_degree,
        }


class AdversarialChurn(_SplicingChurnBase):
    """Departures targeted at informed nodes — the paper's worst case.

    Instead of leaving uniformly, an adversary removes nodes that already
    carry the message (``target="informed"``) or, harsher still, exactly the
    frontier that would push next round (``target="newly-informed"``),
    erasing each round's progress.  Optional uniform joins keep the network
    size up while the rumour is suppressed.
    """

    supports_vectorized = True

    TARGETS = ("informed", "newly-informed")

    def __init__(
        self,
        leave_rate: float,
        join_rate: float = 0.0,
        target_degree: int = 8,
        target: str = "newly-informed",
        protect_source: bool = True,
        max_rounds: Optional[int] = None,
    ) -> None:
        if not 0.0 <= leave_rate <= 1.0:
            raise ConfigurationError(f"leave_rate must be in [0, 1], got {leave_rate}")
        if not 0.0 <= join_rate < 1.0:
            raise ConfigurationError(f"join_rate must be in [0, 1), got {join_rate}")
        if target not in self.TARGETS:
            raise ConfigurationError(
                f"target must be one of {self.TARGETS}, got {target!r}"
            )
        super().__init__(target_degree=target_degree, protect_source=protect_source)
        self.leave_rate = leave_rate
        self.join_rate = join_rate
        self.target = target
        self.max_rounds = max_rounds

    def _scalar_targets(self, states: StateTable, round_index: int) -> List[int]:
        if self.target == "informed":
            chosen = [s.node_id for s in states if s.informed]
        else:
            chosen = [
                s.node_id for s in states if s.newly_informed_in(round_index - 1)
            ]
        chosen.sort()
        if self.protect_source:
            chosen = [node for node in chosen if node != states.source]
        return chosen

    def apply(
        self, round_index: int, graph: Graph, states: StateTable, rng: RandomSource
    ) -> ChurnEvent:
        if self.max_rounds is not None and round_index > self.max_rounds:
            return ChurnEvent(round_index=round_index)
        current = sum(1 for node in graph.iter_nodes() if states.contains(node))
        candidates = self._scalar_targets(states, round_index)
        departures = rng.binomial(len(candidates), self.leave_rate)
        arrivals = rng.binomial(current, self.join_rate)
        departed = self._scalar_depart(
            graph, states, rng.sample_distinct(candidates, departures)
        )
        joined = self._scalar_join(graph, states, rng, arrivals)
        return ChurnEvent(round_index=round_index, departed=departed, joined=joined)

    def vector_apply(
        self, round_index: int, ops, rng: RandomSource
    ) -> ChurnEvent:
        if self.max_rounds is not None and round_index > self.max_rounds:
            return ChurnEvent(round_index=round_index)
        if self.target == "informed":
            candidates = ops.informed_nodes()
        else:
            candidates = ops.newly_informed_nodes()
        if self.protect_source:
            candidates = candidates[candidates != ops.source]
        departures = rng.binomial(int(candidates.size), self.leave_rate)
        arrivals = rng.binomial(ops.live_count, self.join_rate)
        departed: List[int] = []
        if departures:
            picks = _sorted_distinct_positions(
                rng.generator, int(candidates.size), departures
            )
            if picks.size:
                chosen = candidates[picks]
                ops.depart(chosen)
                departed = chosen.tolist()
        joined: List[int] = []
        if arrivals:
            joined = ops.join(arrivals, self.target_degree, rng.generator)
        return ChurnEvent(round_index=round_index, departed=departed, joined=joined)

    def describe(self) -> dict:
        return {
            "model": type(self).__name__,
            "leave_rate": self.leave_rate,
            "join_rate": self.join_rate,
            "target": self.target,
            "target_degree": self.target_degree,
            "max_rounds": self.max_rounds,
        }
