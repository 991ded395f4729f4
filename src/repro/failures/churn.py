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

One step, two surfaces
----------------------

Each model writes its membership step once, as
:meth:`ChurnModel.vector_apply`, against a narrow membership surface:
``live_count`` and ``source``, the ascending id views ``live_nodes()``,
``informed_nodes()`` and ``newly_informed_nodes()``, and the mutators
``depart(ids)`` and ``join(count, target_degree, generator)``.  Each engine
runs that one step through its own surface.  The scalar engine's
``ScalarChurnOps`` (:mod:`repro.core.engine`) edits its
:class:`~repro.graphs.base.Graph` and :class:`~repro.core.node.StateTable`
object by object: a departure deletes the node's edges, and each joiner
splices into edges drawn from the graph as it stands.  The bulk engine's
``VectorChurnOps`` (:mod:`repro.core.engine_vectorized`) keeps departed
nodes' stubs as tombstones (filtered at call time) and splices a round's
joiners into its CSR in one batch.  The surfaces hold membership
differently and draw joins differently, so the engines agree
*statistically*, not draw-for-draw.

Draws must be *renumbering invariant*: every random decision may depend
only on live-node **positions** (rank in ascending id order), live counts,
and per-node degrees — never on raw id values — so that the bulk engine's
threshold-triggered node compaction (which renumbers ids) cannot change the
draw sequence.  The helpers here follow that discipline; custom models must
too, or the compaction-on/off bit-parity contract breaks.

A model holds no per-run state: the scalar engine keeps its joiner-id
counter on the run's :class:`~repro.core.node.StateTable`, so one instance
serves any number of runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.errors import ConfigurationError
from ..core.rng import RandomSource

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

    A model implements one hook, :meth:`vector_apply`, and runs on both
    engines.
    """

    def vector_apply(
        self, round_index: int, ops, rng: RandomSource
    ) -> ChurnEvent:
        """Apply this round's membership step through ``ops``; report what changed.

        ``ops`` is the engine's membership surface (``ScalarChurnOps`` or
        ``VectorChurnOps``): ``live_count`` / ``source`` properties,
        ``live_nodes()`` / ``informed_nodes()`` / ``newly_informed_nodes()``
        ascending int64 id arrays, and the mutators ``depart(ids)`` and
        ``join(count, target_degree, generator)``.  ``rng`` is the run's
        churn stream.  Implementations must follow the renumbering-invariant
        draw discipline described in the module docstring.  The default
        changes nothing.
        """
        return ChurnEvent(round_index=round_index)

    def describe(self) -> dict:
        return {"model": type(self).__name__}


class NoChurn(ChurnModel):
    """The default: the network does not change during the broadcast."""


class _Candidates:
    """Ascending departure candidates less the protected source, uncopied.

    The source is skipped by its rank: positions are drawn over the
    candidates without it, and every position at or past that rank shifts up
    by one.
    """

    __slots__ = ("ids", "skip", "size")

    def __init__(self, ids: np.ndarray, ops, protect_source: bool) -> None:
        self.ids = ids
        self.skip = -1
        if protect_source:
            # -1 once the source departed: never a candidate.
            source = ops.source
            rank = int(np.searchsorted(ids, source))
            if rank < ids.size and ids[rank] == source:
                self.skip = rank
        self.size = int(ids.size) - (self.skip >= 0)

    def depart(self, ops, generator: np.random.Generator, count: int) -> List[int]:
        """Depart ``count`` distinct candidates drawn uniformly; return their ids."""
        picks = _sorted_distinct_positions(generator, self.size, count)
        if picks.size == 0:
            return []
        if self.skip >= 0:
            picks[np.searchsorted(picks, self.skip) :] += 1
        departed = self.ids[picks]
        ops.depart(departed)
        return departed.tolist()


class _SplicingChurnBase(ChurnModel):
    """Shared validation for models that wire joiners in by stub stealing."""

    def __init__(self, target_degree: int, protect_source: bool) -> None:
        if target_degree < 2:
            raise ConfigurationError(f"target_degree must be >= 2, got {target_degree}")
        self.target_degree = target_degree
        self.protect_source = protect_source


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
            pool = _Candidates(ops.live_nodes(), ops, self.protect_source)
            departed = pool.depart(ops, rng.generator, departures)
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

    def vector_apply(
        self, round_index: int, ops, rng: RandomSource
    ) -> ChurnEvent:
        if round_index != self.at_round:
            return ChurnEvent(round_index=round_index)
        pool = _Candidates(ops.live_nodes(), ops, self.protect_source)
        departed = pool.depart(ops, rng.generator, int(self.fraction * pool.size))
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

    def vector_apply(
        self, round_index: int, ops, rng: RandomSource
    ) -> ChurnEvent:
        if self.max_rounds is not None and round_index > self.max_rounds:
            return ChurnEvent(round_index=round_index)
        if self.target == "informed":
            targets = ops.informed_nodes()
        else:
            targets = ops.newly_informed_nodes()
        pool = _Candidates(targets, ops, self.protect_source)
        departures = rng.binomial(pool.size, self.leave_rate)
        arrivals = rng.binomial(ops.live_count, self.join_rate)
        departed = pool.depart(ops, rng.generator, departures)
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
