"""The median-counter algorithm of Karp, Schindelhauer, Shenker and Vöcking.

Karp et al. [FOCS 2000] showed that push&pull with a *distributed* termination
mechanism broadcasts on complete graphs in ``O(log n)`` rounds with only
``O(n·log log n)`` transmissions, and that this is optimal for their model.
The termination rule is the part our age-based :class:`PushPullProtocol`
simplifies away, so this module implements the real thing as a baseline:

* Every copy of the rumour carries a **counter** (the paper's "age"-refined
  state machine).  A node is in state B (actively spreading) with a counter
  value, or in state C (still transmitting for a bounded number of rounds but
  no longer updating counters), or in state D (inactive).
* In every round each node contacts a random neighbour; push and pull both
  happen.  A node in state B with counter ``ctr`` increments its counter when
  it observes that the **median** of the counters it encountered this round
  (from the nodes it communicated with that already know the rumour) is at
  least its own counter — the original rule; encountering mostly
  higher-counter copies is evidence the rumour is already widespread.
* When the counter reaches ``ctr_max = O(log log n)`` the node switches to
  state C and keeps transmitting for ``O(log log n)`` further rounds, then
  stops (state D).

This gives a fully address-oblivious, distributed stopping rule whose cost we
can compare against Algorithm 1 (experiment E2 ablations) — and on *sparse*
random regular graphs it illustrates the paper's Theorem 1: no one-call rule,
however clever its termination, escapes the ``Ω(n·log n / log d)`` bound.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

from ..core.errors import ConfigurationError
from ..core.node import NodeState, StateTable
from .base import BroadcastProtocol, OptionalHorizonMixin

__all__ = ["MedianCounterProtocol"]

#: Node phases of the median-counter state machine.
_STATE_B = "B"
_STATE_C = "C"
_STATE_D = "D"


class MedianCounterProtocol(BroadcastProtocol, OptionalHorizonMixin):
    """Push&pull with the Karp et al. median-counter termination rule.

    Parameters
    ----------
    n_estimate:
        Shared estimate of the network size (sets ``ctr_max`` and the state-C
        duration to ``O(log log n)`` and the hard horizon to ``O(log n)``).
    fanout:
        Distinct neighbours contacted per round (1 = the model Karp et al.
        analyse; 4 = the paper's modification, for ablations).
    counter_rounds_factor:
        ``ctr_max = ceil(counter_rounds_factor · log₂ log₂ n)``.
    state_c_factor:
        Rounds spent in state C before going quiet, as a multiple of
        ``log₂ log₂ n``.
    horizon_factor:
        Hard stop after ``ceil(horizon_factor · log₂ n)`` rounds (the Monte
        Carlo guarantee — state D is normally reached much earlier).
    """

    name = "median-counter"

    def __init__(
        self,
        n_estimate: int,
        fanout: int = 1,
        counter_rounds_factor: float = 2.0,
        state_c_factor: float = 2.0,
        horizon_factor: float = 6.0,
        horizon_override: Optional[int] = None,
    ) -> None:
        if n_estimate < 2:
            raise ConfigurationError(f"n_estimate must be >= 2, got {n_estimate}")
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
        for label, value in (
            ("counter_rounds_factor", counter_rounds_factor),
            ("state_c_factor", state_c_factor),
            ("horizon_factor", horizon_factor),
        ):
            if value <= 0:
                raise ConfigurationError(f"{label} must be positive, got {value}")
        self.n_estimate = n_estimate
        self._fanout = fanout
        log_n = math.log2(n_estimate)
        loglog_n = max(1.0, math.log2(max(2.0, log_n)))
        self.ctr_max = max(1, math.ceil(counter_rounds_factor * loglog_n))
        self.state_c_rounds = max(1, math.ceil(state_c_factor * loglog_n))
        self._horizon = self.resolve_horizon(
            math.ceil(horizon_factor * log_n), horizon_override
        )
        if fanout > 1:
            self.name = f"median-counter-{fanout}"

        # Per-node protocol state (the engine only tracks informedness).
        self._state: Dict[int, str] = {}
        self._counter: Dict[int, int] = {}
        self._c_rounds_left: Dict[int, int] = {}
        # Counters observed from communication partners in the current round,
        # recorded as the round unfolds and folded in at commit time.
        self._observed: Dict[int, List[int]] = {}

    # -- bookkeeping helpers --------------------------------------------------------

    def _ensure_tracked(self, node_id: int) -> None:
        if node_id not in self._state:
            self._state[node_id] = _STATE_B
            self._counter[node_id] = 1
            self._c_rounds_left[node_id] = self.state_c_rounds

    def counter_of(self, node_id: int) -> int:
        """Current counter of an informed node (1 if it was never updated)."""
        return self._counter.get(node_id, 1)

    def state_of(self, node_id: int) -> str:
        """Median-counter state ("B", "C", or "D") of an informed node."""
        return self._state.get(node_id, _STATE_B)

    def observe(self, node_id: int, partner_counter: int) -> None:
        """Record the counter carried by a copy received from a partner."""
        self._observed.setdefault(node_id, []).append(partner_counter)

    def transmitting(self, node_id: int) -> bool:
        """True while the node's state machine still allows transmissions."""
        return self.state_of(node_id) in (_STATE_B, _STATE_C)

    # -- BroadcastProtocol interface ---------------------------------------------------

    def horizon(self) -> int:
        return self._horizon

    def push_round(self, round_index: int) -> bool:
        return True

    def pull_round(self, round_index: int) -> bool:
        return True

    def fanout(self, state: NodeState, round_index: int) -> int:
        return self._fanout

    def wants_push(self, state: NodeState, round_index: int) -> bool:
        if not state.informed:
            return False
        self._ensure_tracked(state.node_id)
        return self.transmitting(state.node_id)

    def wants_pull(self, state: NodeState, round_index: int) -> bool:
        return self.wants_push(state, round_index)

    def on_channel_exchange(
        self, caller_state: NodeState, callee_state: NodeState, round_index: int
    ) -> None:
        # Each endpoint that already knows the rumour observes the counter of
        # the other endpoint, provided that other endpoint also knows it (the
        # rule only reasons about copies of the rumour that were exchanged).
        if caller_state.informed and callee_state.informed:
            self._ensure_tracked(caller_state.node_id)
            self._ensure_tracked(callee_state.node_id)
            self.observe(caller_state.node_id, self._counter[callee_state.node_id])
            self.observe(callee_state.node_id, self._counter[caller_state.node_id])

    def on_round_committed(
        self, round_index: int, states: StateTable, newly_informed: Set[int]
    ) -> None:
        # Newly informed nodes enter state B with counter 1.
        for node_id in newly_informed:
            self._ensure_tracked(node_id)

        # Fold in this round's observations for every informed node.
        for node_id, observed in self._observed.items():
            if not states.contains(node_id) or not states[node_id].informed:
                continue
            self._ensure_tracked(node_id)
            if self._state[node_id] == _STATE_B and observed:
                observed.sort()
                median = observed[len(observed) // 2]
                if median >= self._counter[node_id]:
                    self._counter[node_id] += 1
                if self._counter[node_id] >= self.ctr_max:
                    self._state[node_id] = _STATE_C
        self._observed.clear()

        # Age out state C.
        for node_id, state_label in list(self._state.items()):
            if state_label == _STATE_C:
                self._c_rounds_left[node_id] -= 1
                if self._c_rounds_left[node_id] <= 0:
                    self._state[node_id] = _STATE_D

    def finished(self, round_index: int, states: StateTable) -> bool:
        if round_index >= self._horizon:
            return True
        # Once every informed node has gone quiet nothing further can happen.
        informed = [s.node_id for s in states if s.informed]
        if informed and all(self.state_of(node_id) == _STATE_D for node_id in informed):
            return True
        return False

    def describe(self) -> dict:
        description = super().describe()
        description.update(
            {
                "fanout": self._fanout,
                "n_estimate": self.n_estimate,
                "ctr_max": self.ctr_max,
                "state_c_rounds": self.state_c_rounds,
            }
        )
        return description
