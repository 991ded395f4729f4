"""Algorithm 2 of the paper — the large-degree broadcast algorithm.

Intended for degrees ``δ·log log n ≤ d ≤ δ·log n``.  Phases 1 and 2 are the
same as in Algorithm 1; the tail of the protocol is a single pull phase of
length ``α·log log n`` (rounds ``⌈α(log n + log log n)⌉ + 1`` through
``⌈α·log n + 2α·log log n⌉``) during which every informed node answers all
incoming calls.  Because the degree is large, each pull round multiplies the
uninformed count down super-geometrically (Section 4.3.3, Theorem 3), so
``O(log log n)`` pull rounds finish the broadcast with ``O(n·log log n)``
total transmissions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.errors import ConfigurationError
from ..core.node import NodeState, VectorState
from .base import BroadcastProtocol
from .schedule import PhaseSchedule, algorithm2_schedule

__all__ = ["Algorithm2"]


class Algorithm2(BroadcastProtocol):
    """The paper's Algorithm 2 (four distinct choices, push phases + pull tail).

    Parameters mirror :class:`repro.protocols.algorithm1.Algorithm1`.
    """

    name = "algorithm2"
    supports_vectorized = True
    supports_dynamic_membership = True

    def __init__(
        self,
        n_estimate: int,
        alpha: float = 1.0,
        fanout: int = 4,
        schedule_override: Optional[PhaseSchedule] = None,
    ) -> None:
        if n_estimate < 2:
            raise ConfigurationError(f"n_estimate must be >= 2, got {n_estimate}")
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
        self.n_estimate = n_estimate
        self.alpha = alpha
        self._fanout = fanout
        self.schedule = (
            schedule_override
            if schedule_override is not None
            else algorithm2_schedule(n_estimate, alpha)
        )
        if fanout != 4:
            self.name = f"algorithm2-f{fanout}"

    # -- scheduling -----------------------------------------------------------

    def horizon(self) -> int:
        return self.schedule.horizon

    def phase_label(self, round_index: int) -> str:
        return self.schedule.label_of(round_index)

    def push_round(self, round_index: int) -> bool:
        return self.schedule.phase_of(round_index) in (1, 2)

    def pull_round(self, round_index: int) -> bool:
        return self.schedule.phase_of(round_index) == 3

    # -- per-node decisions ------------------------------------------------------

    def fanout(self, state: NodeState, round_index: int) -> int:
        return self._fanout

    def wants_push(self, state: NodeState, round_index: int) -> bool:
        if not state.informed:
            return False
        phase = self.schedule.phase_of(round_index)
        if phase == 1:
            return state.newly_informed_in(round_index - 1)
        return phase == 2

    def wants_pull(self, state: NodeState, round_index: int) -> bool:
        return state.informed and self.schedule.phase_of(round_index) == 3

    # -- bulk hooks -----------------------------------------------------------------

    def vector_fanout(self, round_index: int) -> int:
        return self._fanout

    def vector_wants_push(self, round_index: int, state: VectorState) -> np.ndarray:
        phase = self.schedule.phase_of(round_index)
        if phase == 1:
            return state.informed & (state.informed_round == round_index - 1)
        if phase == 2:
            return state.informed
        return np.zeros(state.shape, dtype=bool)

    def vector_push_samplers(self, round_index: int, state: VectorState) -> np.ndarray:
        phase = self.schedule.phase_of(round_index)
        if phase == 1:
            return state.newly_flat
        if phase == 2:
            return state.informed_flat
        return state.newly_flat[:0]

    def vector_wants_pull(self, round_index: int, state: VectorState) -> np.ndarray:
        # The pull tail: every informed node answers all incoming calls, so
        # the mask covers the informed set and the engine's many-to-one pull
        # accounting (one transmission per caller whose callee answers) does
        # the rest in bulk.
        if self.schedule.phase_of(round_index) == 3:
            return state.informed
        return np.zeros(state.shape, dtype=bool)

    def describe(self) -> dict:
        description = super().describe()
        description.update(
            {
                "alpha": self.alpha,
                "fanout": self._fanout,
                "n_estimate": self.n_estimate,
                "phase_lengths": self.schedule.phase_lengths(),
            }
        )
        return description
