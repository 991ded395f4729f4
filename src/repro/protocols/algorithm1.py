"""Algorithm 1 of the paper — the small-degree broadcast algorithm.

Intended for degrees ``δ ≤ d ≤ δ·log log n``.  Every node opens channels to
**four distinct neighbours** in every round, and transmits according to a
four-phase schedule (see :mod:`repro.protocols.schedule`):

* **Phase 1** (``α·log n`` rounds): a node pushes exactly once — in the round
  immediately after it first received (or created) the message.  This keeps
  the number of Phase-1 transmissions at ``O(n)`` while already informing a
  constant fraction of the nodes (Lemmas 1–2, Corollary 1).
* **Phase 2** (``α·log log n`` rounds): every informed node pushes in every
  round.  The uninformed count shrinks by a constant factor per round, down
  to ``O(n / log⁵ n)`` (Lemma 3, Corollary 2).
* **Phase 3** (one round): every informed node answers all incoming calls
  (pull).  Afterwards only nodes with at least four uninformed neighbours can
  still be uninformed.
* **Phase 4** (up to round ``2α·log n + α·log log n``): nodes first informed
  during Phases 3–4 become *active* and push in every remaining round, pushing
  the message along the short residual paths inside the uninformed set
  (Theorem 2).

The total transmission count is ``O(n·log log n)`` because Phases 1 and 4
spend ``O(n)`` messages and Phases 2 and 3 each spend ``O(n·log log n)``.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from ..core.errors import ConfigurationError
from ..core.node import (
    NodeState,
    StateTable,
    VectorState,
    merge_sorted_disjoint,
    remove_sorted_values,
)
from .base import BroadcastProtocol
from .schedule import PhaseSchedule, algorithm1_schedule

__all__ = ["Algorithm1"]


class Algorithm1(BroadcastProtocol):
    """The paper's Algorithm 1 (four distinct choices, four phases).

    Parameters
    ----------
    n_estimate:
        The nodes' shared estimate of the network size.  The paper only
        requires it to be accurate to within a constant factor; experiment E7
        stresses this.
    alpha:
        The phase-length constant ``α``.  Theory asks for "sufficiently
        large"; empirically ``alpha = 1`` (the default) already completes
        reliably for the sizes simulated here, and the phase-dynamics
        experiment (E4) ablates larger values.
    fanout:
        Number of distinct neighbours called per round.  The paper uses 4 and
        conjectures 3 suffices; exposed for the choices ablation (E9).
    schedule_override:
        A fully custom :class:`PhaseSchedule`, overriding ``alpha``.
    """

    name = "algorithm1"
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
            else algorithm1_schedule(n_estimate, alpha)
        )
        if fanout != 4:
            self.name = f"algorithm1-f{fanout}"
        # Sorted flat indices of Phase-3/4 "active" nodes, maintained by the
        # bulk commit hook.  Per-run state, dropped by reset().
        self._active_flat: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._active_flat = None

    # -- scheduling -----------------------------------------------------------

    def horizon(self) -> int:
        return self.schedule.horizon

    def phase_label(self, round_index: int) -> str:
        return self.schedule.label_of(round_index)

    def push_round(self, round_index: int) -> bool:
        return self.schedule.phase_of(round_index) in (1, 2, 4)

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
            # Only nodes that created or first received the message in the
            # previous step transmit (the source has informed_round == 0 and
            # therefore pushes in round 1).
            return state.newly_informed_in(round_index - 1)
        if phase == 2:
            return True
        if phase == 4:
            return state.active or state.newly_informed_in(round_index - 1)
        return False

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
        if phase == 4:
            # Active nodes are the ones informed in Phases 3-4, which follow
            # Phase 2: the mask reads them off the informed round.
            informed_round = state.informed_round
            return state.informed & (
                (informed_round > self.schedule.phase2_end)
                | (informed_round == round_index - 1)
            )
        return np.zeros(state.shape, dtype=bool)

    def vector_push_samplers(self, round_index: int, state: VectorState) -> np.ndarray:
        phase = self.schedule.phase_of(round_index)
        if phase == 1:
            # Exactly the nodes first informed in the previous round — the
            # engine hands them to us as last round's commit set.
            return state.newly_flat
        if phase == 2:
            return state.informed_flat
        if phase == 4:
            # active ∪ newly(r-1).  Until a Phase-3/4 round informs someone
            # the list is empty and the push set is last round's commits (a
            # zero-length Phase 3 puts Phase 2 right before Phase 4); after
            # that, each Phase-3/4 commit merges its newly informed nodes
            # into the list, so the list alone is the push set.
            if self._active_flat is None:
                return state.newly_flat
            return self._active_flat
        return state.newly_flat[:0]

    def vector_wants_pull(self, round_index: int, state: VectorState) -> np.ndarray:
        if self.schedule.phase_of(round_index) == 3:
            return state.informed
        return np.zeros(state.shape, dtype=bool)

    def vector_on_round_committed(
        self, round_index: int, state: VectorState, newly_informed: np.ndarray
    ) -> None:
        if self.schedule.phase_of(round_index) >= 3 and newly_informed.size:
            # newly_informed holds sorted flat indices (row-major for a batch).
            if self._active_flat is None:
                self._active_flat = newly_informed.copy()
            else:
                self._active_flat = merge_sorted_disjoint(
                    self._active_flat, newly_informed
                )

    def vector_compact_rows(self, keep: np.ndarray, n: int, old_batch: int) -> None:
        if self._active_flat is not None:
            self._active_flat = VectorState.compact_flat_indices(
                self._active_flat, keep, n, old_batch
            )

    def vector_remove_nodes(self, ids: np.ndarray, state: VectorState) -> None:
        if self._active_flat is not None and self._active_flat.size:
            self._active_flat = remove_sorted_values(self._active_flat, ids)

    def vector_compact_nodes(self, remap: np.ndarray, state: VectorState) -> None:
        # Active nodes are alive by construction (departures evict them via
        # vector_remove_nodes), so the remap has no -1 hits here; it is
        # monotone over survivors, so the sorted order is preserved.
        if self._active_flat is not None and self._active_flat.size:
            self._active_flat = remap[self._active_flat].astype(
                self._active_flat.dtype, copy=False
            )

    # -- lifecycle -----------------------------------------------------------------

    def on_round_committed(
        self, round_index: int, states: StateTable, newly_informed: Set[int]
    ) -> None:
        # Nodes informed during Phase 3 or Phase 4 switch to the active state
        # and keep pushing for the remainder of the schedule.
        if self.schedule.phase_of(round_index) >= 3:
            for node_id in newly_informed:
                states[node_id].active = True

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
