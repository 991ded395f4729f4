"""The classical push protocol in the random phone call model.

Every node calls one random neighbour per round; informed nodes send the
message to the neighbour they called.  On complete graphs and random regular
graphs this finishes in ``Θ(log n)`` rounds but requires ``Θ(n·log n)``
transmissions — the baseline the paper's algorithm beats on message count.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.errors import ConfigurationError
from ..core.node import NodeState, VectorState
from .base import BroadcastProtocol, OptionalHorizonMixin

__all__ = ["PushProtocol"]


class PushProtocol(BroadcastProtocol, OptionalHorizonMixin):
    """Push-only broadcasting with a configurable fanout.

    Parameters
    ----------
    n_estimate:
        The shared estimate of the network size used to set the round budget.
    fanout:
        How many distinct neighbours each node calls per round (1 is the
        standard phone call model, 4 matches the paper's modification).
    horizon_factor:
        The round budget is ``ceil(horizon_factor · log₂ n)``; the classical
        analysis needs ``log₂ n + ln n + O(1)`` rounds so the default of 4
        leaves comfortable slack for regular graphs of moderate degree.
    horizon_override:
        Exact round budget, overriding the factor-based computation.
    """

    name = "push"
    supports_vectorized = True
    supports_dynamic_membership = True

    def __init__(
        self,
        n_estimate: int,
        fanout: int = 1,
        horizon_factor: float = 4.0,
        horizon_override: Optional[int] = None,
    ) -> None:
        if n_estimate < 2:
            raise ConfigurationError(f"n_estimate must be >= 2, got {n_estimate}")
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
        if horizon_factor <= 0:
            raise ConfigurationError(f"horizon_factor must be positive, got {horizon_factor}")
        self.n_estimate = n_estimate
        self._fanout = fanout
        default = math.ceil(horizon_factor * math.log2(n_estimate))
        self._horizon = self.resolve_horizon(default, horizon_override)
        if fanout > 1:
            self.name = f"push-{fanout}"

    def horizon(self) -> int:
        return self._horizon

    def push_round(self, round_index: int) -> bool:
        return True

    def pull_round(self, round_index: int) -> bool:
        return False

    def fanout(self, state: NodeState, round_index: int) -> int:
        return self._fanout

    def wants_push(self, state: NodeState, round_index: int) -> bool:
        return state.informed

    def wants_pull(self, state: NodeState, round_index: int) -> bool:
        return False

    # -- bulk hooks -----------------------------------------------------------

    def vector_fanout(self, round_index: int) -> int:
        return self._fanout

    def vector_wants_push(self, round_index: int, state: VectorState) -> np.ndarray:
        return state.informed

    def vector_push_samplers(self, round_index: int, state: VectorState) -> np.ndarray:
        # Pushers are exactly the informed nodes, which the engine already
        # maintains as a sorted index vector — sampling is O(informed).
        return state.informed_flat

    def vector_wants_pull(self, round_index: int, state: VectorState) -> np.ndarray:
        return np.zeros(state.shape, dtype=bool)

    def describe(self) -> dict:
        description = super().describe()
        description.update({"fanout": self._fanout, "n_estimate": self.n_estimate})
        return description
