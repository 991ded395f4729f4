"""Broadcast protocols for the random phone call model.

* :class:`PushProtocol`, :class:`PullProtocol`, :class:`PushPullProtocol` —
  the classical baselines.
* :class:`Algorithm1`, :class:`Algorithm2` — the paper's four-distinct-choice,
  phase-structured algorithms for small and large degrees.
* :class:`SequentialAlgorithm1` — the sequentialised memory variant
  (footnote 2 of the paper).
* :class:`QuasirandomPushProtocol` — the Doerr et al. quasirandom baseline.
* :class:`MedianCounterProtocol` — push&pull with the Karp et al.
  median-counter termination rule.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .algorithm1 import Algorithm1
    from .algorithm2 import Algorithm2
    from .base import BroadcastProtocol
    from .median_counter import MedianCounterProtocol
    from .pull import PullProtocol
    from .push import PushProtocol
    from .push_pull import PushPullProtocol
    from .quasirandom import QuasirandomPushProtocol
    from .registry import (
        PROTOCOL_BUILDERS,
        PROTOCOLS,
        available_protocols,
        build_protocol,
    )
    from .schedule import (
        PhaseSchedule,
        algorithm1_schedule,
        algorithm2_schedule,
        log2_estimate,
        loglog_estimate,
    )
    from .sequential import SequentialAlgorithm1

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "BroadcastProtocol",
    "PushProtocol",
    "PullProtocol",
    "PushPullProtocol",
    "Algorithm1",
    "Algorithm2",
    "SequentialAlgorithm1",
    "QuasirandomPushProtocol",
    "MedianCounterProtocol",
    "PhaseSchedule",
    "algorithm1_schedule",
    "algorithm2_schedule",
    "log2_estimate",
    "loglog_estimate",
    "PROTOCOL_BUILDERS",
    "PROTOCOLS",
    "build_protocol",
    "available_protocols",
]
