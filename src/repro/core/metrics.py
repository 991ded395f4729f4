"""Metrics and results of broadcast runs.

The paper's cost model counts two quantities separately:

* **message transmissions** — every copy of the broadcast message sent over an
  open channel (this is the quantity the O(n log log n) upper bound and the
  Ω(n log n / log d) lower bound are about);
* **opened channels** — the fixed per-round overhead of the phone call model,
  which amortises over messages when broadcasts are frequent.

:class:`RoundRecord` captures one round, :class:`RunResult` an entire run, and
:class:`RunAggregate` summarises repetitions of the same configuration across
seeds (mean / min / max / standard deviation of the headline quantities).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["RoundRecord", "RunResult", "RunAggregate", "aggregate_runs"]


@dataclass(frozen=True)
class RoundRecord:
    """Per-round counters collected by the engine.

    Attributes
    ----------
    round_index:
        1-based round number (round 0 is the creation of the message).
    informed_before / informed_after:
        Number of informed nodes at the start / end of the round.
    push_transmissions / pull_transmissions:
        Message copies sent via push / pull during the round.
    channels_opened:
        Channels opened during the round (4·n in the paper's model).
    lost_transmissions:
        Transmissions dropped by the failure model.
    phase:
        Protocol-reported phase label for the round (e.g. ``"phase1"``), or
        ``""`` for protocols without phases.
    """

    round_index: int
    informed_before: int
    informed_after: int
    push_transmissions: int
    pull_transmissions: int
    channels_opened: int
    lost_transmissions: int = 0
    phase: str = ""

    @property
    def transmissions(self) -> int:
        """Total transmissions (push + pull) in this round."""
        return self.push_transmissions + self.pull_transmissions

    @property
    def newly_informed(self) -> int:
        """Nodes that became informed during this round."""
        return self.informed_after - self.informed_before

    @property
    def delivered_transmissions(self) -> int:
        """Transmissions that arrived this round (total minus losses)."""
        return self.transmissions - self.lost_transmissions


#: How :meth:`RunResult.to_dict` writes ``history``: one column per
#: :class:`RoundRecord` field, in field order, with the plain Python type
#: each column holds.
_HISTORY_COLUMNS = tuple(
    (attrgetter(item.name), str if item.name == "phase" else int)
    for item in fields(RoundRecord)
)


@dataclass
class RunResult:
    """Complete outcome of one broadcast simulation.

    The headline quantities used throughout the experiments are
    :attr:`rounds_to_completion`, :attr:`total_transmissions`, and
    :attr:`transmissions_per_node`.
    """

    n: int
    protocol: str
    source: int
    success: bool
    rounds_executed: int
    rounds_to_completion: Optional[int]
    total_push_transmissions: int
    total_pull_transmissions: int
    total_channels_opened: int
    total_lost_transmissions: int
    final_informed: int
    history: List[RoundRecord] = field(default_factory=list)
    phase_transmissions: Dict[str, int] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def total_transmissions(self) -> int:
        """All message transmissions across the run (push + pull)."""
        return self.total_push_transmissions + self.total_pull_transmissions

    @property
    def total_delivered_transmissions(self) -> int:
        """Transmissions that actually arrived (total minus failure losses).

        This is the quantity the engines' conservation identity is stated
        over: every informed node except the source received at least one
        delivered transmission.  The identity is representation-independent —
        the scalar engine's per-channel loop, the mask-scan kernels, and the
        sparse active-set commits (which drop duplicate deliveries *after*
        counting the transmission) all charge it identically.
        """
        return self.total_transmissions - self.total_lost_transmissions

    @property
    def transmissions_per_node(self) -> float:
        """Average number of transmissions per network node."""
        return self.total_transmissions / self.n if self.n else 0.0

    @property
    def channels_per_node(self) -> float:
        """Average number of channels opened per node over the whole run."""
        return self.total_channels_opened / self.n if self.n else 0.0

    @property
    def informed_fraction(self) -> float:
        """Fraction of nodes informed when the run ended."""
        return self.final_informed / self.n if self.n else 0.0

    def informed_curve(self) -> List[int]:
        """Informed-node counts after each executed round (needs history)."""
        return [record.informed_after for record in self.history]

    def transmissions_by_phase(self) -> Dict[str, int]:
        """Total transmissions per protocol phase label."""
        return dict(self.phase_transmissions)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict of the whole run, including per-round history.

        All counters are coerced to plain Python scalars and ``metadata`` is
        deep-copied, so the payload survives ``json.dumps`` untouched.
        ``history`` is written as columns: one list per :class:`RoundRecord`
        field, in field order, so the keys are not repeated every round.
        The distributed sweep executor uses this as the wire and stream
        format; :meth:`from_dict` reconstructs a result that compares equal
        to the original down to per-round history.
        """
        return {
            "n": int(self.n),
            "protocol": str(self.protocol),
            "source": int(self.source),
            "success": bool(self.success),
            "rounds_executed": int(self.rounds_executed),
            "rounds_to_completion": (
                None
                if self.rounds_to_completion is None
                else int(self.rounds_to_completion)
            ),
            "total_push_transmissions": int(self.total_push_transmissions),
            "total_pull_transmissions": int(self.total_pull_transmissions),
            "total_channels_opened": int(self.total_channels_opened),
            "total_lost_transmissions": int(self.total_lost_transmissions),
            "final_informed": int(self.final_informed),
            "history": [
                list(map(kind, map(column, self.history)))
                for column, kind in _HISTORY_COLUMNS
            ],
            "phase_transmissions": {
                str(phase): int(count)
                for phase, count in self.phase_transmissions.items()
            },
            "metadata": copy.deepcopy(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunResult":
        """Inverse of :meth:`to_dict`; round-trips bit-exactly."""
        return cls(
            n=data["n"],
            protocol=data["protocol"],
            source=data["source"],
            success=data["success"],
            rounds_executed=data["rounds_executed"],
            rounds_to_completion=data.get("rounds_to_completion"),
            total_push_transmissions=data["total_push_transmissions"],
            total_pull_transmissions=data["total_pull_transmissions"],
            total_channels_opened=data["total_channels_opened"],
            total_lost_transmissions=data["total_lost_transmissions"],
            final_informed=data["final_informed"],
            history=[RoundRecord(*row) for row in zip(*data.get("history", ()))],
            phase_transmissions=dict(data.get("phase_transmissions", {})),
            metadata=copy.deepcopy(dict(data.get("metadata", {}))),
        )


@dataclass(frozen=True)
class SummaryStatistic:
    """Mean / spread summary of one scalar metric across repeated runs."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "SummaryStatistic":
        if not values:
            raise ValueError("cannot summarise an empty sequence")
        n = len(values)
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / n
        return cls(
            mean=mean,
            std=math.sqrt(variance),
            minimum=min(values),
            maximum=max(values),
            count=n,
        )


@dataclass(frozen=True)
class RunAggregate:
    """Summary of several :class:`RunResult` objects for the same setting."""

    n: int
    protocol: str
    runs: int
    success_rate: float
    rounds: SummaryStatistic
    transmissions: SummaryStatistic
    transmissions_per_node: SummaryStatistic
    channels_per_node: SummaryStatistic


def aggregate_runs(results: Sequence[RunResult]) -> RunAggregate:
    """Summarise repeated runs of one configuration.

    Runs that did not complete contribute their executed round count to the
    round statistic (a conservative lower bound) and count against the
    success rate.
    """
    if not results:
        raise ValueError("aggregate_runs requires at least one result")
    first = results[0]
    rounds = [
        float(r.rounds_to_completion if r.rounds_to_completion is not None else r.rounds_executed)
        for r in results
    ]
    return RunAggregate(
        n=first.n,
        protocol=first.protocol,
        runs=len(results),
        success_rate=sum(1 for r in results if r.success) / len(results),
        rounds=SummaryStatistic.from_values(rounds),
        transmissions=SummaryStatistic.from_values(
            [float(r.total_transmissions) for r in results]
        ),
        transmissions_per_node=SummaryStatistic.from_values(
            [r.transmissions_per_node for r in results]
        ),
        channels_per_node=SummaryStatistic.from_values(
            [r.channels_per_node for r in results]
        ),
    )
