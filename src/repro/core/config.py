"""Simulation configuration.

One :class:`SimulationConfig` object captures every knob of a broadcast run
that is not part of the graph, the protocol or the churn model themselves:
failure injection, round limits, history recording and engine selection.
Keeping these in a frozen dataclass means an experiment's full
parameterisation can be logged and reproduced from a single record.

How the bulk engine compacts finished replications and departed nodes is
not a knob: one fixed rule does it, bit-identically to running without it
(see :mod:`repro.core.engine_vectorized`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .errors import ConfigurationError

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Engine-level parameters of a single broadcast simulation.

    Attributes
    ----------
    max_rounds:
        Hard cap on the number of rounds.  ``None`` lets the protocol's own
        horizon decide (all protocols expose one); a run that exhausts the cap
        without informing everybody is reported as unsuccessful rather than
        raising.
    message_loss_probability:
        Probability that any individual transmission (one message over one
        channel in one direction) is lost.  Models the "limited communication
        failures" discussed in the paper's abstract and introduction.
    channel_failure_probability:
        Probability that an opened channel fails entirely for the round
        (neither push nor pull can use it).
    collect_round_history:
        Whether to record the per-round informed counts and transmission
        counts.  Experiments that only need totals can disable it to save
        memory on large sweeps.
    stop_when_informed:
        Stop as soon as every node is informed, even if the protocol's
        schedule has rounds remaining.  The paper's algorithms run for their
        full deterministic horizon (a Monte Carlo guarantee); experiments that
        measure *completion time* enable early stopping instead.
    engine:
        Which round engine executes the run.  ``"auto"`` (default) picks the
        bulk NumPy engine whenever the protocol, failure model and any churn
        model support it (bulk protocol hooks available, no exchange hook,
        no contact memory) and silently falls back to the scalar engine
        otherwise; ``"scalar"`` forces the per-node object engine;
        ``"vectorized"`` forces the bulk engine and raises
        :class:`SimulationError` if the combination cannot be vectorized.
        :func:`repro.core.engine.plan_run` makes the decision; see
        :mod:`repro.core.engine_vectorized` for the rules.
    """

    max_rounds: Optional[int] = None
    message_loss_probability: float = 0.0
    channel_failure_probability: float = 0.0
    collect_round_history: bool = True
    stop_when_informed: bool = True
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.max_rounds is not None and self.max_rounds <= 0:
            raise ConfigurationError(
                f"max_rounds must be positive or None, got {self.max_rounds}"
            )
        if self.engine not in ("auto", "scalar", "vectorized"):
            raise ConfigurationError(
                f"engine must be 'auto', 'scalar', or 'vectorized', got {self.engine!r}"
            )
        for name in ("message_loss_probability", "channel_failure_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")

    def with_overrides(self, **overrides) -> "SimulationConfig":
        """A copy of this configuration with selected fields replaced."""
        return replace(self, **overrides)
