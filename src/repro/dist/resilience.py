"""Recovery semantics for distributed sweeps.

The paper's protocols keep broadcasting when nodes and channels fail; this
module applies the same discipline to the sweep harness itself.  A grid
point that raises no longer kills the whole sweep: the executor records a
structured failure, retries the point with bounded deterministic backoff,
and — when the retry budget is exhausted — **quarantines** it so every other
point still completes.  Quarantined points are reported in
``ScenarioRun.provenance["failures"]`` (and therefore in
``Table.metadata["distributed"]``), never silently dropped.

Three pieces live here:

* :class:`RetryPolicy` — the knobs: per-point retry budget, deterministic
  backoff schedule, per-point wall-clock timeout, how many pool deaths to
  tolerate before degrading to in-process serial execution.
* :class:`PointFailure` — the JSON-safe record of one quarantined point
  (every failed attempt's error is kept, so post-mortems need no logs).
* :class:`SweepInterrupted` — raised on SIGINT/SIGTERM after the executor
  has terminated the pool and flushed every completed point to the stream
  directory; the message states how to resume.

None of this changes any result bit: recovery only re-executes points, and
the seed = f(master, label) discipline makes a re-executed point
bit-identical to an undisturbed one (asserted by the chaos suite in
``tests/test_faultinject.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError, ReproError

__all__ = [
    "RetryPolicy",
    "PointFailure",
    "SweepInterrupted",
    "WorkerPoolError",
    "backoff_delay",
    "record_failure_event",
]


class WorkerPoolError(ReproError):
    """The worker pool died more times than the restart budget allows.

    Only raised when :attr:`RetryPolicy.serial_fallback` is disabled; the
    default policy degrades to in-process execution instead.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor reacts when grid points or workers fail.

    Attributes
    ----------
    max_attempts:
        Total execution attempts per point (first try included).  A point
        that fails ``max_attempts`` times is quarantined: the sweep
        completes without it and the point appears in
        ``provenance["failures"]``.
    backoff_seconds / backoff_multiplier / backoff_max_seconds:
        Deterministic retry backoff: attempt ``k`` (1-based failure count)
        waits ``backoff_seconds * backoff_multiplier**(k-1)``, capped at
        ``backoff_max_seconds``.  No jitter — the schedule is part of the
        reproducibility story.
    timeout_seconds:
        Per-point wall-clock budget.  A worker batch that exceeds the sum of
        its points' budgets is declared stalled: the pool is restarted, the
        overdue points are charged one failed attempt, and every other
        in-flight point is resubmitted without penalty.  ``None`` disables
        timeouts.  The in-process (``workers=1``) path cannot preempt a
        running point and therefore ignores this knob.
    max_pool_restarts:
        Pool deaths (crashed workers, stalls) tolerated before the executor
        gives up on multiprocessing.
    serial_fallback:
        What to do after ``max_pool_restarts`` is exceeded: ``True``
        (default) degrades gracefully to in-process serial execution for the
        remaining points; ``False`` re-raises the pool failure.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 2.0
    timeout_seconds: Optional[float] = None
    max_pool_restarts: int = 3
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be a positive int, got {self.max_attempts!r}"
            )
        if self.backoff_seconds < 0 or self.backoff_max_seconds < 0:
            raise ConfigurationError("backoff seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout_seconds must be positive or None, got {self.timeout_seconds}"
            )
        if not isinstance(self.max_pool_restarts, int) or self.max_pool_restarts < 0:
            raise ConfigurationError(
                "max_pool_restarts must be a non-negative int, "
                f"got {self.max_pool_restarts!r}"
            )


def backoff_delay(policy: RetryPolicy, failure_count: int) -> float:
    """The deterministic wait before retry number ``failure_count`` (1-based)."""
    delay = policy.backoff_seconds * (
        policy.backoff_multiplier ** max(0, failure_count - 1)
    )
    return min(delay, policy.backoff_max_seconds)


@dataclass(frozen=True)
class PointFailure:
    """One quarantined grid point, with its full attempt history.

    Attributes
    ----------
    index / label:
        Which grid point (row-major index and baked run label).
    attempts:
        Failed execution attempts before quarantine.
    error_type / message:
        Exception class name and message of the *final* attempt.
    errors:
        One ``{"attempt", "error_type", "message"}`` dict per failed
        attempt, in order.  JSON-safe, so the record survives the trip into
        ``Table.metadata["distributed"]["failures"]`` and saved tables.
    """

    index: int
    label: str
    attempts: int
    error_type: str
    message: str
    errors: Tuple[Dict[str, object], ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": int(self.index),
            "label": str(self.label),
            "attempts": int(self.attempts),
            "error_type": str(self.error_type),
            "message": str(self.message),
            "errors": [dict(event) for event in self.errors],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PointFailure":
        return cls(
            index=int(data["index"]),
            label=str(data["label"]),
            attempts=int(data["attempts"]),
            error_type=str(data["error_type"]),
            message=str(data["message"]),
            errors=tuple(dict(event) for event in data.get("errors", ())),
        )


class SweepInterrupted(ReproError):
    """A sweep was stopped by SIGINT/SIGTERM after a clean shutdown.

    Raised by :class:`~repro.dist.executor.ParallelScenarioExecutor` once the
    worker pool has been terminated and every already-completed point has
    been appended to the stream directory, which is left resumable.

    Attributes
    ----------
    completed / total:
        Points finished versus points selected for this run.
    stream_dir:
        The streaming-sink directory holding the durable records, or
        ``None`` (then the interrupt is not resumable).
    """

    def __init__(
        self, completed: int, total: int, stream_dir: Optional[str] = None
    ) -> None:
        self.completed = completed
        self.total = total
        self.stream_dir = stream_dir
        if stream_dir:
            resume_hint = (
                f"; resume with the same stream directory ({stream_dir}) "
                "and resume=True (CLI: --resume)"
            )
        else:
            resume_hint = (
                "; re-run with a stream directory (stream_dir, CLI: "
                "--stream-dir) to make interrupts resumable"
            )
        super().__init__(
            f"sweep interrupted: {completed} of {total} selected point(s) "
            f"completed{resume_hint}"
        )


def record_failure_event(
    errors: Dict[int, List[Dict[str, object]]],
    index: int,
    attempt: int,
    error_type: str,
    message: str,
) -> None:
    """Append one failed attempt to the per-point error log (JSON-safe)."""
    errors.setdefault(index, []).append(
        {
            "attempt": int(attempt),
            "error_type": str(error_type),
            "message": str(message),
        }
    )
