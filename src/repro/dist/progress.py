"""Per-point progress reporting for sweeps.

Both execution paths — the serial :meth:`ExperimentRunner.run_scenario` loop
and the :class:`~repro.dist.executor.ParallelScenarioExecutor` — emit one
:class:`PointProgress` event per completed grid point through a plain
callback, so callers can log, draw progress bars, or feed schedulers without
the execution layer knowing about any of that.  Two ready-made consumers are
provided: :func:`log_point_progress` (stdlib ``logging``, logger name
``"repro.dist"``) and :func:`print_point_progress` (one stderr line per
point, used by the CLI's ``run-spec --progress``).
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass
from typing import Callable, Optional, TextIO

__all__ = [
    "PointProgress",
    "ProgressCallback",
    "log_point_progress",
    "print_point_progress",
]

logger = logging.getLogger("repro.dist")


@dataclass(frozen=True)
class PointProgress:
    """One completed grid point.

    Attributes
    ----------
    index:
        Row-major grid index of the point.
    total:
        Total number of points in the full grid (not just this shard).
    label:
        The point's baked run label.
    elapsed_seconds:
        Wall-clock spent executing the point (as measured where it ran —
        inside the worker process for parallel runs).  ``0.0`` for points
        a resume skipped.
    source:
        ``"run"`` for freshly executed points, ``"stream"`` for points
        skipped because a resume found them durably recorded in the stream
        directory (:class:`~repro.dist.sink.StreamingResultSink`), and
        ``"quarantined"`` for points the resilience layer gave up on after
        exhausting their retry budget (the sweep continues without them).
    attempt:
        Which execution attempt produced this event (1 = first try; > 1
        means the resilience layer retried the point after failures).
    """

    index: int
    total: int
    label: str
    elapsed_seconds: float
    source: str = "run"
    attempt: int = 1


#: Signature of a progress consumer.
ProgressCallback = Callable[[PointProgress], None]


def _format(progress: PointProgress) -> str:
    if progress.source == "quarantined":
        return (
            f"point {progress.index + 1}/{progress.total} {progress.label} "
            f"quarantined after {progress.attempt} failed attempt(s)"
        )
    origin = " (stream)" if progress.source == "stream" else ""
    retried = f" (attempt {progress.attempt})" if progress.attempt > 1 else ""
    return (
        f"point {progress.index + 1}/{progress.total} {progress.label} "
        f"done in {progress.elapsed_seconds:.3f}s{origin}{retried}"
    )


def log_point_progress(progress: PointProgress) -> None:
    """Emit one INFO line per completed point on the ``repro.dist`` logger."""
    logger.info("%s", _format(progress))


def print_point_progress(
    progress: PointProgress, stream: Optional[TextIO] = None
) -> None:
    """Print one line per completed point (stderr by default)."""
    print(_format(progress), file=stream if stream is not None else sys.stderr)
