"""Distributed execution of scenario sweeps.

``repro.dist`` scales :func:`repro.spec.run_spec` horizontally: it splits a
scenario's row-major sweep grid into deterministic shards
(:mod:`~repro.dist.partition`), fans the points out over worker processes
(:class:`~repro.dist.executor.ParallelScenarioExecutor`), and merges worker
outputs back into one :class:`~repro.spec.ScenarioRun` that is
**bit-identical** to the serial run — the label-keyed seed derivation makes
every point's randomness independent of where (and in which order) it
executes.

The executor is fault-tolerant (:mod:`~repro.dist.resilience`): failing
points are isolated, retried with deterministic backoff, and quarantined
after exhausting their budget; dead workers are detected and their in-flight
points resubmitted; per-point wall-clock budgets catch stalls; a pool that
keeps dying degrades gracefully to in-process serial execution; and
SIGINT/SIGTERM shut the sweep down cleanly into a resumable stream
directory (:class:`SweepInterrupted`).  Deterministic fault injection for
all of it lives in :mod:`repro.faultinject`.

The one durable store is the **streaming result sink**
(:mod:`~repro.dist.sink`): it appends every completed point to checksummed,
fsync'd segment files behind a write-ahead manifest.  A sweep killed with
``kill -9`` at any byte offset resumes from exactly what reached the disk
(torn tails are quarantined, never guessed at); shards streaming into one
directory are reassembled by a single unsharded resume; and the merged
table is produced by a k-way streaming merge in O(segments) memory
(:func:`merge_streams`, :func:`streamed_table`).  ``ENOSPC`` degrades
gracefully into a resumable :class:`SinkFullError`.

The usual entry point is ``run_spec(spec, workers=N, ...)``; this package is
the machinery behind it, exposed for callers that need shard-level control
(e.g. running one shard per host and merging with :func:`merge_runs`).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .executor import ParallelScenarioExecutor, merge_runs
    from .resilience import (
        PointFailure,
        RetryPolicy,
        SweepInterrupted,
        WorkerPoolError,
        backoff_delay,
    )
    from .partition import (
        ExpandedPoint,
        expand_points,
        parse_shard,
        select_indices,
        shard_indices,
    )
    from .progress import (
        PointProgress,
        ProgressCallback,
        log_point_progress,
        print_point_progress,
    )
    from .sink import (
        SINK_SCHEMA,
        SinkError,
        SinkFullError,
        SinkWriteError,
        StreamingResultSink,
        merge_streams,
        point_run_from_payload,
        spec_fingerprint,
        stream_payloads,
        streamed_table,
    )

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "spec_fingerprint",
    "ParallelScenarioExecutor",
    "merge_runs",
    "RetryPolicy",
    "PointFailure",
    "SweepInterrupted",
    "WorkerPoolError",
    "backoff_delay",
    "ExpandedPoint",
    "expand_points",
    "parse_shard",
    "select_indices",
    "shard_indices",
    "PointProgress",
    "ProgressCallback",
    "log_point_progress",
    "print_point_progress",
    "SINK_SCHEMA",
    "SinkError",
    "SinkFullError",
    "SinkWriteError",
    "StreamingResultSink",
    "merge_streams",
    "point_run_from_payload",
    "stream_payloads",
    "streamed_table",
]
