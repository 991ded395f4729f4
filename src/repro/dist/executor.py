"""Parallel execution of scenario sweeps over worker processes.

:class:`ParallelScenarioExecutor` fans the grid points of one
:class:`~repro.spec.ScenarioSpec` out over a process pool.  Nothing
unpicklable crosses the process boundary: each task is the point's index,
axis values, baked label, its **resolved single-point spec** (a frozen
dataclass, validated once by the parent), and its dispatch count; the
worker rebuilds the graph, protocol, and failure model from the spec
through the registries and returns the point as a JSON-safe payload
(:func:`~repro.dist.sink.point_run_to_payload`).  Because the seeding
discipline keys every random stream off the master seed and the point's
label — never off execution order, worker identity, or *how many times the
point had to be attempted* — a point produces bit-identical results no
matter which process runs it (or re-runs it), which makes the merged
:class:`~repro.spec.ScenarioRun` **bit-identical to the serial**
``run_spec`` result (asserted down to per-round history in
``tests/test_dist.py``, and under injected faults in
``tests/test_faultinject.py``).

Tasks are dispatched **graph-first**: points that materialise the same graph
(equal ``ExperimentRunner.graph_cache_key``) are grouped so one worker's
per-process graph cache serves every sibling point it receives — instead of
every worker rebuilding identical graphs.  Groups larger than
``ceil(points / workers)`` are split so a single-graph sweep still uses the
whole pool (the graph is then built at most once per worker, never once per
point).  ``run.provenance["graph_builds"]`` records how many graphs the
pool actually constructed next to ``"graphs_distinct"`` (equal when priming
was perfect).

The executor is **fault-tolerant** (see :mod:`repro.dist.resilience`):

* a point that raises yields a structured failure record, not a dead sweep
  — the worker isolates exceptions per point;
* failed points retry with bounded deterministic backoff
  (:class:`RetryPolicy`), and are **quarantined** after exhausting the
  budget: the sweep completes, and the quarantined points appear in
  ``run.provenance["failures"]``;
* per-point wall-clock budgets (``RetryPolicy.timeout_seconds``) catch
  stalled workers: the pool is restarted and the overdue points retried;
* a dead worker (crash, OOM kill) breaks the pool; the executor restarts it
  and resubmits every in-flight point without charging their retry budgets;
* when the pool keeps dying (``max_pool_restarts`` exceeded) the executor
  degrades gracefully to in-process serial execution of the remaining
  points;
* SIGINT/SIGTERM trigger a clean shutdown: ready results are flushed to
  the stream directory, the pool is terminated, and
  :class:`SweepInterrupted` reports how to resume.

With ``stream_dir`` set, every completed point is **streamed** to a
crash-safe on-disk sink (:class:`~repro.dist.sink.StreamingResultSink`) —
the one durable store a sweep has: records are appended as checksummed,
fsync'd segment entries instead of being held in memory, a ``kill -9`` at
any byte offset resumes from exactly what reached the disk, and the final
run is materialised by a k-way streaming merge.  Sharded runs
(:func:`~repro.dist.partition.select_indices`) execute a deterministic
subset of the grid and tag their segments; :func:`merge_runs` reassembles
in-memory shard outputs, and an unsharded resume over a shared stream
directory reassembles streamed ones.  Deterministic fault injection for
all of the above lives in :mod:`repro.faultinject`
(``run_spec(fault_plan=...)``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.errors import ConfigurationError
from ..faultinject.plan import FaultInjector, FaultPlan
from ..spec.run import PointRun, ScenarioRun
from ..spec.scenario import ScenarioSpec
from .durability import PathLike
from .partition import ExpandedPoint, ShardLike, expand_points, parse_shard, select_indices
from .progress import PointProgress, ProgressCallback
from .sink import StreamingResultSink, point_run_from_payload, point_run_to_payload
from .resilience import (
    PointFailure,
    RetryPolicy,
    SweepInterrupted,
    WorkerPoolError,
    backoff_delay,
    record_failure_event,
)

__all__ = ["ParallelScenarioExecutor", "merge_runs"]


#: Wire format of one *queued* task: (index, values, label, single-point
#: spec).  The spec travels as the frozen dataclass the parent validated in
#: ``expand_points``; pickle restores it without re-running its validation,
#: and workers only ever unpickle tasks this process wrote.  At submit time
#: a 1-based dispatch count is appended (the fault-injection hook and
#: failure records key off it).
_Task = Tuple[int, Dict[str, object], str, ScenarioSpec]

#: Tasks are dispatched to the pool in *graph groups*: every task in a group
#: materialises the same graph (equal ``ExperimentRunner.graph_cache_key``),
#: so the worker that receives the group builds that graph exactly once and
#: serves all of its points from the cache.  Without the grouping, sibling
#: points of one graph land on arbitrary workers and each of them rebuilds
#: an identical graph.
_TaskGroup = List[_Task]

#: Per-worker-process runner and fault injector, created once by the pool
#: initializer so graph caches (and injector point counters) persist across
#: the tasks a worker executes.
_WORKER_RUNNER = None
_WORKER_INJECTOR: Optional[FaultInjector] = None

#: Upper bound on one event-loop wait, so interrupts and backoff promotions
#: are noticed promptly even while every worker is busy.
_POLL_SECONDS = 0.2


def _init_worker(fault_plan_dict: Optional[Dict[str, object]] = None) -> None:
    global _WORKER_RUNNER, _WORKER_INJECTOR
    from ..experiments.runner import ExperimentRunner

    _WORKER_RUNNER = ExperimentRunner()
    _WORKER_INJECTOR = (
        FaultInjector(fault_plan_dict, mode="worker")
        if fault_plan_dict is not None
        else None
    )


def _execute_task(
    runner, task, injector: Optional[FaultInjector] = None
) -> Dict[str, object]:
    """Run one grid point and return its wire payload."""
    index, values, label, spec, dispatch = task
    started = time.perf_counter()
    if injector is not None:
        injector.before_point(index, dispatch)
    point_run = runner.run_point(
        ExpandedPoint(index=index, values=values, label=label, spec=spec)
    )
    return point_run_to_payload(point_run, time.perf_counter() - started)


def _run_group_in_worker(group: List[tuple]) -> Dict[str, object]:
    """Run one graph group; report payloads, per-point failures, and builds.

    Exceptions are isolated **per point**: a failing point becomes a
    structured failure record and its siblings still execute, so one bad
    grid point can never take a whole batch (or the sweep) down with it.
    """
    builds_before = _WORKER_RUNNER.graph_builds
    payloads: List[Dict[str, object]] = []
    failures: List[Dict[str, object]] = []
    for task in group:
        try:
            payloads.append(_execute_task(_WORKER_RUNNER, task, _WORKER_INJECTOR))
        except Exception as error:  # noqa: BLE001 - the isolation boundary
            failures.append(
                {
                    "index": int(task[0]),
                    "label": str(task[2]),
                    "error_type": type(error).__name__,
                    "message": str(error),
                }
            )
    return {
        "payloads": payloads,
        "failures": failures,
        "graph_builds": _WORKER_RUNNER.graph_builds - builds_before,
    }


def _group_by_graph(
    pending: List[ExpandedPoint], workers: int
) -> List[_TaskGroup]:
    """Expand the pending points graph-first: task groups of same-graph points.

    Group order follows first appearance in the (row-major) grid and tasks
    keep their grid order within a group; grouping only affects which
    *worker* a point lands on (and hence stream/progress completion
    order), never its seeds or results — points merge by grid index.  With
    one worker every point is its own group, preserving exact grid order.

    A group is capped at ``ceil(pending / workers)`` tasks so that a sweep
    whose points all share one graph (e.g. protocol or failure-rate axes
    over a fixed graph) still spreads across the whole pool: the graph is
    then built once per *worker that receives a chunk* — at most ``workers``
    times — instead of once per point, and never at the price of
    serialising the sweep onto a single process.
    """
    from ..experiments.runner import ExperimentRunner

    if workers <= 1:
        return [[(p.index, p.values, p.label, p.spec)] for p in pending]
    groups: Dict[tuple, List[_TaskGroup]] = {}
    order: List[tuple] = []
    cap = -(-len(pending) // workers)  # ceil division
    for point in pending:
        key = ExperimentRunner.graph_cache_key(point.spec.graph)
        if key not in groups:
            groups[key] = [[]]
            order.append(key)
        chunks = groups[key]
        if len(chunks[-1]) >= cap:
            chunks.append([])
        chunks[-1].append((point.index, point.values, point.label, point.spec))
    return [chunk for key in order for chunk in groups[key]]


def _hard_shutdown(executor) -> None:
    """Tear a (possibly broken or stalled) process pool down without waiting.

    ``shutdown(wait=False)`` alone leaves a stalled worker burning CPU on
    its current task, so the worker processes are terminated explicitly;
    the private ``_processes`` attribute is stable across supported CPython
    versions and guarded anyway.
    """
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    # lint: disable=EXC001 -- best-effort teardown of a pool already known to
    # be broken/stalled; the caller restarts or degrades regardless
    except Exception:  # pragma: no cover - defensive
        pass
    processes = getattr(executor, "_processes", None)
    for process in list((processes or {}).values()):
        try:
            process.terminate()
        # lint: disable=EXC001 -- the worker may already be dead; either way
        # the next join/restart step handles it
        except Exception:  # pragma: no cover - already dead
            continue
    for process in list((processes or {}).values()):
        try:
            process.join(timeout=1.0)
        # lint: disable=EXC001 -- best-effort reaping during hard shutdown;
        # an unjoinable process is abandoned to the OS by design
        except Exception:  # pragma: no cover - defensive
            continue


@dataclass
class _RunState:
    """Mutable bookkeeping shared by the execution paths of one sweep."""

    total: int = 0  # full grid size (progress denominators)
    total_selected: int = 0  # points selected for this run
    completed: int = 0  # resumed + freshly completed points
    graph_builds: int = 0
    retries_total: int = 0  # failed attempts that were retried
    pool_restarts: int = 0
    serial_fallback: bool = False
    failure_counts: Dict[int, int] = field(default_factory=dict)
    dispatch_counts: Dict[int, int] = field(default_factory=dict)
    errors: Dict[int, List[Dict[str, object]]] = field(default_factory=dict)
    quarantined: Dict[int, PointFailure] = field(default_factory=dict)

    def next_dispatch(self, index: int) -> int:
        self.dispatch_counts[index] = self.dispatch_counts.get(index, 0) + 1
        return self.dispatch_counts[index]


@dataclass
class ParallelScenarioExecutor:
    """Shard a scenario grid across worker processes and merge the results.

    Parameters
    ----------
    workers:
        Worker process count.  ``1`` executes in-process (no pool) but still
        routes every point through the serialised wire format, so the output
        is byte-for-byte what a multi-process run produces.
    stream_dir:
        When set, every completed point is appended to a crash-safe
        streaming sink there (:class:`~repro.dist.sink.StreamingResultSink`)
        instead of being held in memory while the sweep runs: records are
        checksummed, fsync'd on the ``fsync_every`` cadence, and recovered
        — torn tails quarantined — on resume, so a ``kill -9`` at any byte
        offset costs at most the records inside the durability window.
        The returned run is materialised from the sink by a streaming
        merge; sharded runs tag their segments so one collection directory
        can serve every shard, and an unsharded resume reassembles them.
    fsync_every:
        Sink fsync cadence (default 1: every record durable before the
        sweep proceeds).  Ignored without ``stream_dir``.
    stream_durable:
        ``False`` disables the sink's fsync calls entirely (tests,
        throwaway sweeps on tmpfs).  Ignored without ``stream_dir``.
    resume:
        Skip points that are already durable in the stream directory
        (requires ``stream_dir``), including every shard's records when
        the run itself is unsharded.  The scenario fingerprint is
        verified, so a directory from a different spec fails loudly.
    progress:
        Optional per-point callback (see :mod:`repro.dist.progress`).
    mp_context:
        :func:`multiprocessing.get_context` method name (``"fork"``,
        ``"spawn"``, ...); ``None`` uses the platform default.
    retry:
        Recovery semantics (:class:`~repro.dist.resilience.RetryPolicy`):
        per-point retry budget and backoff, per-point timeout, pool-restart
        budget, serial fallback.  The defaults tolerate transient faults
        without changing the failure-free hot path.
    fault_plan:
        Deterministic fault injection (:class:`repro.faultinject.FaultPlan`)
        — test machinery; ``None`` (the default) injects nothing.
    """

    workers: int = 1
    stream_dir: Optional[PathLike] = None
    fsync_every: int = 1
    stream_durable: bool = True
    resume: bool = False
    progress: Optional[ProgressCallback] = None
    mp_context: Optional[str] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigurationError(
                f"workers must be a positive int, got {self.workers!r}"
            )
        if self.resume and self.stream_dir is None:
            raise ConfigurationError(
                "resume=True requires a stream directory (stream_dir): "
                "resuming reads the durable records of the earlier run"
            )
        self._interrupt_requested = False

    def run(
        self,
        spec: ScenarioSpec,
        shard: Optional[ShardLike] = None,
        points: Optional[Union[slice, Iterable[int]]] = None,
    ) -> ScenarioRun:
        """Execute (the selected slice of) ``spec`` and merge the results.

        Returns a :class:`ScenarioRun` whose points are in grid order
        regardless of completion order; ``run.provenance`` records the
        worker count, shard layout, resume statistics, wall-clock, and the
        recovery ledger (retries, pool restarts, quarantined points under
        ``"failures"``).  Raises :class:`SweepInterrupted` on SIGINT /
        SIGTERM after flushing completed points to the stream directory.
        """
        started = time.perf_counter()
        all_points = expand_points(spec)
        total = len(all_points)
        indices = select_indices(total, shard=shard, points=points)
        selected = [all_points[i] for i in indices]

        parent_injector = (
            FaultInjector(self.fault_plan, mode="inline")
            if self.fault_plan is not None
            else None
        )

        sink: Optional[StreamingResultSink] = None
        if self.stream_dir is not None:
            tag = ""
            if shard is not None:
                shard_index, shard_count = parse_shard(shard)
                tag = f"{shard_index}of{shard_count}"
            sink = StreamingResultSink(
                self.stream_dir,
                spec,
                fsync_every=self.fsync_every,
                durable=self.stream_durable,
                tag=tag,
                resume=self.resume,
                append_hook=(
                    parent_injector.sink_append_fault if parent_injector else None
                ),
                fsync_hook=(
                    parent_injector.sink_fsync_fault if parent_injector else None
                ),
            )

        state = _RunState(total=total, total_selected=len(selected))
        point_runs: Dict[int, PointRun] = {}
        streamed = sink.recovered_indices if sink is not None else frozenset()
        pending = [p for p in selected if p.index not in streamed]
        resumed = len(selected) - len(pending)
        state.completed = resumed
        for point in selected:
            if point.index in streamed:
                self._emit(point.index, total, point.label, 0.0, source="stream")

        from ..experiments.runner import ExperimentRunner

        graphs_distinct = len(
            {ExperimentRunner.graph_cache_key(p.spec.graph) for p in pending}
        )
        groups = _group_by_graph(pending, self.workers)

        def handle_payload(payload: Dict[str, object]) -> None:
            index = int(payload["index"])
            if sink is not None:
                segment, start, end = sink.append(payload)
                if parent_injector is not None:
                    if parent_injector.tear_stream(index, segment, start, end):
                        # The record just written is now torn on disk.  The
                        # sink stops accepting appends (as if the process had
                        # died mid-write) and the sweep shuts down, so resume
                        # exercises genuine torn-tail recovery.
                        sink.freeze()
                        self._interrupt_requested = True
                    if parent_injector.kill_after_records(sink.records_appended):
                        os.kill(os.getpid(), signal.SIGKILL)
            else:
                point_runs[index] = point_run_from_payload(payload)
            state.completed += 1
            self._emit(
                index,
                total,
                payload["label"],
                float(payload["elapsed_seconds"]),
                attempt=state.failure_counts.get(index, 0) + 1,
            )
            if parent_injector is not None and parent_injector.wants_interrupt(index):
                self._interrupt_requested = True

        self._interrupt_requested = False
        previous_handlers = self._install_signal_handlers()
        try:
            if groups:
                if self.workers == 1:
                    self._run_inline(groups, state, handle_payload)
                else:
                    self._run_pool(groups, state, handle_payload)
        except BaseException:
            # Whatever stopped the sweep, fsync what was appended and release
            # the segment handle; the original exception still propagates.
            if sink is not None:
                sink.close(strict=False)
            raise
        finally:
            self._restore_signal_handlers(previous_handlers)

        if sink is not None:
            sink.close()
            selected_set = {p.index for p in selected}
            point_runs = {}
            for payload in sink.iter_merged():
                index = int(payload["index"])
                if index in selected_set:
                    point_runs[index] = point_run_from_payload(payload)
        run = ScenarioRun(
            spec=spec,
            points=[point_runs[index] for index in sorted(point_runs)],
        )
        run.provenance = {
            "workers": self.workers,
            "shard": list(parse_shard(shard)) if shard is not None else None,
            "points_total": total,
            "points_selected": len(selected),
            "points_run": len(pending) - len(state.quarantined),
            "points_resumed": resumed,
            "points_quarantined": len(state.quarantined),
            # Distinct graphs among the executed points vs. graphs actually
            # constructed across the pool: equal means the graph-first
            # grouping primed every worker cache perfectly (no sibling
            # rebuilt a graph another worker already built); builds may
            # exceed it when a large same-graph group was split across
            # workers to keep the pool busy, or when retries and pool
            # restarts rebuilt caches.
            "graphs_distinct": graphs_distinct,
            "graph_builds": state.graph_builds,
            # Recovery ledger: how hard the sweep had to fight to complete.
            "retries": state.retries_total,
            "pool_restarts": state.pool_restarts,
            "serial_fallback": state.serial_fallback,
            "failures": [
                state.quarantined[index].to_dict()
                for index in sorted(state.quarantined)
            ],
            "fault_plan": (
                self.fault_plan.to_dict() if self.fault_plan is not None else None
            ),
            "wall_clock_seconds": round(time.perf_counter() - started, 6),
            "stream": sink.stats() if sink is not None else None,
        }
        return run

    # -- internals --------------------------------------------------------------

    def _emit(
        self,
        index: int,
        total: int,
        label: str,
        elapsed: float,
        source: str = "run",
        attempt: int = 1,
    ) -> None:
        if self.progress is not None:
            self.progress(
                PointProgress(
                    index=index,
                    total=total,
                    label=label,
                    elapsed_seconds=elapsed,
                    source=source,
                    attempt=attempt,
                )
            )

    def _install_signal_handlers(self):
        """Route SIGINT/SIGTERM to the clean-shutdown flag (main thread only)."""
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}

        def request_interrupt(signum, frame):  # noqa: ARG001 - signal signature
            self._interrupt_requested = True

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, request_interrupt)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                continue
        return previous

    def _restore_signal_handlers(self, previous) -> None:
        if not previous:
            return
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover - defensive
                continue

    def _interrupted(self, state: _RunState) -> SweepInterrupted:
        return SweepInterrupted(
            completed=state.completed,
            total=state.total_selected,
            stream_dir=(
                str(self.stream_dir) if self.stream_dir is not None else None
            ),
        )

    def _record_failure(
        self,
        state: _RunState,
        index: int,
        label: str,
        error_type: str,
        message: str,
    ) -> bool:
        """Log one failed attempt; return True if the point is now quarantined."""
        attempt = state.failure_counts.get(index, 0) + 1
        state.failure_counts[index] = attempt
        record_failure_event(state.errors, index, attempt, error_type, message)
        if attempt >= self.retry.max_attempts:
            state.quarantined[index] = PointFailure(
                index=index,
                label=label,
                attempts=attempt,
                error_type=error_type,
                message=message,
                errors=tuple(state.errors[index]),
            )
            self._emit(
                index, state.total, label, 0.0, source="quarantined", attempt=attempt
            )
            return True
        state.retries_total += 1
        return False

    # -- in-process path ---------------------------------------------------------

    def _run_inline(
        self, groups: Sequence[_TaskGroup], state: _RunState, handle_payload
    ) -> None:
        """Serial execution with the same recovery semantics as the pool.

        Used for ``workers=1`` and as the graceful-degradation fallback when
        the pool keeps dying.  Kill/stall fault rules are skipped here (the
        injector runs in ``"inline"`` mode — there is no worker process to
        lose), and per-point timeouts cannot preempt an in-process point.
        """
        from ..experiments.runner import ExperimentRunner

        runner = ExperimentRunner()
        injector = (
            FaultInjector(self.fault_plan, mode="inline")
            if self.fault_plan is not None
            else None
        )
        queue: Deque[_Task] = deque(task for group in groups for task in group)
        while queue:
            if self._interrupt_requested:
                raise self._interrupted(state)
            task = queue.popleft()
            index, _, label, _ = task
            dispatch = state.next_dispatch(index)
            builds_before = runner.graph_builds
            try:
                payload = _execute_task(runner, (*task, dispatch), injector)
            except Exception as error:  # noqa: BLE001 - the isolation boundary
                state.graph_builds += runner.graph_builds - builds_before
                if not self._record_failure(
                    state, index, label, type(error).__name__, str(error)
                ):
                    time.sleep(
                        backoff_delay(self.retry, state.failure_counts[index])
                    )
                    queue.appendleft(task)
                continue
            state.graph_builds += runner.graph_builds - builds_before
            handle_payload(payload)
        if self._interrupt_requested:
            # The signal landed while the final point was executing; report
            # the interruption even though nothing was left to cancel.
            raise self._interrupted(state)

    # -- pool path ---------------------------------------------------------------

    def _new_pool(self, context, size: int):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=size,
            mp_context=context,
            initializer=_init_worker,
            initargs=(
                self.fault_plan.to_dict() if self.fault_plan is not None else None,
            ),
        )

    def _run_pool(
        self, groups: Sequence[_TaskGroup], state: _RunState, handle_payload
    ) -> None:
        """The resilient event loop: submit, collect, retry, restart, degrade."""
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

        context = multiprocessing.get_context(self.mp_context)
        pool_size = min(self.workers, max(1, len(groups)))
        executor = self._new_pool(context, pool_size)
        pending: Deque[_TaskGroup] = deque(groups)
        delayed: List[Tuple[float, _TaskGroup]] = []  # (ready_at, group)
        in_flight: Dict[object, Tuple[_TaskGroup, Optional[float]]] = {}

        def remaining_groups() -> List[_TaskGroup]:
            groups_left = [group for group, _ in in_flight.values()]
            groups_left.extend(pending)
            groups_left.extend(group for _, group in delayed)
            in_flight.clear()
            pending.clear()
            delayed.clear()
            return groups_left

        def restart_pool() -> bool:
            """Tear the pool down and build a fresh one; False = budget spent."""
            nonlocal executor
            state.pool_restarts += 1
            _hard_shutdown(executor)
            if state.pool_restarts > self.retry.max_pool_restarts:
                return False
            executor = self._new_pool(context, pool_size)
            return True

        def fall_back_serial() -> None:
            state.serial_fallback = True
            self._run_inline(remaining_groups(), state, handle_payload)

        def schedule_retry(task: _Task) -> None:
            delay = backoff_delay(self.retry, state.failure_counts[task[0]])
            delayed.append((time.monotonic() + delay, [task]))

        def collect(future, group: _TaskGroup) -> bool:
            """Process one finished future; returns True if the pool broke."""
            try:
                result = future.result()
            except BrokenExecutor:
                pending.appendleft(group)  # resubmission, not a retry
                return True
            except Exception as error:  # noqa: BLE001 - pool infrastructure
                # The whole batch failed outside the per-point isolation
                # boundary (e.g. result transport): charge every point one
                # attempt and retry the survivors individually.
                for task in group:
                    if not self._record_failure(
                        state, task[0], task[2], type(error).__name__, str(error)
                    ):
                        schedule_retry(task)
                return False
            state.graph_builds += int(result["graph_builds"])
            for payload in result["payloads"]:
                handle_payload(payload)
            for failure in result["failures"]:
                index = int(failure["index"])
                if not self._record_failure(
                    state,
                    index,
                    str(failure["label"]),
                    str(failure["error_type"]),
                    str(failure["message"]),
                ):
                    task = next(t for t in group if t[0] == index)
                    schedule_retry(task)
            return False

        try:
            while pending or delayed or in_flight:
                if self._interrupt_requested:
                    # Flush whatever already finished so completed points
                    # reach the stream directory before the pool dies.
                    for future in [f for f in list(in_flight) if f.done()]:
                        group, _ = in_flight.pop(future)
                        collect(future, group)
                    raise self._interrupted(state)

                now = time.monotonic()
                if delayed:  # promote retries whose backoff elapsed
                    ready = [group for at, group in delayed if at <= now]
                    if ready:
                        delayed = [(at, g) for at, g in delayed if at > now]
                        pending.extend(ready)

                broken = False
                while pending and len(in_flight) < pool_size:
                    group = pending.popleft()
                    stamped = [
                        (*task, state.next_dispatch(task[0])) for task in group
                    ]
                    try:
                        future = executor.submit(_run_group_in_worker, stamped)
                    except (BrokenExecutor, RuntimeError):
                        pending.appendleft(group)
                        broken = True
                        break
                    deadline = (
                        time.monotonic()
                        + self.retry.timeout_seconds * len(group)
                        if self.retry.timeout_seconds is not None
                        else None
                    )
                    # In-flight never exceeds the worker count, so every
                    # submitted group starts immediately and its deadline
                    # measures actual execution time.
                    in_flight[future] = (group, deadline)

                if not broken:
                    if not in_flight:
                        if delayed:  # only backoff waits remain
                            wake = min(at for at, _ in delayed) - time.monotonic()
                            time.sleep(max(0.0, min(wake, _POLL_SECONDS)))
                        continue
                    wait_timeout = _POLL_SECONDS
                    now = time.monotonic()
                    for _, deadline in in_flight.values():
                        if deadline is not None:
                            wait_timeout = min(
                                wait_timeout, max(0.0, deadline - now)
                            )
                    done, _ = wait(
                        list(in_flight),
                        timeout=wait_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        group, _ = in_flight.pop(future)
                        broken = collect(future, group) or broken

                if broken:
                    # A worker died abruptly: every in-flight batch is lost.
                    # Resubmit them all without touching their retry budgets
                    # — the victim cannot be attributed, and innocents must
                    # not drift toward quarantine.
                    for group, _ in in_flight.values():
                        pending.appendleft(group)
                    in_flight.clear()
                    if not restart_pool():
                        if not self.retry.serial_fallback:
                            raise WorkerPoolError(
                                f"worker pool died {state.pool_restarts} times "
                                f"(budget {self.retry.max_pool_restarts}) and "
                                "serial fallback is disabled"
                            )
                        fall_back_serial()
                        return
                    continue

                now = time.monotonic()
                stalled = [
                    future
                    for future, (_, deadline) in in_flight.items()
                    if deadline is not None and now >= deadline
                ]
                if stalled:
                    # A pool cannot cancel one running task, so a stall costs
                    # a pool restart: the overdue points are charged one
                    # failed attempt, everything else in flight resubmits
                    # penalty-free.
                    for future in stalled:
                        group, _ = in_flight.pop(future)
                        for task in group:
                            if not self._record_failure(
                                state,
                                task[0],
                                task[2],
                                "PointTimeout",
                                "exceeded the per-point wall-clock budget of "
                                f"{self.retry.timeout_seconds}s",
                            ):
                                schedule_retry(task)
                    for group, _ in in_flight.values():
                        pending.appendleft(group)
                    in_flight.clear()
                    if not restart_pool():
                        if not self.retry.serial_fallback:
                            raise WorkerPoolError(
                                f"worker pool was restarted {state.pool_restarts} "
                                f"times (budget {self.retry.max_pool_restarts}) "
                                "and serial fallback is disabled"
                            )
                        fall_back_serial()
                        return
            if self._interrupt_requested:
                # The signal landed while the final results were draining;
                # everything already flushed, but the interruption is real.
                raise self._interrupted(state)
        finally:
            _hard_shutdown(executor)


def merge_runs(runs: Sequence[ScenarioRun]) -> ScenarioRun:
    """Reassemble shard outputs into the one full-grid :class:`ScenarioRun`.

    All runs must come from the *same* scenario; together they must cover
    every grid point exactly once (the partition invariant) — except points
    a shard explicitly **quarantined** (``provenance["failures"]``), which
    are carried over into the merged provenance instead of failing the
    merge.  The merged result is independent of the order the shards are
    given in — points are keyed by grid index — and bit-identical to a
    serial ``run_spec``.
    """
    if not runs:
        raise ConfigurationError("merge_runs needs at least one ScenarioRun")
    spec = runs[0].spec
    reference = spec.to_dict()
    for run in runs[1:]:
        if run.spec.to_dict() != reference:
            raise ConfigurationError(
                "cannot merge runs of different scenarios "
                f"({run.spec.name!r} vs {spec.name!r})"
            )
    merged: Dict[int, PointRun] = {}
    for run in runs:
        for point in run.points:
            if point.index in merged:
                raise ConfigurationError(
                    f"grid point {point.index} appears in more than one shard; "
                    "shards must be disjoint"
                )
            merged[point.index] = point
    failures: Dict[int, Dict[str, object]] = {}
    for run in runs:
        for failure in (run.provenance or {}).get("failures") or []:
            index = int(failure["index"])
            if index in failures:
                raise ConfigurationError(
                    f"grid point {index} was quarantined by more than one "
                    "shard; shards must be disjoint — the same directory or "
                    "shard spec was probably run twice"
                )
            if index in merged:
                raise ConfigurationError(
                    f"grid point {index} completed in one shard but was "
                    "quarantined in another; overlapping shards executed the "
                    "same point with different outcomes — re-run with "
                    "disjoint shards instead of silently preferring either"
                )
            failures[index] = dict(failure)
    expected = spec.sweep.size if spec.sweep is not None else 1
    missing = sorted(set(range(expected)) - set(merged) - set(failures))
    if missing:
        raise ConfigurationError(
            "merged shards do not cover the full grid; missing point "
            f"index(es) {missing[:10]}{'...' if len(missing) > 10 else ''} "
            f"of {expected}"
        )
    result = ScenarioRun(
        spec=spec, points=[merged[index] for index in sorted(merged)]
    )
    shards = [run.provenance for run in runs if run.provenance]
    result.provenance = {
        "merged_from": len(runs),
        "workers": max(
            (int(p.get("workers", 1)) for p in shards), default=1
        ),
        "shards": [p.get("shard") for p in shards] or None,
        "points_total": expected,
        "failures": [failures[index] for index in sorted(failures)],
        "wall_clock_seconds": round(
            sum(float(p.get("wall_clock_seconds", 0.0)) for p in shards), 6
        ),
    }
    return result
