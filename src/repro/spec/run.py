"""Executing scenario specs.

:func:`run_spec` is the one-call entry point: it dispatches every grid point
through :meth:`ExperimentRunner.run_scenario` (or the parallel executor),
which routes into ``repeat_broadcast`` / ``run_broadcast_batch``.  Each
point's graph seed, run seeds, repetitions, engine and batch knob come from
the point spec alone, so a spec reproduces its results bit-for-bit on any
path.

The result is a :class:`ScenarioRun`: one :class:`PointRun` per grid point
with the fully-resolved single-point spec (also recorded in every
``RunResult.metadata["spec"]``), the per-seed results, and helpers to
summarise everything as a :class:`Table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union

from ..core.metrics import RunAggregate, RunResult, aggregate_runs
from .scenario import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiments use specs)
    from ..dist.durability import PathLike
    from ..dist.partition import ShardLike
    from ..dist.progress import ProgressCallback
    from ..dist.resilience import RetryPolicy
    from ..experiments.tables import Table
    from ..faultinject.plan import FaultPlan

__all__ = ["PointRun", "ScenarioRun", "build_scenario_table", "run_spec"]


@dataclass
class PointRun:
    """Results of one grid point of a scenario.

    Attributes
    ----------
    index:
        Position of the point in row-major grid order.
    values:
        Axis key -> value for this point (empty for sweep-less scenarios).
    label:
        The formatted run label (feeds the run-seed derivation).
    spec:
        The fully-resolved single-point :class:`ScenarioSpec` that reproduces
        exactly this point's results.
    results:
        One :class:`RunResult` per repetition.
    """

    index: int
    values: Dict[str, object]
    label: str
    spec: ScenarioSpec
    results: List[RunResult] = field(default_factory=list)

    @property
    def aggregate(self) -> RunAggregate:
        """Summary statistics across the point's repetitions."""
        return aggregate_runs(self.results)


@dataclass
class ScenarioRun:
    """All grid points of one executed scenario.

    ``provenance`` is populated by the distributed executor (worker count,
    shard layout, resume statistics, wall-clock); it stays empty for plain
    serial runs, and :meth:`to_table` copies it into
    ``Table.metadata["distributed"]`` so saved tables record how they were
    produced.  Provenance never feeds any computation — the point results
    of a distributed run are bit-identical to the serial ones.
    """

    spec: ScenarioSpec
    points: List[PointRun] = field(default_factory=list)
    provenance: Dict[str, object] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def results(self) -> List[RunResult]:
        """Every run result across all points, in grid order."""
        return [result for point in self.points for result in point.results]

    def to_table(self) -> "Table":
        """A generic summary table: one row per grid point."""
        return build_scenario_table(self.spec, self.points, self.provenance)


def build_scenario_table(
    spec: ScenarioSpec,
    points: Iterable[PointRun],
    provenance: Optional[Dict[str, object]] = None,
) -> "Table":
    """One summary row per grid point, consuming ``points`` as a stream.

    This is the single table-construction path shared by
    :meth:`ScenarioRun.to_table` and the streaming sink's
    :func:`repro.dist.sink.streamed_table`: it touches each
    :class:`PointRun` exactly once and keeps none of them, so a table over
    a million-point stream costs one point's results at a time.  Identical
    inputs produce identical tables regardless of which path built them.
    """
    from ..experiments.tables import Table

    axis_keys = (
        [axis.label_key for axis in spec.sweep.axes]
        if spec.sweep is not None
        else []
    )
    table = Table(
        title=f"scenario: {spec.name}",
        columns=axis_keys
        + ["runs", "success_rate", "rounds_mean", "rounds_max", "tx_per_node"],
    )
    engines = set()
    for point in points:
        aggregate = point.aggregate
        table.add_row(
            **point.values,
            runs=aggregate.runs,
            success_rate=aggregate.success_rate,
            rounds_mean=aggregate.rounds.mean,
            rounds_max=aggregate.rounds.maximum,
            tx_per_node=aggregate.transmissions_per_node.mean,
        )
        engines.update(
            str(result.metadata.get("engine", "scalar"))
            for result in point.results
        )
    table.add_note(
        f"master seed {spec.master_seed}, "
        f"{spec.repetitions} repetition(s) per point, "
        f"engine: {', '.join(sorted(engines))}"
    )
    provenance = provenance or {}
    failures = provenance.get("failures") or []
    if failures:
        labels = ", ".join(str(f.get("label", f.get("index"))) for f in failures)
        table.add_note(
            f"{len(failures)} point(s) quarantined after repeated "
            f"failures and excluded from this table: {labels}"
        )
    table.metadata["spec"] = spec.to_dict()
    if provenance:
        table.metadata["distributed"] = dict(provenance)
    return table


def run_spec(
    spec: ScenarioSpec,
    *,
    workers: Optional[int] = None,
    shard: Optional["ShardLike"] = None,
    points: Optional[Union[slice, Iterable[int]]] = None,
    stream_dir: Optional["PathLike"] = None,
    fsync_every: int = 1,
    stream_durable: bool = True,
    resume: bool = False,
    progress: Optional["ProgressCallback"] = None,
    retry: Optional["RetryPolicy"] = None,
    fault_plan: Optional["FaultPlan"] = None,
) -> ScenarioRun:
    """Execute ``spec`` and return one :class:`PointRun` per grid point.

    Expands the sweep grid row-major (first axis outermost), materialises
    graphs/protocols/failure models through the registries, and runs every
    point's repetitions through the batched multi-seed engine whenever the
    vectorized-eligibility rules hold.  Seeds derive from
    ``spec.master_seed`` and each point's label
    (:meth:`ScenarioSpec.run_seeds`), so every execution path below returns
    bit-identical results.

    Distributed knobs (all optional; see :mod:`repro.dist`):

    * ``workers`` — fan the grid points out over that many worker processes;
      the merged result is bit-identical to the serial run.
    * ``shard`` — ``"i/k"`` (or ``(i, k)``): run only shard ``i`` of ``k``
      of the grid; merge shard runs with :func:`repro.dist.merge_runs`.
    * ``points`` — a :class:`slice` or collection of grid indices to run.
    * ``stream_dir`` / ``fsync_every`` / ``stream_durable`` — append every
      completed point to a crash-safe streaming sink
      (:class:`repro.dist.StreamingResultSink`) instead of holding results
      in memory: records are checksummed and fsync'd every ``fsync_every``
      appends, and ``ENOSPC`` raises a resumable
      :class:`repro.dist.SinkFullError`.  ``stream_durable=False`` skips
      fsyncs (tests, tmpfs).
    * ``resume`` — skip the points already durable in ``stream_dir`` (a
      ``kill -9`` resumes from exactly what reached the disk); an unsharded
      resume also adopts every shard that streamed into the directory.
    * ``progress`` — per-point completion callback
      (:class:`repro.dist.PointProgress`), honoured by both paths.
    * ``retry`` — recovery semantics (:class:`repro.dist.RetryPolicy`):
      per-point retry budget/backoff/timeout, quarantine, pool-restart
      budget, serial fallback.  Passing one routes the run through the
      resilient executor even without ``workers``.
    * ``fault_plan`` — deterministic fault injection
      (:class:`repro.faultinject.FaultPlan`); test machinery.
    """
    from ..experiments.runner import ExperimentRunner

    if (
        workers is None
        and shard is None
        and points is None
        and stream_dir is None
        and not resume
        and retry is None
        and fault_plan is None
    ):
        return ExperimentRunner().run_scenario(spec, progress=progress)

    from ..dist.executor import ParallelScenarioExecutor
    from ..dist.resilience import RetryPolicy

    executor = ParallelScenarioExecutor(
        workers=workers if workers is not None else 1,
        stream_dir=stream_dir,
        fsync_every=fsync_every,
        stream_durable=stream_durable,
        resume=resume,
        progress=progress,
        retry=retry if retry is not None else RetryPolicy(),
        fault_plan=fault_plan,
    )
    return executor.run(spec, shard=shard, points=points)
