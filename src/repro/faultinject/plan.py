"""Deterministic fault plans and their injector.

A :class:`FaultPlan` is plain data — a tuple of :class:`FaultRule` entries,
JSON round-trippable like a :class:`~repro.spec.ScenarioSpec` — describing
exactly which faults strike which grid points on which dispatch.  Because
every rule is keyed on the point's grid **index** and its 1-based
**dispatch** number (how many times the executor has sent the point to a
worker), a plan replays identically on every run: there is no wall-clock or
scheduling dependence in *what* fails, only in *where* the work lands.

The injector has two halves:

* **worker side** — :meth:`FaultInjector.before_point` runs just before a
  point executes and can raise an :class:`InjectedTransientError`, stall the
  worker past its timeout budget (``time.sleep``), or kill the worker
  process outright (``os._exit``).  In ``"inline"`` mode (the executor's
  serial and fallback paths) kill and stall rules are skipped: they model
  worker-process faults, and the in-process path has no worker to lose.
* **parent side** — :meth:`FaultInjector.wants_interrupt` triggers the
  executor's clean SIGINT path after a chosen point completes (so interrupt
  handling has a deterministic regression test that sends no real signal),
  and the ``sink_*`` / :meth:`FaultInjector.tear_stream` hooks strike the
  streaming result sink with disk faults.

Plans are either hand-built or sampled reproducibly from a seed with
:meth:`FaultPlan.sample`, which derives all of its randomness through
:func:`repro.core.rng.derive_seed` — the same plan comes back for the same
``(seed, point_count)`` on every platform.
"""

from __future__ import annotations

import errno
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..core.errors import ConfigurationError, ReproError
from ..core.rng import RandomSource, derive_seed

__all__ = [
    "FAULT_KINDS",
    "SINK_FAULT_KINDS",
    "InjectedTransientError",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "bundled_plans",
    "bundled_stream_plans",
    "load_plan",
    "save_plan",
]

#: Recognised rule kinds.
FAULT_KINDS = (
    "transient-error",
    "kill-worker",
    "stall",
    "interrupt",
    # Disk-fault rules for the streaming result sink (repro.dist.sink):
    "torn-write",
    "enospc",
    "fsync-error",
    "kill-after-records",
)

#: Rules that strike the parent-side streaming sink, not a worker point.
SINK_FAULT_KINDS = ("torn-write", "enospc", "fsync-error", "kill-after-records")

PathLike = Union[str, Path]

_ENOSPC = errno.ENOSPC
_EIO = errno.EIO


class InjectedTransientError(ReproError):
    """The synthetic transient failure raised by ``transient-error`` rules."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault site.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`:

        * ``"transient-error"`` — raise :class:`InjectedTransientError`
          before the point runs (worker and inline paths);
        * ``"kill-worker"`` — ``os._exit`` the worker process (skipped
          inline);
        * ``"stall"`` — sleep ``duration`` seconds before the point runs,
          pushing it past its timeout budget (skipped inline);
        * ``"interrupt"`` — request the executor's clean-interrupt path
          after the point completes (parent side);
        * ``"torn-write"`` — after the streaming sink appends the point's
          record, tear the segment file ``offset`` bytes into that record
          (half the record when ``offset`` is ``None``) and stop the sweep
          as a crash would, so a resume must recover the torn tail (fires
          once, parent side);
        * ``"enospc"`` — the sink's append for the point fails with
          ``OSError(ENOSPC)``, driving the graceful-degradation path
          (``SinkFullError``; fires once, parent side);
        * ``"fsync-error"`` — the fsync following the point's append fails
          once with ``OSError(EIO)``; the sink must retry at the next
          cadence point and the sweep must complete bit-identically
          (parent side);
        * ``"kill-after-records"`` — ``SIGKILL`` the **parent** process the
          moment the sink has appended its ``records``-th record of this
          run.  Lethal by design: only use from a subprocess harness (the
          chaos CI job and ``tests/test_sink.py`` do).
    index:
        Grid index the rule targets.  ``None`` is only valid for
        ``kill-worker`` rules using ``worker_point``.
    dispatches:
        1-based dispatch numbers on which the rule fires; the empty tuple
        means *every* dispatch (the poison-point form).  A point's dispatch
        count increments each time the executor sends it to a worker —
        whether as a retry or as a resubmission after a pool death — so
        ``dispatches=(1,)`` models a fault that strikes once and is gone.
    worker_point:
        ``kill-worker`` alternative trigger: die when the executing worker
        process reaches its ``worker_point``-th point, whatever that point
        is.  Because every replacement worker also counts from one, such a
        rule keeps killing pools until the executor degrades to its serial
        fallback — the designed test for graceful degradation.
    duration:
        ``stall`` sleep length in seconds.
    offset:
        ``torn-write`` tear position in bytes from the start of the
        appended record; ``None`` tears at half the record.  The tear is
        clamped inside the record so the segment always ends mid-record.
    records:
        ``kill-after-records`` trigger: SIGKILL the parent once the sink
        has appended this many records (1-based count of this process's
        appends).
    """

    kind: str
    index: Optional[int] = None
    dispatches: Tuple[int, ...] = (1,)
    worker_point: Optional[int] = None
    duration: float = 0.0
    offset: Optional[int] = None
    records: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        object.__setattr__(
            self, "dispatches", tuple(int(d) for d in self.dispatches)
        )
        if any(d < 1 for d in self.dispatches):
            raise ConfigurationError("fault rule dispatches are 1-based")
        if self.worker_point is not None:
            if self.kind != "kill-worker":
                raise ConfigurationError(
                    "worker_point only applies to kill-worker rules"
                )
            if self.worker_point < 1:
                raise ConfigurationError("worker_point is 1-based")
        elif self.kind == "kill-after-records":
            if self.records is None or int(self.records) < 1:
                raise ConfigurationError(
                    "kill-after-records rules need a positive 'records' count"
                )
        elif self.index is None:
            raise ConfigurationError(
                f"{self.kind} rule needs a target grid 'index'"
            )
        if self.records is not None and self.kind != "kill-after-records":
            raise ConfigurationError(
                "'records' only applies to kill-after-records rules"
            )
        if self.offset is not None:
            if self.kind != "torn-write":
                raise ConfigurationError(
                    "'offset' only applies to torn-write rules"
                )
            if int(self.offset) < 1:
                raise ConfigurationError(
                    "torn-write 'offset' is in bytes and must be >= 1 "
                    "(the tear lands inside the record)"
                )
        if self.kind == "stall" and self.duration <= 0:
            raise ConfigurationError("stall rules need a positive 'duration'")

    def matches(self, index: int, dispatch: int) -> bool:
        """Does this rule fire for grid point ``index`` on ``dispatch``?"""
        if self.index != index:
            return False
        return not self.dispatches or dispatch in self.dispatches

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "index": self.index,
            "dispatches": list(self.dispatches),
            "worker_point": self.worker_point,
            "duration": self.duration,
            "offset": self.offset,
            "records": self.records,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultRule":
        unknown = sorted(
            set(data)
            - {
                "kind",
                "index",
                "dispatches",
                "worker_point",
                "duration",
                "offset",
                "records",
            }
        )
        if unknown:
            raise ConfigurationError(
                f"fault rule has unknown field(s) {', '.join(map(repr, unknown))}"
            )
        if "kind" not in data:
            raise ConfigurationError("fault rule is missing the 'kind' field")
        return cls(
            kind=data["kind"],
            index=data.get("index"),
            dispatches=tuple(data.get("dispatches", (1,))),
            worker_point=data.get("worker_point"),
            duration=data.get("duration", 0.0),
            offset=data.get("offset"),
            records=data.get("records"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A serialisable set of deterministic fault rules.

    Attributes
    ----------
    rules:
        The fault sites (see :class:`FaultRule`).
    seed:
        Provenance only: the seed :meth:`sample` derived the plan from, or
        ``None`` for hand-built plans.
    """

    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "rules",
            tuple(
                rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule)
                for rule in self.rules
            ),
        )

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def kinds(self) -> Tuple[str, ...]:
        """The distinct rule kinds in this plan, sorted."""
        return tuple(sorted({rule.kind for rule in self.rules}))

    def to_dict(self) -> Dict[str, object]:
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        unknown = sorted(set(data) - {"rules", "seed"})
        if unknown:
            raise ConfigurationError(
                f"fault plan has unknown field(s) {', '.join(map(repr, unknown))}"
            )
        rules = data.get("rules", ())
        if not isinstance(rules, (list, tuple)):
            raise ConfigurationError("fault plan 'rules' must be a list")
        return cls(
            rules=tuple(FaultRule.from_dict(rule) for rule in rules),
            seed=data.get("seed"),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"fault plan JSON is malformed: {error}"
            ) from error
        return cls.from_dict(data)

    @classmethod
    def sample(
        cls,
        point_count: int,
        seed: int,
        kinds: Sequence[str] = ("transient-error",),
        faults: int = 1,
        stall_duration: float = 5.0,
    ) -> "FaultPlan":
        """A reproducible random plan: ``faults`` rules over the grid.

        All randomness derives from ``derive_seed(seed, "fault-plan")``, so
        the same ``(point_count, seed, kinds, faults)`` always yields the
        same plan — chaos runs are replayable from one number, exactly like
        the sweeps they disturb.  Sampled rules strike on the first
        dispatch only, so every fault is transient by construction.
        """
        if point_count < 1:
            raise ConfigurationError("sample needs at least one grid point")
        for kind in kinds:
            if kind not in ("transient-error", "kill-worker", "stall"):
                raise ConfigurationError(
                    f"cannot sample fault kind {kind!r}; pick from "
                    "transient-error, kill-worker, stall"
                )
        rng = RandomSource(seed=derive_seed(seed, "fault-plan"), name="fault-plan")
        rules = []
        for _ in range(faults):
            kind = kinds[rng.randint(0, len(kinds))]
            rules.append(
                FaultRule(
                    kind=kind,
                    index=rng.randint(0, point_count),
                    dispatches=(1,),
                    duration=stall_duration if kind == "stall" else 0.0,
                )
            )
        return cls(rules=tuple(rules), seed=seed)


def load_plan(path: PathLike) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file."""
    source = Path(path)
    try:
        text = source.read_text()
    except OSError as error:
        raise ConfigurationError(
            f"cannot read fault plan file {source}: {error}"
        ) from error
    return FaultPlan.from_json(text)


def save_plan(plan: FaultPlan, path: PathLike) -> Path:
    """Write ``plan`` to ``path`` as JSON; returns the resolved path."""
    destination = Path(path)
    destination.write_text(plan.to_json() + "\n")
    return destination


class FaultInjector:
    """Executes a :class:`FaultPlan` at the harness's injection points.

    Parameters
    ----------
    plan:
        The plan (or its dict form, as shipped to workers via the pool
        initializer).
    mode:
        ``"worker"`` in pool worker processes (all rule kinds live);
        ``"inline"`` in the executor's in-process paths, where
        ``kill-worker`` and ``stall`` rules are skipped — they model
        worker-process faults and would otherwise kill or hang the parent.
    """

    def __init__(
        self, plan: Union[FaultPlan, Mapping], mode: str = "worker"
    ) -> None:
        if mode not in ("worker", "inline"):
            raise ConfigurationError(f"unknown injector mode {mode!r}")
        self.plan = plan if isinstance(plan, FaultPlan) else FaultPlan.from_dict(plan)
        self.mode = mode
        self._points_started = 0
        self._fired_sink_rules: set = set()

    # -- worker side -----------------------------------------------------------

    def before_point(self, index: int, dispatch: int) -> None:
        """Apply worker-side rules just before a point executes.

        May raise :class:`InjectedTransientError`, sleep, or terminate the
        process; called once per dispatched point, so the per-process point
        counter that ``worker_point`` kills key off advances here.
        """
        self._points_started += 1
        for rule in self.plan.rules:
            if rule.kind == "kill-worker":
                killed = (
                    self._points_started == rule.worker_point
                    if rule.worker_point is not None
                    else rule.matches(index, dispatch)
                )
                if killed and self.mode == "worker":
                    # Abrupt death, as an OOM kill would be: no cleanup, no
                    # exception crossing the pool boundary.
                    os._exit(1)
            elif rule.kind == "stall" and rule.matches(index, dispatch):
                if self.mode == "worker":
                    time.sleep(rule.duration)
            elif rule.kind == "transient-error" and rule.matches(index, dispatch):
                raise InjectedTransientError(
                    f"injected transient fault at point {index} "
                    f"(dispatch {dispatch})"
                )

    # -- parent side -----------------------------------------------------------

    def wants_interrupt(self, index: int) -> bool:
        """Should the executor's clean-interrupt path fire after ``index``?"""
        return any(
            rule.kind == "interrupt" and rule.index == index
            for rule in self.plan.rules
        )

    # -- streaming-sink side (parent process) -----------------------------------

    def sink_append_fault(self, index: int) -> None:
        """Raise ``OSError(ENOSPC)`` for a matching ``enospc`` rule (once).

        Installed as the sink's ``append_hook``; the sink handles the error
        exactly like a real full disk — roll back to the record boundary,
        fsync what fits, raise :class:`~repro.dist.sink.SinkFullError`.
        """
        for position, rule in enumerate(self.plan.rules):
            if (
                rule.kind == "enospc"
                and rule.index == index
                and ("enospc", position) not in self._fired_sink_rules
            ):
                self._fired_sink_rules.add(("enospc", position))
                raise OSError(
                    _ENOSPC, f"injected ENOSPC at stream record {index}"
                )

    def sink_fsync_fault(self, index: int) -> None:
        """Fail one fsync with ``OSError(EIO)`` for a matching rule.

        Installed as the sink's ``fsync_hook``; ``index`` is the most
        recently appended record's grid index.  Fires once per rule, so the
        sink's retry at the next cadence point succeeds — the designed test
        for transient fsync failure.
        """
        for position, rule in enumerate(self.plan.rules):
            if (
                rule.kind == "fsync-error"
                and rule.index == index
                and ("fsync", position) not in self._fired_sink_rules
            ):
                self._fired_sink_rules.add(("fsync", position))
                raise OSError(
                    _EIO, f"injected fsync failure after stream record {index}"
                )

    def tear_stream(
        self, index: int, path: PathLike, start: int, end: int
    ) -> bool:
        """Tear the just-appended stream record mid-byte (once per rule).

        ``start``/``end`` delimit the record inside its segment file; the
        tear lands ``rule.offset`` bytes past ``start`` (clamped inside the
        record; half the record when unset).  Returns ``True`` when a tear
        fired — the executor then freezes the sink and stops the sweep the
        way a crash at that exact byte offset would, so the resume path is
        exercised against a genuinely torn tail.
        """
        for position, rule in enumerate(self.plan.rules):
            if (
                rule.kind == "torn-write"
                and rule.index == index
                and ("tear", position) not in self._fired_sink_rules
            ):
                self._fired_sink_rules.add(("tear", position))
                length = max(1, end - start)
                offset = length // 2 if rule.offset is None else int(rule.offset)
                offset = min(max(1, offset), length - 1)
                with Path(path).open("rb+") as handle:
                    handle.truncate(start + offset)
                return True
        return False

    def kill_after_records(self, appended: int) -> bool:
        """Does a ``kill-after-records`` rule fire at this append count?

        The caller (the executor) performs the actual ``SIGKILL`` — keeping
        the lethal syscall in one greppable place — and only ever from a
        process the test harness owns.
        """
        return any(
            rule.kind == "kill-after-records" and rule.records == appended
            for rule in self.plan.rules
        )


def bundled_plans(
    point_count: int, stall_duration: float = 30.0
) -> Dict[str, FaultPlan]:
    """The canonical chaos plans used by tests and CI's ``--chaos`` parity run.

    One plan per worker-side failure mode, each targeting deterministic
    points of a ``point_count``-sized grid; all but ``"poison-point"`` are
    survivable, and ``"poison-point"`` is the *only* plan designed to
    quarantine.  Torn durable writes are :func:`bundled_stream_plans`'
    ``"torn-write"``.
    ``stall_duration`` must exceed the group timeout deadline in force, or
    the stalled point finishes before detection and nothing is exercised.
    """
    if point_count < 1:
        raise ConfigurationError("bundled_plans needs at least one grid point")
    last = point_count - 1
    mid = point_count // 2
    return {
        "worker-kill": FaultPlan(
            rules=(FaultRule(kind="kill-worker", index=mid, dispatches=(1,)),)
        ),
        "transient-double": FaultPlan(
            rules=(
                FaultRule(kind="transient-error", index=0, dispatches=(1, 2)),
            )
        ),
        "timeout-stall": FaultPlan(
            rules=(
                FaultRule(
                    kind="stall",
                    index=last,
                    dispatches=(1,),
                    duration=stall_duration,
                ),
            )
        ),
        "poison-point": FaultPlan(
            rules=(FaultRule(kind="transient-error", index=last, dispatches=()),)
        ),
    }


def bundled_stream_plans(
    point_count: int, include_kill: bool = False
) -> Dict[str, FaultPlan]:
    """The canonical **disk-fault** chaos plans for the streaming sink.

    One plan per sink failure mode, each deterministic for a
    ``point_count``-sized grid:

    * ``"torn-write"`` — the mid-grid point's record is torn a few bytes in
      and the sweep stops as a crash would; the resume must quarantine the
      tail and re-run exactly that point, bit-identically.
    * ``"enospc"`` — the disk "fills" at the mid-grid point; the run raises
      a resumable :class:`~repro.dist.sink.SinkFullError` with everything
      before it durable.
    * ``"fsync-error"`` — one fsync fails transiently; the sweep completes
      in one go, bit-identically.
    * ``"kill-9"`` (only when ``include_kill=True``) — SIGKILL the parent
      after the second appended record.  **Lethal**: run it only inside a
      subprocess harness.
    """
    if point_count < 1:
        raise ConfigurationError(
            "bundled_stream_plans needs at least one grid point"
        )
    mid = point_count // 2
    plans = {
        "torn-write": FaultPlan(
            rules=(FaultRule(kind="torn-write", index=mid, offset=7),)
        ),
        "enospc": FaultPlan(rules=(FaultRule(kind="enospc", index=mid),)),
        "fsync-error": FaultPlan(
            rules=(FaultRule(kind="fsync-error", index=mid),)
        ),
    }
    if include_kill:
        plans["kill-9"] = FaultPlan(
            rules=(
                FaultRule(
                    kind="kill-after-records",
                    records=min(2, point_count),
                ),
            )
        )
    return plans
