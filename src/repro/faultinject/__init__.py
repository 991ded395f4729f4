"""Deterministic fault injection for the sweep harness.

``repro.faultinject`` proves the resilience layer of :mod:`repro.dist`: a
:class:`FaultPlan` describes — as plain, seed-derivable, JSON-serialisable
data — exactly which faults strike which grid points (transient exceptions,
worker kills, timeout stalls, interrupts) and which disk faults strike the
streaming result sink (torn segment writes, ENOSPC, fsync failures, SIGKILL
after N records), and the executor replays it
deterministically via ``run_spec(fault_plan=...)`` or the CLI's hidden
``run-spec --fault-plan`` flag.

The cardinal invariant, asserted by the chaos suite
(``tests/test_faultinject.py``) and CI's
``benchmarks/check_parallel_parity.py --chaos``: a sweep that survives an
injected fault plan is **bit-identical, down to per-round history, to the
clean serial run** — recovery re-executes points, and the
seed = f(master, label) discipline makes re-execution invisible.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .plan import (
        FAULT_KINDS,
        SINK_FAULT_KINDS,
        FaultInjector,
        FaultPlan,
        FaultRule,
        InjectedTransientError,
        bundled_plans,
        bundled_stream_plans,
        load_plan,
        save_plan,
    )

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "FAULT_KINDS",
    "SINK_FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedTransientError",
    "bundled_plans",
    "bundled_stream_plans",
    "load_plan",
    "save_plan",
]
