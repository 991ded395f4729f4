"""Declarative, serializable scenario specifications and their execution.

``repro.spec`` turns a whole run or sweep — graph family, protocol, failure
regime, sweep axes, seeds, engine knobs — into one JSON-serialisable record
(:class:`ScenarioSpec`) that users can write, diff, store, and sweep at
scale.  :func:`run_spec` executes a spec; every seed derives from the spec
itself, so a scenario file reproduces its results bit-for-bit, and every
registered broadcast experiment is built from such specs.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .run import PointRun, ScenarioRun, run_spec
    from .scenario import (
        SCENARIO_SCHEMA,
        ChurnSpec,
        FailureSpec,
        GraphSpec,
        ProtocolSpec,
        ScenarioSpec,
        SweepAxis,
        SweepSpec,
        load_spec,
        save_spec,
    )

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "SCENARIO_SCHEMA",
    "GraphSpec",
    "ProtocolSpec",
    "FailureSpec",
    "ChurnSpec",
    "SweepAxis",
    "SweepSpec",
    "ScenarioSpec",
    "load_spec",
    "save_spec",
    "PointRun",
    "ScenarioRun",
    "run_spec",
]
