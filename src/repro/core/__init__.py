"""Core simulation machinery: RNG, node state, round engines, metrics."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .config import SimulationConfig
    from .engine import RoundEngine, RunPlan, plan_run, run_broadcast, run_broadcast_batch
    from .engine_vectorized import (
        BatchedVectorizedRoundEngine,
        vectorization_unsupported_reason,
    )
    from .errors import (
        ConfigurationError,
        ExperimentError,
        GraphGenerationError,
        ProtocolError,
        ReproError,
        SimulationError,
    )
    from .metrics import RoundRecord, RunAggregate, RunResult, aggregate_runs
    from .node import NodeState, StateTable, VectorState
    from .rng import RandomSource, derive_seed

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "RandomSource",
    "derive_seed",
    "NodeState",
    "StateTable",
    "VectorState",
    "SimulationConfig",
    "RoundEngine",
    "BatchedVectorizedRoundEngine",
    "vectorization_unsupported_reason",
    "RunPlan",
    "plan_run",
    "run_broadcast",
    "run_broadcast_batch",
    "RoundRecord",
    "RunResult",
    "RunAggregate",
    "aggregate_runs",
    "ReproError",
    "ConfigurationError",
    "GraphGenerationError",
    "ProtocolError",
    "SimulationError",
    "ExperimentError",
]
