"""repro — randomised broadcasting in random regular networks.

A faithful, simulation-backed reproduction of Berenbrink, Elsässer and
Friedetzky, *"Efficient randomised broadcasting in random regular networks
with applications in peer-to-peer systems"* (PODC 2008 / Distributed
Computing 2016).

Quickstart
----------

>>> from repro import RandomSource, random_regular_graph, Algorithm1, run_broadcast
>>> rng = RandomSource(seed=1)
>>> graph = random_regular_graph(n=1024, d=8, rng=rng)
>>> result = run_broadcast(graph, Algorithm1(n_estimate=1024), seed=1)
>>> result.success
True

The public API re-exports the most commonly used pieces; the sub-packages
(:mod:`repro.core`, :mod:`repro.graphs`, :mod:`repro.protocols`,
:mod:`repro.failures`, :mod:`repro.p2p`, :mod:`repro.analysis`,
:mod:`repro.experiments`) expose the full surface.  Every re-export is
lazy (:mod:`repro._lazy`): ``import repro`` loads no submodule, and a name's
module is imported the first time the name is used.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .core import (
        ConfigurationError,
        GraphGenerationError,
        NodeState,
        RandomSource,
        ReproError,
        RoundEngine,
        RoundRecord,
        RunAggregate,
        RunPlan,
        RunResult,
        SimulationConfig,
        SimulationError,
        StateTable,
        VectorState,
        BatchedVectorizedRoundEngine,
        aggregate_runs,
        plan_run,
        run_broadcast,
        run_broadcast_batch,
        vectorization_unsupported_reason,
    )
    from .failures import (
        EstimateError,
        IndependentLoss,
        NoChurn,
        ReliableDelivery,
        UniformChurn,
        available_failure_models,
        build_failure_model,
    )
    from .graphs import (
        Graph,
        available_graph_families,
        build_graph,
        complete_graph,
        connected_random_regular_graph,
        gnp_graph,
        hypercube_graph,
        pairing_multigraph,
        random_regular_graph,
    )
    from .protocols import (
        Algorithm1,
        Algorithm2,
        BroadcastProtocol,
        PullProtocol,
        PushProtocol,
        PushPullProtocol,
        QuasirandomPushProtocol,
        SequentialAlgorithm1,
        available_protocols,
        build_protocol,
    )
    from .spec import (
        FailureSpec,
        GraphSpec,
        PointRun,
        ProtocolSpec,
        ScenarioRun,
        ScenarioSpec,
        SweepAxis,
        SweepSpec,
        load_spec,
        run_spec,
        save_spec,
    )
    from .dist import (
        ParallelScenarioExecutor,
        PointFailure,
        PointProgress,
        RetryPolicy,
        SweepInterrupted,
        log_point_progress,
        merge_runs,
    )
    from .faultinject import FaultPlan, FaultRule

__getattr__, __dir__ = lazy_exports(__name__)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # core
    "RandomSource",
    "SimulationConfig",
    "RoundEngine",
    "BatchedVectorizedRoundEngine",
    "vectorization_unsupported_reason",
    "RunPlan",
    "plan_run",
    "run_broadcast",
    "run_broadcast_batch",
    "RunResult",
    "RoundRecord",
    "RunAggregate",
    "aggregate_runs",
    "NodeState",
    "StateTable",
    "VectorState",
    "ReproError",
    "ConfigurationError",
    "GraphGenerationError",
    "SimulationError",
    # graphs
    "Graph",
    "random_regular_graph",
    "connected_random_regular_graph",
    "pairing_multigraph",
    "complete_graph",
    "gnp_graph",
    "hypercube_graph",
    # protocols
    "BroadcastProtocol",
    "PushProtocol",
    "PullProtocol",
    "PushPullProtocol",
    "Algorithm1",
    "Algorithm2",
    "SequentialAlgorithm1",
    "QuasirandomPushProtocol",
    "build_protocol",
    "available_protocols",
    # failures
    "IndependentLoss",
    "ReliableDelivery",
    "UniformChurn",
    "NoChurn",
    "EstimateError",
    "build_failure_model",
    "available_failure_models",
    # graph/failure registries
    "build_graph",
    "available_graph_families",
    # scenario specs
    "ScenarioSpec",
    "GraphSpec",
    "ProtocolSpec",
    "FailureSpec",
    "SweepSpec",
    "SweepAxis",
    "ScenarioRun",
    "PointRun",
    "run_spec",
    "load_spec",
    "save_spec",
    # distributed sweeps
    "ParallelScenarioExecutor",
    "merge_runs",
    "PointProgress",
    "log_point_progress",
    # resilience & fault injection
    "RetryPolicy",
    "PointFailure",
    "SweepInterrupted",
    "FaultPlan",
    "FaultRule",
]
