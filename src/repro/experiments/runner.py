"""Shared plumbing for running scenario specs over generated graphs.

Every broadcast experiment declares its grid as :class:`ScenarioSpec` records
and runs them through :func:`repro.spec.run_spec`, which hands each grid point
to :class:`ExperimentRunner`.  The runner materialises the point's graph
(cached: generating a 16k-node regular graph is more expensive than
broadcasting over it), derives its run seeds from the point spec, and runs
the repetitions through :func:`repeat_broadcast`.

Multi-seed sweeps dispatch to the batched vectorized engine
(:func:`repro.core.engine.run_broadcast_batch`) whenever
:func:`repro.core.engine.plan_run` batches them, which collapses the per-seed
Python loop into one ``(R, n)`` NumPy program without changing any result bit
(each batch row is bit-identical to the corresponding per-seed run).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..core.config import SimulationConfig
from ..core.engine import RunPlan, plan_run, run_broadcast, run_broadcast_batch
from ..core.metrics import RunResult
from ..core.rng import RandomSource, derive_seed
from ..failures.churn import ChurnModel
from ..failures.message_loss import FailureModel
from ..graphs.base import Graph
from ..graphs.configuration_model import connected_random_regular_graph
from ..graphs.registry import build_graph, graph_needs_rng
from ..protocols.base import BroadcastProtocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec imports tables)
    from ..dist.partition import ExpandedPoint
    from ..dist.progress import ProgressCallback
    from ..spec.run import PointRun, ScenarioRun
    from ..spec.scenario import GraphSpec, ScenarioSpec

__all__ = ["ProtocolFactory", "ExperimentRunner", "repeat_broadcast"]


#: A callable building a fresh protocol instance for a given size estimate.
ProtocolFactory = Callable[[int], BroadcastProtocol]


def repeat_broadcast(
    graph: Graph,
    protocol_factory: ProtocolFactory,
    n_estimate: int,
    seeds: List[int],
    config: Optional[SimulationConfig] = None,
    failure_model: Optional[FailureModel] = None,
    churn_factory: Optional[Callable[[], ChurnModel]] = None,
    source: int = 0,
    batch: bool = True,
) -> List[RunResult]:
    """Run the same protocol over the same graph once per seed.

    Executes the :func:`plan_run` plan for ``seeds``: a batched plan runs all
    repetitions as one ``(R, n)`` NumPy program through
    :func:`run_broadcast_batch` (``batch=False`` disables this), and each
    returned result is bit-identical to the corresponding per-seed run.
    Otherwise every seed runs through :func:`run_broadcast` with a fresh
    protocol instance (protocols may hold per-run state) and a fresh churn
    model, on its own graph copy when a churn run lands on the scalar
    engine, which mutates it.  Churn sweeps never batch (membership diverges
    per replication) but run per seed on the vectorized engine when the
    model and protocol opt in.
    """
    protocol = protocol_factory(n_estimate)
    churn_model = churn_factory() if churn_factory is not None else None
    plan = plan_run(graph, protocol, config, failure_model, churn_model, seeds, batch)
    if plan.batched:
        return run_broadcast_batch(
            graph=graph,
            protocol=protocol,
            seeds=seeds,
            source=source,
            config=config,
            failure_model=failure_model,
        )
    return [
        run_broadcast(
            graph=graph.copy() if plan.copy_graph else graph,
            protocol=protocol_factory(n_estimate),
            source=source,
            seed=seed,
            config=config,
            failure_model=failure_model,
            churn_model=churn_factory() if churn_factory is not None else None,
        )
        for seed in seeds
    ]


def _plain_regular(graph_spec: "GraphSpec") -> bool:
    """True for ``connected-random-regular`` graphs with plain ``{n, d}`` params.

    Those graphs, the experiments' default, key their graph seed, cache
    entry and run-seed labels off ``(n, d)`` directly.
    """
    family, params = graph_spec.family, graph_spec.params
    return family == "connected-random-regular" and set(params) == {"n", "d"}


class ExperimentRunner:
    """Graph-caching executor of scenario-spec grid points.

    The runner takes no settings: every point spec carries its own master
    seed, repetition count, engine and batch knob, and the runner reads them
    from there.  What it keeps across points is its graph cache, so sibling
    points of one graph (and a worker's successive tasks) build it once.
    """

    def __init__(self) -> None:
        self._graph_cache: Dict[tuple, Graph] = {}
        #: Graphs actually constructed by this runner (cache misses).  The
        #: distributed executor reads it to report, per sweep, how many graph
        #: builds the worker pool performed in total.
        self.graph_builds: int = 0

    # -- graphs ---------------------------------------------------------------------

    @staticmethod
    def graph_cache_key(graph_spec: "GraphSpec") -> tuple:
        """The cache identity of a spec's graph (family, params, instance).

        Two grid points of one spec with equal keys materialise the *same*
        graph, so the distributed executor groups them onto one worker
        (graph-first expansion): each (family, n, d, seed) graph is then
        built at most once across the whole pool instead of once per worker
        that happens to receive one of its points.
        """
        params = graph_spec.params
        if _plain_regular(graph_spec):
            return (params["n"], params["d"], graph_spec.instance)
        return (
            graph_spec.family,
            tuple(sorted(params.items())),
            graph_spec.instance,
        )

    def spec_graph(self, spec: "ScenarioSpec") -> Graph:
        """The cached graph of ``spec.graph``, seeded from ``spec.master_seed``.

        ``connected-random-regular`` graphs with plain ``{n, d}`` parameters
        draw from ``RandomSource(seed=derive_seed(master, "graph", n, d,
        instance), name=f"graph-{n}-{d}-{instance}")``; the stream name seeds
        the repair pass, so it is part of the graph.  Every other family
        derives its seed from the family id, the instance, and the sorted
        parameter items.
        """
        graph_spec = spec.graph
        key = (spec.master_seed, *self.graph_cache_key(graph_spec))
        graph = self._graph_cache.get(key)
        if graph is not None:
            return graph
        params = graph_spec.params
        if _plain_regular(graph_spec):
            n, d, instance = params["n"], params["d"], graph_spec.instance
            rng = RandomSource(
                seed=derive_seed(spec.master_seed, "graph", n, d, instance),
                name=f"graph-{n}-{d}-{instance}",
            )
            graph = connected_random_regular_graph(n, d, rng)
        else:
            rng = None
            if graph_needs_rng(graph_spec.family):
                seed = derive_seed(
                    spec.master_seed,
                    "graph",
                    graph_spec.family,
                    graph_spec.instance,
                    *(f"{name}={value}" for name, value in sorted(params.items())),
                )
                rng = RandomSource(seed=seed, name=f"graph-{graph_spec.family}")
            graph = build_graph(graph_spec.family, rng=rng, **params)
        if graph.has_contiguous_ids():
            # Pre-warm the CSR view while the graph is being cached, so
            # repeated (batched) runs never pay the adjacency export again.
            graph.csr()
        self.graph_builds += 1
        self._graph_cache[key] = graph
        return graph

    # -- running ---------------------------------------------------------------------

    @staticmethod
    def seed_label_for(
        point_spec: "ScenarioSpec", label: str, node_count: Optional[int] = None
    ) -> Optional[str]:
        """The run-seed label of one resolved grid point.

        ``connected-random-regular`` points with plain ``{n, d}`` parameters
        use ``"{label}-{n}-{d}"`` and need no graph; every other family keys
        off the materialised node count — pass ``node_count`` for those, or
        receive ``None`` (the CLI dry-run uses that to show which points
        need a graph build before their seeds are known).
        """
        params = point_spec.graph.params
        if _plain_regular(point_spec.graph):
            return f"{label}-{params['n']}-{params['d']}"
        if node_count is None:
            return None
        return f"{label}-{node_count}"

    @staticmethod
    def plan_point(spec: "ScenarioSpec", node_count: Optional[int] = None) -> RunPlan:
        """The plan :meth:`run_point` executes for ``spec``, without a graph build.

        Resolves the config, protocol, failure and churn models exactly as
        :meth:`run_point` does; ``run-spec --dry-run`` prints the result.
        ``node_count`` is the graph's size when known without building it.
        It becomes the plan's ``n`` and, as in :meth:`run_point`, the
        protocol's default size estimate.
        """
        # Any size estimate will do when the size is unknown: no dispatch
        # rule reads it.
        plan = plan_run(
            None,
            spec.protocol.build(node_count if node_count is not None else 1024),
            spec.simulation_config(),
            spec.failure.build(),
            spec.churn.build(),
            range(spec.repetitions),
            spec.batch,
        )
        return replace(plan, n=node_count)

    def run_point(self, point: "ExpandedPoint") -> "PointRun":
        """Execute one expanded grid point (the distributable unit of work).

        Shared by the serial :meth:`run_scenario` loop and the worker side
        of :class:`repro.dist.ParallelScenarioExecutor` — the point's label
        keys all run seeds, so the results are bit-identical no matter which
        process (or host) executes it.  Seeds, repetitions, engine and batch
        all come from the point spec, which is recorded in every
        ``RunResult.metadata["spec"]``.
        """
        from ..spec.run import PointRun

        spec = point.spec
        graph = self.spec_graph(spec)
        results = repeat_broadcast(
            graph=graph,
            protocol_factory=spec.protocol.build,
            n_estimate=graph.node_count,
            seeds=spec.run_seeds(
                self.seed_label_for(spec, point.label, graph.node_count)
            ),
            config=spec.simulation_config(),
            failure_model=spec.failure.build(),
            churn_factory=spec.churn.factory(),
            source=spec.source,
            batch=spec.batch,
        )
        for result in results:
            result.metadata["spec"] = spec.to_dict()
        return PointRun(
            index=point.index,
            values=dict(point.values),
            label=point.label,
            spec=spec,
            results=results,
        )

    def run_scenario(
        self,
        spec: "ScenarioSpec",
        progress: Optional["ProgressCallback"] = None,
    ) -> "ScenarioRun":
        """Spec-driven entry point: execute every grid point of ``spec``.

        Grid expansion and per-point execution are shared with the parallel
        executor (:mod:`repro.dist`), which is what keeps the two paths
        bit-identical.  ``progress`` receives one
        :class:`~repro.dist.progress.PointProgress` per completed point.
        """
        from ..dist.partition import expand_points
        from ..dist.progress import PointProgress
        from ..spec.run import ScenarioRun

        run = ScenarioRun(spec=spec)
        points = expand_points(spec)
        for point in points:
            started = time.perf_counter()
            run.points.append(self.run_point(point))
            if progress is not None:
                progress(
                    PointProgress(
                        index=point.index,
                        total=len(points),
                        label=point.label,
                        elapsed_seconds=time.perf_counter() - started,
                    )
                )
        return run
