"""Shared plumbing for running protocols over generated graphs.

The experiments all follow the same pattern: generate a few random regular
graphs, run one or more protocols with several seeds over each, and aggregate
the results.  :class:`ExperimentRunner` centralises graph caching (generating
a 16k-node regular graph is more expensive than broadcasting over it), seeding
discipline, and repetition so the individual experiment modules stay short and
declarative.

Multi-seed sweeps dispatch to the batched vectorized engine
(:func:`repro.core.engine.run_broadcast_batch`) whenever
:func:`repro.core.engine.plan_run` batches them, which collapses the per-seed
Python loop into one ``(R, n)`` NumPy program without changing any result bit
(each batch row is bit-identical to the corresponding per-seed run).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..core.config import SimulationConfig
from ..core.engine import RunPlan, plan_run, run_broadcast, run_broadcast_batch
from ..core.errors import ConfigurationError
from ..core.metrics import RunAggregate, RunResult, aggregate_runs
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


@dataclass
class ExperimentRunner:
    """Graph-caching experiment driver.

    Parameters
    ----------
    master_seed:
        Root of all randomness; graphs and run seeds derive from it so an
        experiment is reproducible from this single number.
    repetitions:
        Number of independent broadcast runs per configuration.
    engine:
        Engine selection forwarded into every broadcast's
        :class:`SimulationConfig` (``"auto"`` | ``"scalar"`` |
        ``"vectorized"``).  ``"auto"`` leaves any caller-supplied config
        untouched.
    batch:
        Whether multi-seed sweeps may run on the batched vectorized engine
        (bit-identical to the per-seed loop; disable to force one run per
        engine invocation, e.g. when profiling single runs).
    """

    master_seed: int = 2008
    repetitions: int = 5
    engine: str = "auto"
    batch: bool = True

    def __post_init__(self) -> None:
        self._graph_cache: Dict[tuple, Graph] = {}
        #: Graphs actually constructed by this runner (cache misses).  The
        #: distributed executor reads it to report, per sweep, how many graph
        #: builds the worker pool performed in total.
        self.graph_builds: int = 0
        # Hoisted out of broadcast(): the engine-override config is identical
        # for every call without a caller config, so build it once instead of
        # running SimulationConfig.with_overrides per sweep point.
        self._engine_config = (
            SimulationConfig(engine=self.engine) if self.engine != "auto" else None
        )

    @classmethod
    def from_spec(cls, spec: "ScenarioSpec") -> "ExperimentRunner":
        """A runner configured exactly as ``spec``'s seed/engine knobs demand.

        The single construction path shared by ``run_spec``'s serial fast
        path, the distributed executor's workers, and the CLI — so the four
        call sites cannot drift apart in which knobs they forward.
        """
        return cls(
            master_seed=spec.master_seed,
            repetitions=spec.repetitions,
            engine=spec.engine,
            batch=spec.batch,
        )

    # -- graphs ---------------------------------------------------------------------

    def regular_graph(self, n: int, d: int, instance: int = 0) -> Graph:
        """A cached connected random d-regular graph on ``n`` nodes."""
        key = (n, d, instance)
        if key not in self._graph_cache:
            seed = derive_seed(self.master_seed, "graph", n, d, instance)
            rng = RandomSource(seed=seed, name=f"graph-{n}-{d}-{instance}")
            graph = connected_random_regular_graph(n, d, rng)
            # Pre-warm the CSR view while the graph is being cached, so
            # repeated (batched) runs never pay the adjacency export again.
            graph.csr()
            self.graph_builds += 1
            self._graph_cache[key] = graph
        return self._graph_cache[key]

    @staticmethod
    def graph_cache_key(graph_spec: "GraphSpec") -> tuple:
        """The cache identity of a spec's graph (family, params, instance).

        Two grid points with equal keys materialise the *same* graph, so the
        distributed executor groups them onto one worker (graph-first
        expansion): each (family, n, d, seed) graph is then built at most
        once across the whole pool instead of once per worker that happens
        to receive one of its points.
        """
        params = graph_spec.params
        if graph_spec.family == "connected-random-regular" and set(params) == {"n", "d"}:
            return (params["n"], params["d"], graph_spec.instance)
        return (
            graph_spec.family,
            tuple(sorted(params.items())),
            graph_spec.instance,
        )

    def run_seeds(self, label: str, count: Optional[int] = None) -> List[int]:
        """Deterministic per-configuration run seeds."""
        total = self.repetitions if count is None else count
        return [derive_seed(self.master_seed, "run", label, i) for i in range(total)]

    def _resolved_config(
        self, config: Optional[SimulationConfig]
    ) -> Optional[SimulationConfig]:
        """Apply the runner's engine override to a caller config.

        Shared by :meth:`broadcast` and :meth:`run_scenario` — the spec
        path's bit-parity guarantee depends on both resolving configs
        identically.
        """
        if self.engine == "auto":
            return config
        if config is None:
            return self._engine_config
        return config.with_overrides(engine=self.engine)

    # -- running ---------------------------------------------------------------------

    def broadcast(
        self,
        n: int,
        d: int,
        protocol_factory: ProtocolFactory,
        label: str,
        n_estimate: Optional[int] = None,
        config: Optional[SimulationConfig] = None,
        failure_model: Optional[FailureModel] = None,
        churn_factory: Optional[Callable[[], ChurnModel]] = None,
        repetitions: Optional[int] = None,
        source: int = 0,
    ) -> List[RunResult]:
        """Run ``protocol_factory`` over the cached ``(n, d)`` graph."""
        graph = self.regular_graph(n, d)
        seeds = self.run_seeds(f"{label}-{n}-{d}", repetitions)
        config = self._resolved_config(config)
        return repeat_broadcast(
            graph=graph,
            protocol_factory=protocol_factory,
            n_estimate=n_estimate if n_estimate is not None else n,
            seeds=seeds,
            config=config,
            failure_model=failure_model,
            churn_factory=churn_factory,
            source=source,
            batch=self.batch,
        )

    def broadcast_aggregate(
        self,
        n: int,
        d: int,
        protocol_factory: ProtocolFactory,
        label: str,
        **kwargs,
    ) -> RunAggregate:
        """Like :meth:`broadcast` but summarised across the repetitions."""
        return aggregate_runs(
            self.broadcast(n, d, protocol_factory, label, **kwargs)
        )

    # -- scenario specs ---------------------------------------------------------

    def spec_graph(self, graph_spec: "GraphSpec") -> Graph:
        """A cached graph materialised from a :class:`GraphSpec`.

        ``connected-random-regular`` specs with plain ``{n, d}`` parameters
        share the :meth:`regular_graph` cache *and* its seed derivation
        (``derive_seed(master, "graph", n, d, instance)``), so a spec-driven
        run builds the bit-identical graph a hand-wired experiment would.
        Every other family derives its seed from the family id, the instance,
        and the sorted parameter items.
        """
        params = graph_spec.params
        if graph_spec.family == "connected-random-regular" and set(params) == {"n", "d"}:
            return self.regular_graph(params["n"], params["d"], graph_spec.instance)
        key = self.graph_cache_key(graph_spec)
        if key not in self._graph_cache:
            rng = None
            if graph_needs_rng(graph_spec.family):
                seed = derive_seed(
                    self.master_seed,
                    "graph",
                    graph_spec.family,
                    graph_spec.instance,
                    *(f"{name}={value}" for name, value in sorted(params.items())),
                )
                rng = RandomSource(seed=seed, name=f"graph-{graph_spec.family}")
            graph = build_graph(graph_spec.family, rng=rng, **params)
            if graph.has_contiguous_ids():
                # Pre-warm the CSR view, mirroring regular_graph().
                graph.csr()
            self.graph_builds += 1
            self._graph_cache[key] = graph
        return self._graph_cache[key]

    def check_spec_knobs(self, spec: "ScenarioSpec") -> None:
        """Reject a spec whose seed/engine knobs differ from this runner's.

        Both feed the same derivations, so a mismatch would silently produce
        results belonging to a different scenario.
        """
        for attribute in ("master_seed", "engine", "batch"):
            if getattr(spec, attribute) != getattr(self, attribute):
                raise ConfigurationError(
                    f"scenario {attribute} ({getattr(spec, attribute)!r}) does not "
                    f"match this runner's ({getattr(self, attribute)!r}); build the "
                    "runner from the spec or use repro.spec.run_spec"
                )

    @staticmethod
    def seed_label_for(
        point_spec: "ScenarioSpec", label: str, node_count: Optional[int] = None
    ) -> Optional[str]:
        """The run-seed label of one resolved grid point.

        ``connected-random-regular`` points with plain ``{n, d}`` parameters
        use the hand-wired discipline of :meth:`broadcast`
        (``"{label}-{n}-{d}"``) and need no graph; every other family keys
        off the materialised node count — pass ``node_count`` for those, or
        receive ``None`` (the CLI dry-run uses that to show which points
        need a graph build before their seeds are known).
        """
        params = point_spec.graph.params
        if point_spec.graph.family == "connected-random-regular" and set(params) == {
            "n",
            "d",
        }:
            return f"{label}-{params['n']}-{params['d']}"
        if node_count is None:
            return None
        return f"{label}-{node_count}"

    def plan_point(
        self, spec: "ScenarioSpec", node_count: Optional[int] = None
    ) -> RunPlan:
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
            self._resolved_config(spec.simulation_config()),
            spec.failure.build(),
            spec.churn.build(),
            range(spec.repetitions),
            self.batch,
        )
        return replace(plan, n=node_count)

    def run_point(self, point: "ExpandedPoint") -> "PointRun":
        """Execute one expanded grid point (the distributable unit of work).

        Shared by the serial :meth:`run_scenario` loop and the worker side
        of :class:`repro.dist.ParallelScenarioExecutor` — the point's label
        keys all run seeds, so the results are bit-identical no matter which
        process (or host) executes it.  The point's fully-resolved spec is
        recorded in every ``RunResult.metadata["spec"]``.
        """
        from ..spec.run import PointRun

        spec = point.spec
        self.check_spec_knobs(spec)
        graph = self.spec_graph(spec.graph)
        seed_label = self.seed_label_for(spec, point.label, graph.node_count)
        seeds = self.run_seeds(seed_label, spec.repetitions)
        config = self._resolved_config(spec.simulation_config())
        results = repeat_broadcast(
            graph=graph,
            protocol_factory=spec.protocol.factory(),
            n_estimate=(
                spec.protocol.n_estimate
                if spec.protocol.n_estimate is not None
                else graph.node_count
            ),
            seeds=seeds,
            config=config,
            failure_model=spec.failure.build(),
            churn_factory=spec.churn.factory(),
            source=spec.source,
            batch=self.batch,
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

        The runner's own seed/engine knobs must match the spec's (they feed
        the same derivations); :func:`repro.spec.run_spec` constructs a
        matching runner automatically.  Grid expansion and per-point
        execution are shared with the parallel executor
        (:mod:`repro.dist`), which is what keeps the two paths
        bit-identical.  ``progress`` receives one
        :class:`~repro.dist.progress.PointProgress` per completed point.
        """
        from ..dist.partition import expand_points
        from ..dist.progress import PointProgress
        from ..spec.run import ScenarioRun

        self.check_spec_knobs(spec)
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
