"""The synchronous round engine of the random phone call model.

One :class:`RoundEngine` instance runs one broadcast of one message over one
graph with one protocol.  Each round proceeds exactly as in the paper's model:

1. (optional) churn mutates the network;
2. every node opens channels to ``fanout`` distinct random neighbours;
3. nodes that want to **push** send the message over their outgoing channels,
   nodes that want to **pull** send it over their incoming channels;
4. deliveries are committed — a node that received its first copy this round
   counts as informed from the *next* round on;
5. all channels close.

The engine tracks transmissions, channels, and the informed curve, and stops
either when the protocol's horizon runs out or (optionally) as soon as every
node is informed.

Performance note: in rounds where the protocol performs no pull, channels
opened by nodes that will not push cannot carry information, so the engine
skips sampling them and accounts for their channel count arithmetically.  This
keeps the per-round cost proportional to the number of *transmitting* nodes,
which is what makes ``n ≈ 10⁵`` sweeps practical in pure Python.

Beyond that scale, :func:`run_broadcast` transparently dispatches to the bulk
NumPy engine (:mod:`repro.core.engine_vectorized`) whenever the protocol and
run configuration allow it — see ``SimulationConfig.engine`` for the
``"auto" | "scalar" | "vectorized"`` knob and the vectorized module docstring
for the rules.  There is one bulk engine: a single run is its one-seed case,
and :func:`run_broadcast_batch` runs several seeds on it as one ``(R, n)``
program.  The decision is made in one place, :func:`plan_run`, whose
:class:`RunPlan` (engine, batching, graph copies, the ``(R, n)`` state
shape) every entry point executes and ``run-spec --dry-run`` prints.
Instantiating :class:`RoundEngine` directly always runs the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..failures.churn import ChurnModel, NoChurn
from ..failures.message_loss import FailureModel
from ..graphs.base import Graph
from ..protocols.base import BroadcastProtocol
from .config import SimulationConfig
from .engine_vectorized import (
    BatchedVectorizedRoundEngine,
    _resolve_failure_model,
    vectorization_unsupported_reason,
)
from .errors import SimulationError
from .metrics import RoundRecord, RunResult
from .node import StateTable
from .rng import RandomSource

__all__ = [
    "RoundEngine",
    "RunPlan",
    "ScalarChurnOps",
    "plan_run",
    "run_broadcast",
    "run_broadcast_batch",
]


def _ascending(ids: Iterable[int]) -> np.ndarray:
    return np.array(sorted(ids), dtype=np.int64)


class ScalarChurnOps:
    """The membership surface the scalar engine hands to ``ChurnModel.vector_apply``.

    The scalar counterpart of
    :class:`~repro.core.engine_vectorized.VectorChurnOps`, over the run's
    :class:`Graph` and :class:`StateTable`: a departure cuts the node and its
    edges out of both, and a joiner splices into edges drawn from the graph
    as it stands.  The joiner-id counter lives on the :class:`StateTable`
    (``next_joiner_id``), so a surface holds nothing beyond its round.
    """

    __slots__ = ("_graph", "_states", "_round_index")

    def __init__(self, graph: Graph, states: StateTable, round_index: int) -> None:
        self._graph = graph
        self._states = states
        self._round_index = round_index

    # -- queries ---------------------------------------------------------------

    def _live(self) -> List[int]:
        states = self._states
        return [node for node in self._graph.iter_nodes() if states.contains(node)]

    @property
    def live_count(self) -> int:
        """Number of live nodes right now."""
        return len(self._live())

    @property
    def source(self) -> int:
        """Id of the broadcast source (``-1`` if it departed)."""
        states = self._states
        return states.source if states.contains(states.source) else -1

    def live_nodes(self) -> np.ndarray:
        """Ascending ids of all live nodes."""
        return _ascending(self._live())

    def informed_nodes(self) -> np.ndarray:
        """Ascending ids of informed nodes."""
        return _ascending(state.node_id for state in self._states if state.informed)

    def newly_informed_nodes(self) -> np.ndarray:
        """Ascending ids of nodes informed exactly last round (the frontier)."""
        last = self._round_index - 1
        return _ascending(
            state.node_id for state in self._states if state.newly_informed_in(last)
        )

    # -- mutators --------------------------------------------------------------

    def depart(self, ids: np.ndarray) -> None:
        """Remove the nodes in ``ids`` and their edges from the network."""
        for node in np.asarray(ids, dtype=np.int64).tolist():
            self._graph.remove_node(node)
            self._states.remove_node(node)

    def join(
        self, count: int, target_degree: int, generator: np.random.Generator
    ) -> List[int]:
        """Add ``count`` fresh nodes by stub-stealing splices; return their ids.

        Each joiner reads the graph's edges as they stand and splits
        ``max(1, target_degree // 2)`` of them, drawing each with one
        ``generator.integers(0, len(edges))``.  A draw that is a self-loop,
        touches the joiner or was already split is skipped.
        """
        graph, states = self._graph, self._states
        splices = max(1, target_degree // 2)
        joined: List[int] = []
        for _ in range(count):
            if states.next_joiner_id is None:
                states.next_joiner_id = (max(graph.iter_nodes()) + 1) if len(graph) else 0
            joiner = states.next_joiner_id
            states.next_joiner_id += 1
            graph.add_node(joiner)
            edges = graph.edges()
            for _ in range(splices if edges else 0):
                u, v = edges[int(generator.integers(0, len(edges)))]
                if u == joiner or v == joiner or u == v:
                    continue
                if not graph.has_edge(u, v):
                    continue
                graph.remove_edge(u, v)
                graph.add_edge(u, joiner)
                graph.add_edge(joiner, v)
            states.add_node(joiner)
            joined.append(joiner)
        return joined


class RoundEngine:
    """Drives one protocol over one graph for one broadcast message.

    Parameters
    ----------
    graph:
        The network.  The engine mutates it only when a churn model is
        supplied; callers who reuse graphs across runs should pass a copy in
        that case.
    protocol:
        The decision logic (see :class:`repro.protocols.base.BroadcastProtocol`).
    config:
        Engine-level options; :class:`repro.core.config.SimulationConfig` defaults
        are failure-free with early stopping.
    seed:
        Master seed; all randomness of the run derives from it.
    failure_model:
        Overrides the loss probabilities in ``config`` when supplied.
    churn_model:
        Membership changes applied at the start of every round, through a
        :class:`ScalarChurnOps` over ``graph`` and the run's state table.
    """

    def __init__(
        self,
        graph: Graph,
        protocol: BroadcastProtocol,
        config: Optional[SimulationConfig] = None,
        seed: int = 0,
        failure_model: Optional[FailureModel] = None,
        churn_model: Optional[ChurnModel] = None,
    ) -> None:
        self.graph = graph
        self.protocol = protocol
        self.config = config if config is not None else SimulationConfig()
        self.rng = RandomSource(seed=seed, name="engine")
        self._protocol_rng = self.rng.spawn("protocol")
        self._failure_rng = self.rng.spawn("failures")
        self._churn_rng = self.rng.spawn("churn")
        self.churn_model = churn_model if churn_model is not None else NoChurn()
        self.failure_model = _resolve_failure_model(self.config, failure_model)

    # -- public API ---------------------------------------------------------------

    def run(self, source: int = 0) -> RunResult:
        """Broadcast a single message created at ``source`` in round 0."""
        if source not in self.graph:
            raise SimulationError(f"source node {source} is not in the graph")

        n_initial = self.graph.node_count
        self.protocol.reset()
        self._departures = self._arrivals = 0
        states = StateTable(n=n_initial, source=source)
        horizon = self.protocol.horizon()
        if self.config.max_rounds is not None:
            horizon = min(horizon, self.config.max_rounds)

        history: list = []
        phase_transmissions: dict = {}
        totals = {
            "push": 0,
            "pull": 0,
            "channels": 0,
            "lost": 0,
        }
        rounds_to_completion: Optional[int] = None
        rounds_executed = 0

        for round_index in range(1, horizon + 1):
            rounds_executed = round_index
            record = self._run_round(round_index, states)
            totals["push"] += record.push_transmissions
            totals["pull"] += record.pull_transmissions
            totals["channels"] += record.channels_opened
            totals["lost"] += record.lost_transmissions
            if record.phase:
                phase_transmissions[record.phase] = (
                    phase_transmissions.get(record.phase, 0) + record.transmissions
                )
            if self.config.collect_round_history:
                history.append(record)

            if rounds_to_completion is None and states.all_informed():
                rounds_to_completion = round_index
                if self.config.stop_when_informed:
                    break
            if self.protocol.finished(round_index, states):
                break

        metadata = {
            "protocol": self.protocol.describe(),
            "failure_model": self.failure_model.describe(),
            "churn_model": self.churn_model.describe(),
            "final_node_count": self.graph.node_count,
            "engine": "scalar",
        }
        if not isinstance(self.churn_model, NoChurn):
            metadata["churn"] = {
                "departures": self._departures,
                "arrivals": self._arrivals,
                "node_compactions": 0,
            }
        return RunResult(
            n=n_initial,
            protocol=self.protocol.name,
            source=source,
            success=states.all_informed(),
            rounds_executed=rounds_executed,
            rounds_to_completion=rounds_to_completion,
            total_push_transmissions=totals["push"],
            total_pull_transmissions=totals["pull"],
            total_channels_opened=totals["channels"],
            total_lost_transmissions=totals["lost"],
            final_informed=states.informed_count,
            history=history,
            phase_transmissions=phase_transmissions,
            metadata=metadata,
        )

    # -- round mechanics -------------------------------------------------------------

    def _run_round(self, round_index: int, states: StateTable) -> RoundRecord:
        graph = self.graph
        protocol = self.protocol

        if not isinstance(self.churn_model, NoChurn):
            event = self.churn_model.vector_apply(
                round_index, ScalarChurnOps(graph, states, round_index), self._churn_rng
            )
            self._departures += event.departures
            self._arrivals += event.arrivals

        informed_before = states.informed_count

        push_active = protocol.push_round(round_index)
        pull_active = protocol.pull_round(round_index)

        channels, channels_opened = self._open_channels(
            round_index, states, push_active, pull_active
        )

        push_transmissions = 0
        pull_transmissions = 0
        lost_transmissions = 0

        if push_active:
            for caller, callee in channels:
                caller_state = states[caller]
                if not caller_state.informed or not protocol.wants_push(
                    caller_state, round_index
                ):
                    continue
                push_transmissions += 1
                if self.failure_model.transmission_lost(self._failure_rng):
                    lost_transmissions += 1
                elif states.contains(callee):
                    states[callee].deliver(round_index)

        if pull_active:
            for caller, callee in channels:
                callee_state = states[callee]
                if not callee_state.informed or not protocol.wants_pull(
                    callee_state, round_index
                ):
                    continue
                pull_transmissions += 1
                if self.failure_model.transmission_lost(self._failure_rng):
                    lost_transmissions += 1
                elif states.contains(caller):
                    states[caller].deliver(round_index)

        if protocol.overrides("on_channel_exchange"):
            for caller, callee in channels:
                protocol.on_channel_exchange(states[caller], states[callee], round_index)

        newly_informed = states.commit_round()
        protocol.on_round_committed(round_index, states, newly_informed)

        return RoundRecord(
            round_index=round_index,
            informed_before=informed_before,
            informed_after=states.informed_count,
            push_transmissions=push_transmissions,
            pull_transmissions=pull_transmissions,
            channels_opened=channels_opened,
            lost_transmissions=lost_transmissions,
            phase=protocol.phase_label(round_index),
        )

    def _open_channels(
        self,
        round_index: int,
        states: StateTable,
        push_active: bool,
        pull_active: bool,
    ) -> Tuple[List[Tuple[int, int]], int]:
        """Open this round's channels; return ``(channels, opened_count)``.

        ``channels`` lists the open channels as ``(caller, callee)`` pairs in
        the order they were opened.  ``opened_count`` reflects the full
        phone-call model (every node calls its fanout), even when the engine
        skips sampling calls that cannot carry information this round.
        """
        graph = self.graph
        protocol = self.protocol
        channels: List[Tuple[int, int]] = []
        channels_opened = 0

        present = [node for node in graph.iter_nodes() if states.contains(node)]
        if pull_active:
            sampling_nodes = present
        else:
            sampling_nodes = []
            for node in present:
                state = states[node]
                degree = graph.degree(node)
                channels_opened += min(protocol.fanout(state, round_index), degree)
                if (
                    push_active
                    and state.informed
                    and protocol.wants_push(state, round_index)
                ):
                    sampling_nodes.append(node)
            # Channels of sampling nodes were already counted arithmetically
            # above; reset and let the sampling loop recount them exactly.
            channels_opened -= sum(
                min(protocol.fanout(states[node], round_index), graph.degree(node))
                for node in sampling_nodes
            )

        for node in sampling_nodes:
            state = states[node]
            neighbours = graph.neighbors(node)
            targets = protocol.select_call_targets(
                state, neighbours, round_index, self._protocol_rng
            )
            for target in targets:
                channels_opened += 1
                if target == node or not states.contains(target):
                    continue
                if self.failure_model.channel_fails(self._failure_rng):
                    continue
                channels.append((node, target))

        return channels, channels_opened


@dataclass(frozen=True)
class RunPlan:
    """How one set of seeds runs: the single dispatch decision, by :func:`plan_run`.

    Attributes
    ----------
    engine:
        ``"vectorized"`` (the bulk NumPy engine) or ``"scalar"``.
    batched:
        Whether all seeds run as one ``(R, n)`` program on
        :class:`~repro.core.engine_vectorized.BatchedVectorizedRoundEngine`;
        otherwise each seed runs on its own (a vectorized seed as that
        engine's ``R = 1`` case).
    rows, n:
        The engine state shape ``(R, n)``: ``rows`` is the seed count of a
        batched plan and 1 otherwise.  ``n`` is ``None`` when the graph is
        not built yet (a dry run).
    copy_graph:
        Whether each seed runs on its own copy of the graph: a churn run on
        the scalar engine mutates it, while the vectorized engine churns a
        private CSR copy.
    reason:
        Why a scalar plan was refused the bulk engine (``"forced"`` under
        ``engine="scalar"``); ``None`` for vectorized plans.
    """

    #: Bytes per (replication, node) state entry: informed flag (1) +
    #: informed round (int32) + sorted informed-index vector (int32).
    STATE_BYTES: ClassVar[int] = 9

    engine: str
    batched: bool
    rows: int
    n: Optional[int]
    copy_graph: bool
    reason: Optional[str] = None

    @property
    def state_mb(self) -> Optional[float]:
        """Estimated resident size of the ``(R, n)`` state in MB, if ``n`` is known."""
        if self.n is None:
            return None
        return self.rows * self.n * self.STATE_BYTES / 1e6


def plan_run(
    graph: Optional[Graph],
    protocol: BroadcastProtocol,
    config: Optional[SimulationConfig],
    failure_model: Optional[FailureModel],
    churn_model: Optional[ChurnModel],
    seeds: Sequence[int],
    batch: bool,
) -> RunPlan:
    """Decide how ``seeds`` run; every entry point executes the returned plan.

    * Scalar when ``config.engine`` forces it (``reason == "forced"``), or
      when :func:`vectorization_unsupported_reason` refuses under
      ``"auto"``.  Under ``"vectorized"`` a refusal raises
      :class:`SimulationError` naming the obstacle for a per-seed run.
    * Batched iff vectorized, ``batch`` is on, there is more than one seed
      and there is no churn (membership diverges per replication).
    * ``copy_graph`` iff a churn run lands on the scalar engine.

    ``graph`` is ``None`` when it is not built yet (``run-spec --dry-run``):
    the plan's ``n`` is then ``None`` too.  Pure: builds and draws nothing.
    """
    cfg = config if config is not None else SimulationConfig()
    churn = churn_model is not None and not isinstance(churn_model, NoChurn)
    reason: Optional[str] = "forced"
    if cfg.engine != "scalar":
        reason = vectorization_unsupported_reason(
            graph, protocol, cfg, failure_model, churn_model
        )
        if reason is not None and cfg.engine == "vectorized":
            raise SimulationError(f"engine='vectorized' requested but {reason}")
    batched = reason is None and batch and len(seeds) > 1 and not churn
    return RunPlan(
        engine="scalar" if reason is not None else "vectorized",
        batched=batched,
        rows=len(seeds) if batched else 1,
        n=graph.node_count if graph is not None else None,
        copy_graph=churn and reason is not None,
        reason=reason,
    )


def run_broadcast(
    graph: Graph,
    protocol: BroadcastProtocol,
    source: int = 0,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    failure_model: Optional[FailureModel] = None,
    churn_model: Optional[ChurnModel] = None,
) -> RunResult:
    """Run one broadcast on the engine :func:`plan_run` picks for one seed.

    ``config.engine`` selects the execution strategy: ``"auto"`` (default)
    uses the bulk NumPy engine when the protocol and configuration support it
    and falls back to the scalar engine otherwise; ``"scalar"`` and
    ``"vectorized"`` force one path (the latter raises
    :class:`SimulationError`, naming the obstacle, if vectorization is
    impossible).  A vectorized plan runs as the one-seed case of the bulk
    engine.  Both engines produce the same :class:`RunResult` shape;
    ``result.metadata["engine"]`` records which one ran.  The run uses
    ``graph`` itself, so a scalar churn run mutates it (the plan's
    ``copy_graph``); the per-seed loops pass each seed its own copy.
    """
    plan = plan_run(
        graph, protocol, config, failure_model, churn_model, [seed], batch=False
    )
    if plan.engine == "scalar":
        return RoundEngine(
            graph=graph,
            protocol=protocol,
            config=config,
            seed=seed,
            failure_model=failure_model,
            churn_model=churn_model,
        ).run(source=source)
    (result,) = BatchedVectorizedRoundEngine(
        graph=graph,
        protocol=protocol,
        seeds=[seed],
        config=config,
        failure_model=failure_model,
        churn_model=churn_model,
    ).run(source=source)
    # A per-seed run records no batch size.
    del result.metadata["batch_size"]
    return result


def run_broadcast_batch(
    graph: Graph,
    protocol: BroadcastProtocol,
    seeds: Sequence[int],
    source: int = 0,
    config: Optional[SimulationConfig] = None,
    failure_model: Optional[FailureModel] = None,
    churn_model: Optional[ChurnModel] = None,
) -> list:
    """Run one broadcast per seed, batched into a single NumPy program.

    The bulk engine holds all replications as ``(R, n)`` state arrays and
    amortises per-round bookkeeping across them; each replication keeps its
    own generator streams, so every returned :class:`RunResult` is
    bit-identical to ``run_broadcast(..., seed=seeds[r])`` under the
    vectorized engine (the batch only adds ``metadata["batch_size"]``).

    One ``protocol`` instance drives all replications (it is reset at the
    start of each run).  When :func:`plan_run` does not batch — one seed,
    churn (membership diverges per replication), or a scalar plan — the
    seeds run one by one through :func:`run_broadcast`, each on its own
    graph copy when the plan says so.  With ``config.engine ==
    "vectorized"`` the function raises only when the per-seed path cannot
    vectorize either, naming that obstacle.
    """
    plan = plan_run(
        graph, protocol, config, failure_model, churn_model, seeds, batch=True
    )
    if plan.batched:
        return BatchedVectorizedRoundEngine(
            graph=graph,
            protocol=protocol,
            seeds=seeds,
            config=config,
            failure_model=failure_model,
        ).run(source=source)
    return [
        run_broadcast(
            graph=graph.copy() if plan.copy_graph else graph,
            protocol=protocol,
            source=source,
            seed=seed,
            config=config,
            failure_model=failure_model,
            churn_model=churn_model,
        )
        for seed in seeds
    ]
