"""The bulk NumPy round engine — the simulator's fast path.

This engine executes the same synchronous random phone call model as
:class:`repro.core.engine.RoundEngine`, but represents the whole round state
as arrays (:class:`repro.core.node.VectorState`) and executes each round with
bulk operations over the graph's CSR adjacency view:

1. the protocol reports who pushes and who answers calls this round — as a
   sorted *index pool* (``vector_push_samplers``, maintained incrementally by
   the engine) when it opts into index tracking, or as boolean masks;
2. the samplers' calls are drawn in *blocks* of at most
   :data:`_BLOCK_CHANNELS` channels, in channel order: uniforms mapped to
   stub offsets for fanout 1, a random-key top-``k`` selection for larger
   fanouts (each sampler's ``k`` stubs in ascending key order, a full row
   sort, so loss draws line up on every machine), or a slice of a custom
   target hook's output;
3. each block is filtered, loss-tested (Bernoulli arrays over channels and
   transmissions) and cut down to its still-uninformed receivers before the
   next block is drawn;
4. only fresh receivers reach the sparse commit
   (:meth:`VectorState.commit_delivered`, which deduplicates across
   blocks), so "received in round ``t``, effective in ``t + 1``" holds
   exactly as in the scalar engine.

Active sets and scratch buffers
-------------------------------
Protocols with ``uses_index_pools`` never trigger an O(n) flag scan in
push-only rounds: the engine maintains the sorted informed-index vector by
merge at each commit, the protocol hands back the relevant pool (informed,
last round's newly informed, Algorithm 1's active list), and sampling cost is
proportional to the number of *pushers*, which is what makes the exponential
growth phase cost O(n) in aggregate rather than O(n · rounds).  A round's
scratch is one block: push-only rounds never build a caller array (the
self-loop test compares a block with its own sampler rows), the reused
fanout-1 scratch buffers hold one block, and all index arrays follow the
CSR index dtype (int32 below two billion stubs).  Draw *sequences* do not
depend on the block bounds: pools enumerate exactly the nodes the mask scan
would, in the same order; fanout-1 blocks draw with
``Generator.random(out=...)``, the stream of one ``random(k)`` call; a
custom target hook is called once per round with every sampler; and on the
failure stream all channel-failure draws (one byte of mask per channel)
precede the push-loss draws, which precede the pull-loss draws — a lossy
push-pull round holds its pull receivers until the push pass ends.  (The
batched engine below still draws and delivers each round whole.)

Batched replications
--------------------
:class:`BatchedVectorizedRoundEngine` runs ``R`` independent replications of
the same configuration (one seed per replication) over a shared graph in one
NumPy program, holding the whole ensemble as ``(R, n)`` state arrays.  Each
replication draws from its own generator pair spawned exactly as the
single-run engine spawns them (``RandomSource(seed).spawn("protocol")`` /
``spawn("failures")``), and the per-replication draw *sequences* are kept
call-for-call identical to a single run, so every row of a batch is
bit-identical to the corresponding :class:`VectorizedRoundEngine` run.  What
the batch amortises is everything *around* the draws: state commits, channel
bookkeeping, delivery scatter, and per-run setup all happen once per round for
the whole ensemble instead of once per round per seed.

Row compaction
~~~~~~~~~~~~~~
When ``stop_when_informed`` holds (the default) and
``SimulationConfig.batch_row_compaction`` is on, completed replications are
*remapped out* of the ``(R, n)`` state the moment they finish: the state
planes, the informed-index vectors, the per-replication generator lists, and
any protocol-held per-row tables (via the
:meth:`BroadcastProtocol.vector_compact_rows` hook) are all sliced down to
the surviving rows, and an ``origin`` map carries results back to the
original seed order.  Long-tail sweeps therefore shrink their arrays as rows
finish instead of carrying dead rows to the last straggler's round.
Compaction never touches a generator stream, so the results are bit-identical
with compaction on or off (asserted in ``tests/test_engine_compaction.py``).

Dispatch rules
--------------
The fast path reproduces the scalar engine's *aggregate* semantics (success,
rounds-to-completion distribution, transmission and channel accounting
identities) but not its per-call draw order, so runs with the same seed agree
statistically, not bit-for-bit.  The bulk engines therefore run only when
nothing the scalar engine offers beyond aggregates is requested:

* the protocol opts in (``supports_vectorized``) and needs neither the
  per-channel exchange hook nor the contact-memory mechanism;
* churn, when present, is a model that opted into the bulk membership hook
  (``ChurnModel.supports_vectorized`` / ``vector_apply``) driving a protocol
  that opted into dynamic membership
  (``BroadcastProtocol.supports_dynamic_membership``);
* the failure model is ``ReliableDelivery`` or ``IndependentLoss`` (arbitrary
  strategy objects cannot be batched);
* the graph's node ids are contiguous ``0..n-1``.

:func:`vectorization_unsupported_reason` holds these checks and returns a
human-readable reason (or ``None``).  The dispatch decision itself is made
once, by :func:`repro.core.engine.plan_run`: every entry point
(``run_broadcast``, ``run_broadcast_batch``, the experiment runner and
``run-spec --dry-run``) executes the :class:`~repro.core.engine.RunPlan` it
returns, and only the two constructors below re-check the predicate as a
guard.  The batched engine accepts exactly the combinations the single-run
engine accepts except churn, which it refuses itself: replications' graphs
diverge, so there is no shared CSR to batch over, and churn runs per seed.

Dynamic membership (vectorized churn)
-------------------------------------
With an opted-in churn model the single-run engine switches to *dynamic
mode*: it copies the graph's CSR into private mutable arrays (the caller's
graph object is never touched), enables tombstone masks on the state
(:meth:`VectorState.enable_membership`), and applies the churn model's
``vector_apply`` at the top of every round through a narrow mutation surface
(:class:`VectorChurnOps`):

* **departures** clear a node's flags, evict its id from every sorted index
  pool (engine- and protocol-held), and mark it dead.  Its CSR row stays as
  a *tombstone* — survivors' stubs that point at it are filtered out at call
  time together with self-loops and failed channels, so survivors keep their
  stub-count degree (the draw arithmetic never changes shape mid-round);
* **joins** splice each joiner into ``max(1, target_degree // 2)`` uniformly
  chosen live stubs — replace stub ``(u, v)`` with ``(u, J)``/``(v, J)`` in
  place and append ``[u, v, …]`` as ``J``'s tail row — so existing nodes keep
  their degree, a joiner gets degree ``2·max(1, target_degree // 2)`` minus
  two per skipped draw, and id growth is append-only.  A splice touches only
  the stubs of its own unordered pair ``{u, v}``, so the kernel applies every
  draw whose pair is unique in the call in one array pass and replays only
  the draws that share a pair (parallel edges, one edge drawn twice) in draw
  order — the same result as splicing draw by draw;
* when a quarter of the id space is dead, **node compaction** renumbers it
  away (the node-axis mirror of batch row compaction): the state planes are
  sliced via :meth:`VectorState.compact_nodes`, the CSR is rebuilt through
  the returned id-remap table (dead targets become ``-1`` sentinels), and
  protocol-held pools remap through
  :meth:`BroadcastProtocol.vector_compact_nodes`.

Every random decision on this path — the churn models' draws and the
engine's sampling — depends only on live-node *positions* (rank in ascending
id order), live counts, and per-row stub counts, all invariant under the
monotone compaction remap.  Vectorized churn is therefore draw-for-draw
deterministic and bit-identical across compaction on/off
(``SimulationConfig.churn_node_compaction``) and across every execution path
that replays the same seeds (asserted in ``tests/test_churn_vectorized.py``).
Scalar and vectorized churn agree *statistically*, not bit-for-bit: the
scalar engine deletes departed nodes' edges outright (survivor degrees
shrink) where this engine tombstones them (survivor stub-counts persist
until their calls are filtered).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..failures.churn import ChurnModel, NoChurn
from ..failures.message_loss import FailureModel, IndependentLoss, ReliableDelivery
from ..graphs.base import Graph
from ..protocols.base import BroadcastProtocol
from .config import SimulationConfig
from .errors import SimulationError
from .metrics import RoundRecord, RunResult
from .node import VectorState
from .rng import RandomSource

__all__ = [
    "VectorizedRoundEngine",
    "BatchedVectorizedRoundEngine",
    "VectorChurnOps",
    "vectorization_unsupported_reason",
]

#: Upper bound on random keys materialised per sampling chunk (rows × max
#: degree): 2¹⁹ float64 keys, 4 MiB, so the k-distinct path's scratch stays
#: a few chunk-sized arrays whatever the sampler count.
_CHUNK_ENTRIES = 1 << 19

#: Upper bound on channels per delivery block of a single run (and per
#: top-``k`` chunk).  A round's sampling and delivery scratch is one block.
_BLOCK_CHANNELS = 1 << 18

#: ``(callers, callees)`` of a block, callers broadcastable to callees.
_ChannelBlock = Tuple[np.ndarray, np.ndarray]


def vectorization_unsupported_reason(
    graph: Optional[Graph],
    protocol: BroadcastProtocol,
    config: SimulationConfig,
    failure_model: Optional[FailureModel] = None,
    churn_model: Optional[ChurnModel] = None,
) -> Optional[str]:
    """Why one seed of this run cannot use the bulk engine, or ``None``.

    Churn is admissible for models and protocols that opted into the
    dynamic-membership hooks.  ``graph`` is ``None`` when it is not built
    yet (a dry run); the contiguous-ids check, which every registry family
    passes, is then skipped.
    """
    if not protocol.supports_vectorized:
        return f"protocol {protocol.name!r} does not implement the bulk hooks"
    if protocol.needs_exchange_hook:
        return f"protocol {protocol.name!r} needs the per-channel exchange hook"
    if protocol.memory_window > 0:
        return f"protocol {protocol.name!r} uses the contact-memory mechanism"
    # The bulk engine never builds a StateTable, so protocols that override
    # the StateTable-based lifecycle hooks cannot run on it even if they
    # opted in — guard against a future protocol combining both.
    if type(protocol).on_round_start is not BroadcastProtocol.on_round_start:
        return f"protocol {protocol.name!r} overrides the on_round_start hook"
    if type(protocol).finished is not BroadcastProtocol.finished:
        return f"protocol {protocol.name!r} overrides the finished() rule"
    if type(protocol).on_round_committed is not BroadcastProtocol.on_round_committed and (
        type(protocol).vector_on_round_committed
        is BroadcastProtocol.vector_on_round_committed
    ):
        return (
            f"protocol {protocol.name!r} overrides on_round_committed without "
            "a bulk counterpart"
        )
    if (
        type(protocol).select_call_targets is not BroadcastProtocol.select_call_targets
        and not protocol.has_custom_vector_targets
    ):
        return (
            f"protocol {protocol.name!r} overrides select_call_targets without "
            "a bulk counterpart"
        )
    if churn_model is not None and not isinstance(churn_model, NoChurn):
        if not getattr(churn_model, "supports_vectorized", False):
            return (
                f"churn model {type(churn_model).__name__} does not implement "
                "the bulk membership hook (vector_apply)"
            )
        if not protocol.supports_dynamic_membership:
            return (
                f"protocol {protocol.name!r} does not support dynamic "
                "membership (departures/joins mid-broadcast)"
            )
    if failure_model is not None and not isinstance(
        failure_model, (ReliableDelivery, IndependentLoss)
    ):
        return (
            f"failure model {type(failure_model).__name__} cannot be batched "
            "(only ReliableDelivery / IndependentLoss are vectorizable)"
        )
    if graph is not None and not graph.has_contiguous_ids():
        return "graph node ids are not contiguous 0..n-1 (CSR export impossible)"
    return None


def _fanout1_offsets(
    uniforms: np.ndarray, sampler_degrees, dtype: np.dtype
) -> np.ndarray:
    """Uniform stub offsets from pre-drawn uniforms (``floor(U · d)``).

    A batch of uniforms is ~2× faster to generate than per-element bounded
    integers and ``floor(U · d)`` is uniform over ``[0, d)`` up to an
    O(2⁻⁵³) float bias; the clip guards the half-ulp rounding edge where
    ``U · d`` could land exactly on ``d``.  ``sampler_degrees`` may be a
    per-sampler array or a scalar (regular graphs).  Both engines draw the
    same ``k`` uniforms per (replication, round), in one call or block by
    block, and map them through this arithmetic, which is what keeps a
    batch row's stream identical to a single run's.  ``dtype`` is the CSR
    index dtype: an offset never exceeds a degree, so it fits wherever the
    stub positions do.
    """
    offsets = (uniforms * sampler_degrees).astype(dtype)
    np.minimum(offsets, np.asarray(sampler_degrees) - 1, out=offsets)
    return offsets


def _stub_target_blocks(
    generator: np.random.Generator,
    samplers: np.ndarray,
    fanout: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    uniform_degree: Optional[int] = None,
) -> Tuple[int, Iterator[_ChannelBlock]]:
    """Each sampler calls ``min(fanout, degree)`` distinct adjacency stubs.

    Returns ``(channel count, blocks)``; each block is drawn when requested.
    Saturated samplers (degree <= ``fanout``) call every stub and come
    first, then the deep ones in sampler order, whose blocks pair the
    ``(rows, 1)`` sampler column with ``(rows, fanout)`` callees.  Sampling
    is over adjacency *positions*, so parallel edges weight the draw exactly
    as the scalar ``select_call_targets`` does.  A deep sampler calls its
    ``fanout`` smallest of ``degree`` iid uniform keys, in ascending key
    order (a full row sort), so the loss draws that follow see the same
    channel order on every machine; only exact float ties between keys
    (about 3·10⁻¹⁵ per row of 8) remain platform-dependent.  The key width
    is the global max degree and consecutive chunks' keys form one stream,
    so the draws depend neither on the bounds nor on ``uniform_degree``.
    """
    if uniform_degree is not None and uniform_degree > fanout:
        # Every sampler is deep and no key row needs padding.
        full_nodes = lengths = samplers[:0]
        deep_nodes, deep_degrees = samplers, None
        max_degree = uniform_degree
    else:
        sampler_degrees = degrees[samplers]
        saturated = sampler_degrees <= fanout
        full_nodes, lengths = samplers[saturated], sampler_degrees[saturated]
        deep_nodes, deep_degrees = samplers[~saturated], sampler_degrees[~saturated]
        max_degree = int(deep_degrees.max()) if deep_nodes.size else 0
    padded = deep_degrees is not None and bool((deep_degrees != max_degree).any())

    def blocks() -> Iterator[_ChannelBlock]:
        rows = max(1, _BLOCK_CHANNELS // fanout)
        for start in range(0, full_nodes.size, rows):
            nodes = full_nodes[start : start + rows]
            counts = lengths[start : start + rows]
            within = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            yield (
                np.repeat(nodes, counts),
                indices[np.repeat(indptr[nodes], counts) + within],
            )
        if not deep_nodes.size:
            return
        column = np.arange(max_degree)
        rows = max(1, min(_CHUNK_ENTRIES // max_degree, _BLOCK_CHANNELS // fanout))
        for start in range(0, deep_nodes.size, rows):
            nodes = deep_nodes[start : start + rows]
            keys = generator.random((nodes.size, max_degree))
            if padded:
                keys[column >= deep_degrees[start : start + rows, None]] = np.inf
            # argpartition would leave the order within the k to the SIMD
            # dispatch, and the loss draws follow that order.
            chosen = np.argsort(keys, axis=1)[:, :fanout]
            chosen += indptr[nodes][:, None]
            yield nodes[:, None], indices[chosen]

    return int(lengths.sum()) + deep_nodes.size * fanout, blocks()


def _sample_stub_targets(
    generator: np.random.Generator,
    samplers: np.ndarray,
    fanout: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    uniform_degree: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_stub_target_blocks` filled into flat ``(callers, callees)``
    arrays, one entry per channel (the batched engine's per-row draw)."""
    empty = np.empty(0, dtype=np.int64)
    if samplers.size == 0 or fanout <= 0:
        return empty, empty
    channels, blocks = _stub_target_blocks(
        generator, samplers, fanout, indptr, indices, degrees, uniform_degree
    )
    callers = np.empty(channels, dtype=samplers.dtype)
    callees = np.empty(channels, dtype=indices.dtype)
    stop = 0
    for block_callers, block_callees in blocks:
        start, stop = stop, stop + block_callees.size
        callers[start:stop].reshape(block_callees.shape)[...] = block_callers
        callees[start:stop].reshape(block_callees.shape)[...] = block_callees
    return callers, callees


def _resolve_failure_model(
    config: SimulationConfig, failure_model: Optional[FailureModel]
) -> FailureModel:
    """The failure model a run uses: explicit object, config-derived, or none."""
    if failure_model is not None:
        return failure_model
    if config.message_loss_probability > 0 or config.channel_failure_probability > 0:
        return IndependentLoss(
            transmission_loss_probability=config.message_loss_probability,
            channel_failure_probability=config.channel_failure_probability,
        )
    return ReliableDelivery()


class VectorChurnOps:
    """The membership-mutation surface handed to ``ChurnModel.vector_apply``.

    A thin, per-round view over the engine's dynamic-membership machinery:
    ascending live-id queries plus the two mutators (bulk departures and
    stub-stealing joins).  Churn models draw their own randomness from the
    engine's dedicated ``"churn"`` stream and must keep every draw a function
    of live *positions*, counts, and degrees only (renumbering invariance —
    see :mod:`repro.failures.churn`).
    """

    __slots__ = ("_engine", "_state", "_round_index")

    def __init__(
        self, engine: "VectorizedRoundEngine", state: VectorState, round_index: int
    ) -> None:
        self._engine = engine
        self._state = state
        self._round_index = round_index

    # -- queries ---------------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Number of live nodes right now."""
        return self._state.alive_count

    @property
    def source(self) -> int:
        """Current id of the broadcast source (``-1`` if it departed)."""
        return self._state.source

    def live_nodes(self) -> np.ndarray:
        """Ascending ids of all live nodes."""
        return np.flatnonzero(self._state.alive)

    def informed_nodes(self) -> np.ndarray:
        """Ascending ids of live informed nodes (dead nodes never count)."""
        return np.flatnonzero(self._state.informed)

    def newly_informed_nodes(self) -> np.ndarray:
        """Ascending ids of nodes informed exactly last round (the frontier)."""
        state = self._state
        return np.flatnonzero(
            state.informed & (state.informed_round == self._round_index - 1)
        )

    # -- mutators --------------------------------------------------------------

    def depart(self, ids: np.ndarray) -> None:
        """Remove the (live, ascending) node ids in ``ids`` from the network."""
        self._engine._depart_nodes(ids, self._state)

    def join(
        self, count: int, target_degree: int, generator: np.random.Generator
    ) -> List[int]:
        """Add ``count`` fresh nodes by stub-stealing splices; return their ids.

        Draws exactly one ``generator.random(count · splices)`` batch for the
        stub choices (splices = ``max(1, target_degree // 2)``), positions
        taken uniformly over the live stub space snapshot at call time.
        """
        return self._engine._join_nodes(count, target_degree, generator, self._state)


class _BulkEngineBase:
    """CSR-derived caches, scratch buffers, and failure unpacking shared by
    both bulk engines.

    Kept in one place so a fix to channel-cost caching, self-loop detection,
    degree caching, or the loss-probability plumbing cannot drift between the
    single-run and batched engines.  Subclasses call the two ``_init_*``
    helpers after setting ``self.failure_model``.
    """

    def _init_bulk_state(self, graph: Graph) -> None:
        self._indptr, self._indices = graph.csr()
        # Cached on the graph next to the CSR view, so per-seed loops over
        # the same graph do not re-derive these O(m) facts per run.
        self._has_self_loops, self._uniform_degree = graph.csr_stats()
        self._n = self._indptr.size - 1
        # Every O(n) derived array below is materialised lazily: a push
        # broadcast over a regular graph touches none of them, which keeps
        # the engine's own footprint out of the peak.
        self._channel_cost_cache: dict = {}
        self._channel_info_cache: dict = {}
        self._degrees_array: Optional[np.ndarray] = None
        self._degree_positive_array: Optional[np.ndarray] = None
        self._nz_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if self._uniform_degree is not None:
            self._all_degrees_positive: Optional[bool] = self._uniform_degree > 0
        else:
            self._all_degrees_positive = None
        # Fanout-1 scratch buffers (allocated lazily at first use, reused
        # every round, at most one delivery block long): uniforms, stub
        # offsets, gather positions, callees.
        self._scratch_uniform: Optional[np.ndarray] = None
        self._scratch_offset: Optional[np.ndarray] = None
        self._scratch_position: Optional[np.ndarray] = None
        self._scratch_callee: Optional[np.ndarray] = None

    def _init_failure_probabilities(self) -> None:
        if isinstance(self.failure_model, IndependentLoss):
            self._loss_p = self.failure_model.transmission_loss_probability
            self._channel_fail_p = self.failure_model.channel_failure_probability
        else:
            self._loss_p = 0.0
            self._channel_fail_p = 0.0

    # -- lazy CSR-derived caches ---------------------------------------------------

    @property
    def _degrees(self) -> np.ndarray:
        if self._degrees_array is None:
            self._degrees_array = np.diff(self._indptr)
        return self._degrees_array

    @property
    def _degree_positive(self) -> np.ndarray:
        if self._degree_positive_array is None:
            self._degree_positive_array = self._degrees > 0
        return self._degree_positive_array

    def _all_positive(self) -> bool:
        if self._all_degrees_positive is None:
            self._all_degrees_positive = bool(self._degree_positive.all())
        return self._all_degrees_positive

    def _nz(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(nodes with a neighbour, their degrees)`` in CSR index dtype."""
        if self._nz_cache is None:
            if self._all_positive():
                nodes = np.arange(self._n, dtype=self._indices.dtype)
            else:
                nodes = np.flatnonzero(self._degree_positive).astype(
                    self._indices.dtype, copy=False
                )
            self._nz_cache = (nodes, self._degrees[nodes])
        return self._nz_cache

    def _channel_info(self, fanout: int) -> Tuple[int, Optional[int]]:
        """``(total channels over all nodes, uniform per-node cost or None)``.

        The uniform cost applies when every node pays the same
        ``min(degree, fanout)`` — regular graphs, or fanout 1 without
        isolated nodes — and turns pool/mask channel accounting into a
        multiplication instead of a gather over a cost array.
        """
        cached = self._channel_info_cache.get(fanout)
        if cached is None:
            if self._uniform_degree is not None:
                cost = min(self._uniform_degree, fanout)
                cached = (self._n * cost, cost)
            elif fanout == 1 and self._all_positive():
                cached = (self._n, 1)
            else:
                cached = (int(self._channel_cost_array(fanout).sum()), None)
            self._channel_info_cache[fanout] = cached
        return cached

    def _channel_cost_array(self, fanout: int) -> np.ndarray:
        """``min(degree, fanout)`` per node, cached per fanout."""
        cached = self._channel_cost_cache.get(fanout)
        if cached is None:
            cached = np.minimum(self._degrees, fanout)
            self._channel_cost_cache[fanout] = cached
        return cached

    # -- fanout-1 scratch sampling -------------------------------------------------

    def _ensure_scratch(self, capacity: int) -> None:
        current = self._scratch_uniform
        if current is not None and current.size >= capacity:
            return
        # Free before reallocating so the old and new generation of buffers
        # never coexist (the growth pattern is geometric anyway — sampler
        # counts roughly double per round during the growth phase).
        self._scratch_uniform = None
        self._scratch_offset = None
        self._scratch_position = None
        self._scratch_callee = None
        idx_dtype = self._indices.dtype
        self._scratch_uniform = np.empty(capacity, dtype=np.float64)
        self._scratch_offset = np.empty(capacity, dtype=idx_dtype)
        self._scratch_position = np.empty(capacity, dtype=idx_dtype)
        self._scratch_callee = np.empty(capacity, dtype=idx_dtype)

    #: Below this sampler count the plain allocation path beats the scratch
    #: pipeline (whose extra view/out bookkeeping costs ~10 µs per round,
    #: which dominates when the arrays themselves are only a few KB).
    _SCRATCH_MIN_SAMPLERS = 1 << 15

    def _fanout1_callees(
        self, generator: np.random.Generator, samplers: np.ndarray
    ) -> np.ndarray:
        """Callees of one uniform stub draw per sampler, via scratch buffers.

        Called once per delivery block, so the scratch stays one block.
        Returns a view into the callee scratch buffer (valid until the next
        call); draws bit-identically to the allocation-based path —
        ``generator.random(out=...)`` consumes the same stream, and the
        in-place ``floor(U · d)`` arithmetic produces the same offsets.
        """
        k = samplers.size
        if k < self._SCRATCH_MIN_SAMPLERS:
            uniforms = generator.random(k)
            if self._uniform_degree is not None:
                offsets = _fanout1_offsets(
                    uniforms, self._uniform_degree, self._indices.dtype
                )
                return self._indices[samplers * self._uniform_degree + offsets]
            offsets = _fanout1_offsets(
                uniforms, self._degrees[samplers], self._indices.dtype
            )
            return self._indices[self._indptr[samplers] + offsets]
        self._ensure_scratch(k)
        uniforms = self._scratch_uniform[:k]
        generator.random(out=uniforms)
        offsets = self._scratch_offset[:k]
        positions = self._scratch_position[:k]
        if self._uniform_degree is not None:
            degree = self._uniform_degree
            np.multiply(uniforms, degree, out=uniforms)
            np.copyto(offsets, uniforms, casting="unsafe")  # trunc == floor ≥ 0
            np.minimum(offsets, degree - 1, out=offsets)
            np.multiply(samplers, degree, out=positions, casting="unsafe")
            np.add(positions, offsets, out=positions)
        else:
            sampler_degrees = self._degrees[samplers]
            np.multiply(uniforms, sampler_degrees, out=uniforms)
            np.copyto(offsets, uniforms, casting="unsafe")
            np.subtract(sampler_degrees, 1, out=sampler_degrees)
            np.minimum(offsets, sampler_degrees, out=offsets)
            np.take(self._indptr, samplers, out=positions)
            np.add(positions, offsets, out=positions)
        callees = self._scratch_callee[:k]
        np.take(self._indices, positions, out=callees)
        return callees


class VectorizedRoundEngine(_BulkEngineBase):
    """Drives one protocol over one graph with bulk array operations.

    Accepts the same parameters as :class:`repro.core.engine.RoundEngine` and
    produces the same :class:`RunResult` shape; construction raises
    :class:`SimulationError` if the combination cannot be vectorized (see
    :func:`vectorization_unsupported_reason`).  RNG streams are spawned with
    the same labels as the scalar engine ("protocol" / "failures"), but draw
    granularity differs, so equal seeds give statistically equivalent — not
    identical — runs.
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
        self.failure_model = _resolve_failure_model(self.config, failure_model)
        self.churn_model = churn_model if churn_model is not None else NoChurn()

        reason = vectorization_unsupported_reason(
            graph, protocol, self.config, self.failure_model, self.churn_model
        )
        if reason is not None:
            raise SimulationError(f"run cannot be vectorized: {reason}")

        self.rng = RandomSource(seed=seed, name="engine")
        self._protocol_gen = self.rng.spawn("protocol").generator
        self._failure_gen = self.rng.spawn("failures").generator
        # Spawned with the scalar engine's label whether or not churn is
        # attached (spawns are independent derivations, not stream draws).
        self._churn_rng = self.rng.spawn("churn")
        self._dynamic = not isinstance(self.churn_model, NoChurn)
        self._state: Optional[VectorState] = None
        self._departures_total = 0
        self._arrivals_total = 0
        self._node_compactions = 0
        self._splices_made = 0
        self._splices_skipped = 0
        self._init_failure_probabilities()
        self._init_bulk_state(graph)

    # -- public API ---------------------------------------------------------------

    def run(self, source: int = 0) -> RunResult:
        """Broadcast a single message created at ``source`` in round 0."""
        if source not in self.graph:
            raise SimulationError(f"source node {source} is not in the graph")

        n = self.graph.node_count
        self.protocol.reset()
        self.churn_model.reset()
        state = VectorState(n=n, source=source)
        if self.protocol.uses_index_pools:
            state.enable_index_tracking()
        if self._dynamic:
            state.enable_membership()
            self._state = state
            self._reset_dynamic_topology()
        horizon = self.protocol.horizon()
        if self.config.max_rounds is not None:
            horizon = min(horizon, self.config.max_rounds)

        history: list = []
        phase_transmissions: dict = {}
        totals = {"push": 0, "pull": 0, "channels": 0, "lost": 0}
        rounds_to_completion: Optional[int] = None
        rounds_executed = 0

        for round_index in range(1, horizon + 1):
            rounds_executed = round_index
            if self._dynamic:
                self._apply_churn(round_index, state)
            record = self._run_round(round_index, state)
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

            if rounds_to_completion is None and state.all_informed():
                rounds_to_completion = round_index
                if self.config.stop_when_informed:
                    break

        success = bool(state.all_informed())
        metadata = {
            "protocol": self.protocol.describe(),
            "failure_model": self.failure_model.describe(),
            "churn_model": self.churn_model.describe(),
            "final_node_count": (
                state.alive_count if self._dynamic else self.graph.node_count
            ),
            "engine": "vectorized",
        }
        if self._dynamic:
            metadata["churn"] = {
                "departures": self._departures_total,
                "arrivals": self._arrivals_total,
                "node_compactions": self._node_compactions,
                "splices": self._splices_made,
                "splices_skipped": self._splices_skipped,
            }
            self._state = None
        return RunResult(
            n=n,
            protocol=self.protocol.name,
            source=source,
            success=success,
            rounds_executed=rounds_executed,
            rounds_to_completion=rounds_to_completion,
            total_push_transmissions=totals["push"],
            total_pull_transmissions=totals["pull"],
            total_channels_opened=totals["channels"],
            total_lost_transmissions=totals["lost"],
            final_informed=int(state.informed_count),
            history=history,
            phase_transmissions=phase_transmissions,
            metadata=metadata,
        )

    # -- dynamic membership (vectorized churn) -------------------------------------

    def _reset_dynamic_topology(self) -> None:
        """Private mutable CSR copies for a fresh churn run.

        The caller's graph is never mutated on this path — departures
        tombstone rows, joins append — so re-running the engine (or running
        many seeds over one graph) needs no ``graph.copy()``; each run
        restarts from the graph's pristine CSR here.
        """
        indptr, indices = self.graph.csr()
        self._indptr = np.array(indptr, copy=True)
        self._indices = np.array(indices, copy=True)
        self._n = self._indptr.size - 1
        # Joiner degrees differ from the seed graph's, so the regular-graph
        # shortcuts no longer hold; everything runs off per-row stub counts.
        self._uniform_degree = None
        self._invalidate_topology_caches()
        self._departures_total = 0
        self._arrivals_total = 0
        self._node_compactions = 0
        self._splices_made = 0
        self._splices_skipped = 0

    def _invalidate_topology_caches(self) -> None:
        self._degrees_array = None
        self._degree_positive_array = None
        self._all_degrees_positive = None
        self._nz_cache = None
        self._channel_cost_cache = {}
        self._channel_info_cache = {}

    def _apply_churn(self, round_index: int, state: VectorState) -> None:
        """Run the churn model's bulk hook, then compact if enough ids died."""
        ops = VectorChurnOps(self, state, round_index)
        event = self.churn_model.vector_apply(round_index, ops, self._churn_rng)
        self._departures_total += event.departures
        self._arrivals_total += event.arrivals
        if self.config.churn_node_compaction:
            dead = state.n - state.alive_count
            # Same threshold as batch row compaction: each compaction costs
            # one O(live + stubs) rebuild, so waiting for a quarter of the id
            # space keeps total copy volume linear while the per-round scans
            # track the live network instead of the tombstones.
            if dead and dead * 4 >= state.n:
                self._compact_nodes(state)

    def _depart_nodes(self, ids: np.ndarray, state: VectorState) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        state.remove_nodes(ids)
        self.protocol.vector_remove_nodes(ids, state)
        # Degrees and cost arrays are untouched (tombstone rows keep their
        # stubs); only the live-node aggregates change.
        self._nz_cache = None
        self._channel_info_cache = {}

    def _join_nodes(
        self,
        count: int,
        target_degree: int,
        generator: np.random.Generator,
        state: VectorState,
    ) -> List[int]:
        count = int(count)
        if count <= 0:
            return []
        splices = max(1, int(target_degree) // 2)
        # Snapshot the live stub space *before* growing: stub positions are
        # (live-rank, offset) pairs, invariant under compaction renumbering.
        alive_nodes = np.flatnonzero(state.alive)
        base_n = state.n
        degrees = self._degrees
        live_degrees = degrees[alive_nodes].astype(np.int64, copy=False)
        cum = np.cumsum(live_degrees)
        total_stubs = int(cum[-1]) if cum.size else 0

        new_ids = state.grow_nodes(count)
        indptr = self._indptr
        indices = self._indices
        made = np.zeros(count * splices, dtype=bool)
        tail = np.empty(0, dtype=indices.dtype)
        if total_stubs > 0:
            uniforms = generator.random(count * splices)
            positions = (uniforms * total_stubs).astype(np.int64)
            np.minimum(positions, total_stubs - 1, out=positions)
            owner_rank = np.searchsorted(cum, positions, side="right")
            owners = alive_nodes[owner_rank]
            offsets = positions - (cum[owner_rank] - live_degrees[owner_rank])
            stub_pos = indptr[owners].astype(np.int64) + offsets
            partners = indices[stub_pos].astype(np.int64)
            joiners = (base_n + np.arange(made.size) // splices).astype(indices.dtype)
            made = self._splice_draws(owners, stub_pos, partners, joiners, base_n, state)
            made_count = int(np.count_nonzero(made))
            self._splices_made += made_count
            self._splices_skipped += made.size - made_count
            # Draw order is joiner-major, so the successful (u, v) pairs in
            # draw order are exactly the joiners' tail rows back to back.
            tail = np.stack([owners, partners], axis=1)[made].astype(
                indices.dtype
            ).reshape(-1)

        lengths = 2 * np.count_nonzero(made.reshape(count, splices), axis=1)
        new_indptr = np.empty(indptr.size + count, dtype=indptr.dtype)
        new_indptr[: indptr.size] = indptr
        np.cumsum(lengths, out=new_indptr[indptr.size :])
        new_indptr[indptr.size :] += indptr[-1]
        if tail.size:
            self._indices = np.concatenate([indices, tail])
        self._indptr = new_indptr
        self._n = new_indptr.size - 1
        self._invalidate_topology_caches()
        return new_ids.tolist()

    def _splice_draws(
        self,
        owners: np.ndarray,
        stub_pos: np.ndarray,
        partners: np.ndarray,
        joiners: np.ndarray,
        base_n: int,
        state: VectorState,
    ) -> np.ndarray:
        """Apply the splice draws to the CSR in place; return which ones took.

        Draw ``i`` replaces stub ``stub_pos[i]`` of row ``u = owners[i]``
        (value ``v = partners[i]``) and the first stub of row ``v`` valued
        ``u`` with ``joiners[i]``.  It skips tombstones (dead or ``-1``
        targets), self-loop stubs, and stubs a same-round joiner already took
        — the bulk analog of the scalar path's ``has_edge`` check.

        A splice only reads and writes stubs of its own unordered pair
        ``{u, v}``, so draws on distinct pairs commute: every draw whose pair
        is unique this call is applied in one array pass, and only the draws
        sharing a pair (parallel edges, or one edge drawn twice) replay one at
        a time in draw order.  The result equals applying all draws
        sequentially in draw order.
        """
        indptr = self._indptr
        indices = self._indices
        alive = state.alive
        made = np.zeros(owners.size, dtype=bool)
        valid = (partners >= 0) & (partners < base_n) & (partners != owners)
        valid[valid] = alive[partners[valid]]
        draws = np.flatnonzero(valid)
        if draws.size == 0:
            return made
        us = owners[draws]
        vs = partners[draws]
        keys = np.minimum(us, vs) * base_n + np.maximum(us, vs)
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        shared = counts[inverse.reshape(-1)] > 1

        # Unique pairs: gather row v of every draw as one flat segment array
        # and take the first stub valued u in each segment.
        bulk = draws[~shared]
        rows = partners[bulk]
        starts = indptr[rows].astype(np.int64)
        lengths = indptr[rows + 1].astype(np.int64) - starts
        segment = np.repeat(np.arange(bulk.size), lengths)
        flat = np.arange(segment.size, dtype=np.int64) + np.repeat(
            starts - (np.cumsum(lengths) - lengths), lengths
        )
        hit = np.flatnonzero(indices[flat] == owners[bulk][segment])
        if hit.size:
            hit_segment = segment[hit]
            first = np.ones(hit.size, dtype=bool)
            first[1:] = hit_segment[1:] != hit_segment[:-1]
            took = bulk[hit_segment[first]]
            indices[stub_pos[took]] = joiners[took]
            indices[flat[hit[first]]] = joiners[took]
            made[took] = True

        # Shared pairs replay in draw order against the live CSR.  Their
        # stubs started valid, so a changed value means an earlier draw of
        # the same pair already stole the stub.
        for draw in draws[shared].tolist():
            pos = int(stub_pos[draw])
            if indices[pos] >= base_n:
                continue
            u = owners[draw]
            v = int(partners[draw])
            row_start = int(indptr[v])
            back = np.flatnonzero(indices[row_start : int(indptr[v + 1])] == u)
            if back.size == 0:
                continue
            indices[pos] = joiners[draw]
            indices[row_start + int(back[0])] = joiners[draw]
            made[draw] = True
        return made

    def _compact_nodes(self, state: VectorState) -> None:
        """Renumber dead ids away: state planes, CSR, and protocol pools.

        The remap is monotone on survivors (``remap[keep[i]] = i``), so every
        position/degree-based draw downstream is unchanged — compaction
        on/off is bit-transparent, mirroring batch row compaction.
        """
        keep = np.flatnonzero(state.alive)
        indptr = self._indptr
        indices = self._indices
        remap = state.compact_nodes(keep)
        lengths = np.diff(indptr)[keep]
        total = int(lengths.sum())
        new_indptr = np.zeros(keep.size + 1, dtype=indptr.dtype)
        np.cumsum(lengths, out=new_indptr[1:])
        if total:
            starts = np.repeat(indptr[keep], lengths)
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(lengths) - lengths, lengths
            )
            values = indices[starts + within]
            # Dead targets (stale ids and prior -1 sentinels) all map to -1:
            # remap already carries -1 for dropped ids, so only the -1
            # entries themselves need the index guard.
            sentinel = values < 0
            safe = np.where(sentinel, 0, values)
            mapped = remap[safe].astype(indices.dtype, copy=False)
            mapped[sentinel] = -1
            self._indices = mapped
        else:
            self._indices = np.empty(0, dtype=indices.dtype)
        self._indptr = new_indptr
        self._n = keep.size
        self.protocol.vector_compact_nodes(remap, state)
        self._invalidate_topology_caches()
        self._node_compactions += 1

    # -- dynamic-aware CSR aggregates ----------------------------------------------

    def _nz(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self._dynamic:
            return super()._nz()
        # Dynamic mode: "every node with a neighbour" additionally means
        # *live* — dead rows are tombstones that must never sample.
        if self._nz_cache is None:
            alive = self._state.alive
            if self._all_positive():
                nodes = np.flatnonzero(alive)
            else:
                nodes = np.flatnonzero(alive & self._degree_positive)
            nodes = nodes.astype(self._indices.dtype, copy=False)
            self._nz_cache = (nodes, self._degrees[nodes])
        return self._nz_cache

    def _channel_info(self, fanout: int) -> Tuple[int, Optional[int]]:
        if not self._dynamic:
            return super()._channel_info(fanout)
        cached = self._channel_info_cache.get(fanout)
        if cached is None:
            total = int(
                self._channel_cost_array(fanout)[self._state.alive].sum()
            )
            cached = (total, None)
            self._channel_info_cache[fanout] = cached
        return cached

    # -- round mechanics -------------------------------------------------------------

    def _push_samplers(self, round_index: int, state: VectorState) -> np.ndarray:
        """This round's pushers with a neighbour, as a sorted index vector.

        Uses the protocol's index pool when available (O(pushers)), the
        boolean mask otherwise (O(n) scan) — same set, same ascending order,
        so the draw sequence does not depend on the representation.
        """
        if self.protocol.uses_index_pools:
            pool = self.protocol.vector_push_samplers(round_index, state)
            if pool is not None:
                if self._all_positive():
                    return pool
                return pool[self._degree_positive[pool]]
        push_mask = self.protocol.vector_wants_push(round_index, state)
        if self._all_positive():
            return np.flatnonzero(push_mask)
        return np.flatnonzero(push_mask & self._degree_positive)

    def _channels_opened(self, round_index: int, state: VectorState, fanout: int) -> int:
        """Channels charged this round (full phone-call model arithmetic).

        Every calling node opens min(fanout, degree) channels per round,
        whether or not its calls can carry information — identical to the
        scalar engine's accounting.  Protocols whose uninformed nodes stay
        silent report the calling set (as an index pool or a mask) so the
        charge matches the scalar per-node fanout of 0.
        """
        channel_total, uniform_cost = self._channel_info(fanout)
        if self.protocol.uses_index_pools:
            pool = self.protocol.vector_caller_pool(round_index, state)
            if pool is not None:
                if uniform_cost is not None:
                    return int(pool.size) * uniform_cost
                return int(self._channel_cost_array(fanout)[pool].sum())
        caller_mask = self.protocol.vector_caller_mask(round_index, state)
        if caller_mask is None:
            return channel_total
        if uniform_cost is not None:
            return int(caller_mask.sum()) * uniform_cost
        return int(self._channel_cost_array(fanout)[caller_mask].sum())

    def _run_round(self, round_index: int, state: VectorState) -> RoundRecord:
        protocol = self.protocol
        informed_before = int(state.informed_count)

        push_active = protocol.push_round(round_index)
        pull_active = protocol.pull_round(round_index)
        fanout = protocol.vector_fanout(round_index)

        channels_opened = self._channels_opened(round_index, state, fanout)

        pull_mask = protocol.vector_wants_pull(round_index, state) if pull_active else None

        # Only channels that can carry a message this round are sampled: in
        # pull rounds any caller may receive, in push-only rounds only the
        # pushers' calls matter.
        push_mask: Optional[np.ndarray] = None
        if pull_active:
            samplers = self._nz()[0]
            if push_active:
                push_mask = protocol.vector_wants_push(round_index, state)
        elif push_active:
            samplers = self._push_samplers(round_index, state)
        else:
            samplers = np.empty(0, dtype=self._indices.dtype)
        if protocol.has_custom_vector_targets and fanout != 1:
            raise SimulationError(
                "custom bulk target selection requires uniform fanout 1"
            )
        channels, blocks = self._channel_blocks(round_index, state, samplers, fanout)

        # All channel-failure draws come first, one byte of mask per channel.
        channel_up: Optional[np.ndarray] = None
        if self._channel_fail_p > 0.0 and channels:
            channel_up = np.empty(channels, dtype=bool)
            for start in range(0, channels, _BLOCK_CHANNELS):
                part = channel_up[start : start + _BLOCK_CHANNELS]
                np.greater_equal(
                    self._failure_gen.random(part.size), self._channel_fail_p, out=part
                )
        # Self-calls (self-loop stubs) count as opened channels but never
        # connect; failed channels are unusable for both directions; under
        # churn, stubs pointing at departed nodes (or compaction's -1
        # sentinels) are tombstones that connect nowhere.  On a static
        # self-loop-free graph with reliable channels nothing can be
        # filtered, so the pass is skipped outright.
        filtering = self._dynamic or self._has_self_loops or channel_up is not None
        # Pull-loss draws follow every push-loss draw on the failure stream.
        hold_pulls = push_active and pull_active and self._loss_p > 0.0
        push_transmissions = pull_transmissions = lost_transmissions = 0
        fresh: List[np.ndarray] = []
        held: List[np.ndarray] = []
        position = 0
        # ``take``/``compress`` select exactly what fancy and boolean
        # indexing would, several times faster on random masks.
        for callers, callees in blocks:
            if pull_active and callers.shape != callees.shape:
                # Pulls need one caller per channel: flatten a top-k block.
                callers = np.broadcast_to(callers, callees.shape).reshape(-1)
                callees = callees.reshape(-1)
            if filtering:
                usable = callees != callers
                if self._dynamic:
                    valid = callees >= 0
                    usable &= valid
                    usable &= state.alive.take(np.where(valid, callees, 0))
                if channel_up is not None:
                    stop = position + callees.size
                    usable &= channel_up[position:stop].reshape(callees.shape)
                    position = stop
                if not usable.all():
                    usable = usable.reshape(-1)
                    callees = callees.compress(usable)
                    if pull_active:
                        callers = callers.compress(usable)
            callees = callees.reshape(-1)
            # Transmissions count after the usable filter, before loss.
            if push_active:
                # Push-only rounds sample exactly the pushers.
                receivers = (
                    callees.compress(push_mask.take(callers)) if pull_active else callees
                )
                push_transmissions += receivers.size
                lost_transmissions += self._keep_fresh(receivers, state, fresh)
            if pull_active:
                receivers = callers.compress(pull_mask.take(callees))
                pull_transmissions += receivers.size
                if hold_pulls:
                    held.append(receivers)
                else:
                    lost_transmissions += self._keep_fresh(receivers, state, fresh)
        for receivers in held:
            lost_transmissions += self._keep_fresh(receivers, state, fresh)

        delivered = np.concatenate(fresh) if fresh else np.empty(0, dtype=np.int64)
        newly_informed = state.commit_delivered(delivered, round_index)
        protocol.vector_on_round_committed(round_index, state, newly_informed)

        return RoundRecord(
            round_index=round_index,
            informed_before=informed_before,
            informed_after=int(state.informed_count),
            push_transmissions=push_transmissions,
            pull_transmissions=pull_transmissions,
            channels_opened=channels_opened,
            lost_transmissions=lost_transmissions,
            phase=protocol.phase_label(round_index),
        )

    def _channel_blocks(
        self, round_index: int, state: VectorState, samplers: np.ndarray, fanout: int
    ) -> Tuple[int, Iterator[_ChannelBlock]]:
        """``(channel count, blocks)`` of the samplers' calls, in channel order.

        Blocks are drawn as they are consumed.  A custom target hook is
        called once, with every sampler, and only its output is cut up.
        """
        if samplers.size == 0 or fanout <= 0:
            return 0, iter(())
        if fanout > 1:
            return _stub_target_blocks(
                self._protocol_gen, samplers, fanout,
                self._indptr, self._indices, self._degrees, self._uniform_degree,
            )
        size = _BLOCK_CHANNELS
        starts = range(0, samplers.size, size)
        if not self.protocol.has_custom_vector_targets:
            return samplers.size, (
                (samplers[i : i + size],
                 self._fanout1_callees(self._protocol_gen, samplers[i : i + size]))
                for i in starts
            )
        callees = self.protocol.vector_call_targets(
            round_index, state, samplers, self._protocol_gen,
            self._indptr, self._indices, self._degrees,
        )
        return samplers.size, (
            (samplers[i : i + size], callees[i : i + size]) for i in starts
        )

    def _keep_fresh(
        self, receivers: np.ndarray, state: VectorState, fresh: List[np.ndarray]
    ) -> int:
        """Loss-test ``receivers``, add the still-uninformed survivors to
        ``fresh``, and return the lost count."""
        if receivers.size == 0:
            return 0
        keep = state.informed.take(receivers)
        np.logical_not(keep, out=keep)
        lost = 0
        if self._loss_p > 0.0:
            survived = self._failure_gen.random(receivers.size) >= self._loss_p
            lost = receivers.size - int(np.count_nonzero(survived))
            keep &= survived
        hits = receivers.compress(keep)
        if hits.size:
            fresh.append(hits)
        return lost


class BatchedVectorizedRoundEngine(_BulkEngineBase):
    """Runs R independent replications of one configuration in lock-step.

    Every replication uses its own seed from ``seeds`` (generator streams
    spawned exactly as :class:`VectorizedRoundEngine` spawns them) and its
    per-replication draw sequence is kept call-for-call identical to a single
    run, so each row of the batch is bit-identical to the corresponding
    single-seed vectorized run.  The whole ensemble's state lives in one
    ``(R, n)`` :class:`VectorState`; delivery scatter, commits, and channel
    accounting are performed once per round for all replications together,
    and completed replications are compacted out of the state as they finish
    (see the module docstring).

    One protocol instance drives all replications; it is :meth:`reset` once at
    the start of the batch, and protocols with per-node state (e.g. the
    quasirandom pointer table) keep it per replication via the ``row``
    argument of the bulk hooks (and remap it on compaction via
    ``vector_compact_rows``).
    """

    def __init__(
        self,
        graph: Graph,
        protocol: BroadcastProtocol,
        seeds: Sequence[int],
        config: Optional[SimulationConfig] = None,
        failure_model: Optional[FailureModel] = None,
        churn_model: Optional[ChurnModel] = None,
    ) -> None:
        if len(seeds) == 0:
            raise SimulationError("batched run requires at least one seed")
        self.graph = graph
        self.protocol = protocol
        self.config = config if config is not None else SimulationConfig()
        self.failure_model = _resolve_failure_model(self.config, failure_model)
        self.churn_model = churn_model if churn_model is not None else NoChurn()
        self.seeds = [int(seed) for seed in seeds]

        reason = (
            vectorization_unsupported_reason(graph, protocol, self.config, self.failure_model)
            if isinstance(self.churn_model, NoChurn)
            else "churn cannot run on the batched engine (membership diverges "
            "per replication; run per seed instead)"
        )
        if reason is not None:
            raise SimulationError(f"run cannot be vectorized: {reason}")

        # Per-replication streams, spawned with the single-run labels so the
        # draw sequences line up bit-for-bit with VectorizedRoundEngine.
        self._protocol_gens = []
        self._failure_gens = []
        for seed in self.seeds:
            rng = RandomSource(seed=seed, name="engine")
            self._protocol_gens.append(rng.spawn("protocol").generator)
            self._failure_gens.append(rng.spawn("failures").generator)

        self._init_failure_probabilities()
        self._init_bulk_state(graph)
        # Row compaction only applies when completed rows actually leave the
        # round loop (early stopping); it is bit-transparent either way.
        self._compaction = bool(
            self.config.batch_row_compaction and self.config.stop_when_informed
        )

    # -- public API ---------------------------------------------------------------

    def run(self, source: int = 0) -> List[RunResult]:
        """Run all replications; returns one :class:`RunResult` per seed."""
        if source not in self.graph:
            raise SimulationError(f"source node {source} is not in the graph")

        n = self.graph.node_count
        batch = len(self.seeds)
        self.protocol.reset()
        state = VectorState(n=n, source=source, batch=batch)
        if self.protocol.uses_index_pools:
            state.enable_index_tracking()
        horizon = self.protocol.horizon()
        if self.config.max_rounds is not None:
            horizon = min(horizon, self.config.max_rounds)

        # Live generator lists and the state-row -> original-seed map; both
        # shrink together with the state when rows are compacted away.
        self._live_protocol_gens = list(self._protocol_gens)
        self._live_failure_gens = list(self._failure_gens)
        origin = np.arange(batch, dtype=np.int64)

        active = np.ones(batch, dtype=bool)
        rounds_to_completion = np.full(batch, -1, dtype=np.int64)
        rounds_executed = np.zeros(batch, dtype=np.int64)
        success = np.zeros(batch, dtype=bool)
        final_informed = np.zeros(batch, dtype=np.int64)
        totals = {
            key: np.zeros(batch, dtype=np.int64)
            for key in ("push", "pull", "channels", "lost")
        }
        collect = self.config.collect_round_history
        histories: List[list] = [[] for _ in range(batch)]
        phase_transmissions: List[dict] = [{} for _ in range(batch)]

        for round_index in range(1, horizon + 1):
            active_rows = np.flatnonzero(active)
            if active_rows.size == 0:
                break
            informed_before = np.array(state.informed_count, copy=True)
            push_tx, pull_tx, channels, lost = self._run_round_batch(
                round_index, state, active_rows
            )
            executed = origin[active_rows]
            rounds_executed[executed] = round_index
            totals["push"][origin] += push_tx
            totals["pull"][origin] += pull_tx
            totals["channels"][origin] += channels
            totals["lost"][origin] += lost

            phase = self.protocol.phase_label(round_index)
            informed_after = state.informed_count
            if phase:
                for local in active_rows:
                    row = int(origin[local])
                    phase_transmissions[row][phase] = phase_transmissions[row].get(
                        phase, 0
                    ) + int(push_tx[local] + pull_tx[local])
            if collect:
                for local in active_rows:
                    histories[int(origin[local])].append(
                        RoundRecord(
                            round_index=round_index,
                            informed_before=int(informed_before[local]),
                            informed_after=int(informed_after[local]),
                            push_transmissions=int(push_tx[local]),
                            pull_transmissions=int(pull_tx[local]),
                            channels_opened=int(channels[local]),
                            lost_transmissions=int(lost[local]),
                            phase=phase,
                        )
                    )

            done = active & state.all_informed()
            newly_done = done & (rounds_to_completion[origin] < 0)
            if newly_done.any():
                rounds_to_completion[origin[newly_done]] = round_index
                if self.config.stop_when_informed:
                    active &= ~newly_done
                    dead = state.batch - int(active.sum())
                    # Compact once a quarter of the state rows are dead: each
                    # event costs one O(live·n) copy, so the threshold keeps
                    # the total copy volume linear in R·n while the per-round
                    # O(rows·n) terms (dense commits, informed-index merges)
                    # track the live ensemble instead of the original batch.
                    if self._compaction and dead * 4 >= state.batch:
                        keep = np.flatnonzero(active)
                        dropped_origin = origin[~active]
                        success[dropped_origin] = True
                        final_informed[dropped_origin] = n
                        if keep.size == 0:
                            origin = origin[keep]
                            break
                        # Protocol first (it may need the old row count),
                        # then the engine-owned state and generator lists.
                        self.protocol.vector_compact_rows(keep, n, state.batch)
                        state.compact_rows(keep)
                        origin = origin[keep]
                        self._live_protocol_gens = [
                            self._live_protocol_gens[i] for i in keep
                        ]
                        self._live_failure_gens = [
                            self._live_failure_gens[i] for i in keep
                        ]
                        active = np.ones(state.batch, dtype=bool)

        # Rows still in the state at the end (never compacted away).
        if origin.size:
            live_finished = state.all_informed()
            success[origin] = live_finished
            final_informed[origin] = state.informed_count

        shared_metadata = {
            "protocol": self.protocol.describe(),
            "failure_model": self.failure_model.describe(),
            "churn_model": self.churn_model.describe(),
            "final_node_count": self.graph.node_count,
            "engine": "vectorized",
        }
        results: List[RunResult] = []
        for row in range(batch):
            results.append(
                RunResult(
                    n=n,
                    protocol=self.protocol.name,
                    source=source,
                    success=bool(success[row]),
                    rounds_executed=int(rounds_executed[row]),
                    rounds_to_completion=(
                        int(rounds_to_completion[row])
                        if rounds_to_completion[row] >= 0
                        else None
                    ),
                    total_push_transmissions=int(totals["push"][row]),
                    total_pull_transmissions=int(totals["pull"][row]),
                    total_channels_opened=int(totals["channels"][row]),
                    total_lost_transmissions=int(totals["lost"][row]),
                    final_informed=int(final_informed[row]),
                    history=histories[row],
                    phase_transmissions=phase_transmissions[row],
                    metadata={**shared_metadata, "batch_size": batch},
                )
            )
        return results

    # -- round mechanics -------------------------------------------------------------

    def _pool_bounds(self, pool: np.ndarray, n: int, batch: int) -> np.ndarray:
        """Row-boundary positions of a sorted flat index pool."""
        return np.searchsorted(pool, np.arange(batch + 1, dtype=np.int64) * n)

    def _pool_row_samplers(
        self, pool: np.ndarray, bounds: np.ndarray, row: int, n: int
    ) -> np.ndarray:
        """One row's pool segment as node ids, neighbourless nodes removed.

        The single place that turns flat ``row * n + node`` pool entries back
        into per-row sampler ids — shared by the fanout-1 segment builder and
        the per-row (custom-target / fanout > 1) loop so the two sampling
        paths cannot drift.  The result is exactly what a boolean-mask scan
        of that row would produce, at O(segment) instead of O(n).
        """
        segment = pool[int(bounds[row]) : int(bounds[row + 1])]
        if segment.size:
            segment = segment - pool.dtype.type(row * n)
            if not self._all_positive():
                segment = segment[self._degree_positive[segment]]
        return segment

    def _pool_segments(
        self,
        pool: np.ndarray,
        active_rows: np.ndarray,
        n: int,
        batch: int,
    ) -> Tuple[np.ndarray, List[int], List[int]]:
        """Split a sorted flat index pool into per-active-row node-id segments.

        Returns ``(cols, part_rows, part_lengths)`` in ascending-row order:
        ``cols`` holds node ids (row offsets removed), ``part_rows`` the state
        row of each non-empty segment.  Dead rows' entries are skipped without
        being touched.
        """
        bounds = self._pool_bounds(pool, n, batch)
        part_rows: List[int] = []
        part_lengths: List[int] = []
        pieces: List[np.ndarray] = []
        for row in active_rows.tolist():
            segment = self._pool_row_samplers(pool, bounds, row, n)
            if segment.size == 0:
                continue
            part_rows.append(row)
            part_lengths.append(int(segment.size))
            pieces.append(segment)
        if not pieces:
            return np.empty(0, dtype=pool.dtype), part_rows, part_lengths
        cols = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        return cols, part_rows, part_lengths

    def _run_round_batch(
        self,
        round_index: int,
        state: VectorState,
        active_rows: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One lock-step round; returns per-state-row counter arrays."""
        protocol = self.protocol
        n = state.n
        batch = state.batch

        push_active = protocol.push_round(round_index)
        pull_active = protocol.pull_round(round_index)
        fanout = protocol.vector_fanout(round_index)

        pull_mask = protocol.vector_wants_pull(round_index, state) if pull_active else None
        push_mask: Optional[np.ndarray] = None
        if push_active and pull_active:
            push_mask = protocol.vector_wants_push(round_index, state)

        channels = self._channels_batch(round_index, state, fanout, active_rows)

        custom = protocol.has_custom_vector_targets
        if custom and fanout != 1:
            raise SimulationError(
                "custom bulk target selection requires uniform fanout 1"
            )

        # Stage A — per-replication sampling.  Generator draws cannot be
        # merged across replications (each row owns its stream, and parity
        # with single runs pins the exact call sequence), so the per-row work
        # is exactly one draw on the fast path; sampler construction,
        # offset arithmetic, gathers, filtering, and commit are all batched
        # over the concatenated channel arrays.  ``cols`` holds caller node
        # ids, ``bases`` the ``row * n`` flattening offsets, and ``row_of``
        # the replication of each channel, in ascending-row order throughout
        # (the per-replication counting and loss draws rely on it).  The
        # flat channel arrays use the state's index dtype (int32 below 2³¹
        # state entries), which can address every ``row * n + node``.
        index_dtype = state.index_dtype
        cols = np.empty(0, dtype=index_dtype)
        callees = np.empty(0, dtype=self._indices.dtype)
        part_rows: List[int] = []
        part_lengths: List[int] = []
        if (push_active or pull_active) and fanout > 0:
            if fanout == 1 and not custom:
                uniform = self._uniform_degree
                if pull_active:
                    # Every node with a neighbour samples, in every active
                    # replication: the sampler set is one tiled constant.
                    nz_nodes, nz_degrees = self._nz()
                    size = int(nz_nodes.size)
                    if size:
                        part_rows = active_rows.tolist()
                        part_lengths = [size] * len(part_rows)
                        cols = np.tile(nz_nodes, active_rows.size)
                        if uniform is None:
                            sampler_degrees = np.tile(
                                nz_degrees, active_rows.size
                            )
                else:
                    cols, part_rows, part_lengths = self._push_sampler_segments(
                        round_index, state, active_rows
                    )
                if part_rows:
                    if not pull_active and uniform is None:
                        sampler_degrees = self._degrees[cols]
                    # One draw per replication, each straight into its slice
                    # of the shared uniforms array (same stream as a fresh
                    # ``random(size)``).
                    uniforms = np.empty(cols.size, dtype=np.float64)
                    position = 0
                    for row, size in zip(part_rows, part_lengths):
                        self._live_protocol_gens[row].random(
                            out=uniforms[position : position + size]
                        )
                        position += size
                    if uniform is not None:
                        offsets = _fanout1_offsets(
                            uniforms, uniform, self._indices.dtype
                        )
                        callees = self._indices[cols * uniform + offsets]
                    else:
                        offsets = _fanout1_offsets(
                            uniforms, sampler_degrees, self._indices.dtype
                        )
                        callees = self._indices[self._indptr[cols] + offsets]
            else:
                cols, callees, part_rows, part_lengths = self._per_row_targets(
                    round_index, state, active_rows, fanout, custom
                )

        push_tx = np.zeros(batch, dtype=np.int64)
        pull_tx = np.zeros(batch, dtype=np.int64)
        lost = np.zeros(batch, dtype=np.int64)

        if cols.size:
            row_array = np.asarray(part_rows, dtype=index_dtype)
            length_array = np.asarray(part_lengths, dtype=np.int64)
            bases = np.repeat(row_array * n, length_array)
            callers_flat = np.add(cols, bases, dtype=index_dtype)
            callees_flat = np.add(callees, bases, out=bases)
            row_of: Optional[np.ndarray] = None
            filtered = False

            # Self-calls (self-loop stubs) never connect and failed channels
            # are unusable in both directions; on a self-loop-free graph with
            # reliable channels the filter would keep everything, so skip it.
            if self._has_self_loops or self._channel_fail_p > 0.0:
                usable = cols != callees
                if self._channel_fail_p > 0.0:
                    position = 0
                    for row, size in zip(part_rows, part_lengths):
                        usable[position : position + size] &= (
                            self._live_failure_gens[row].random(size)
                            >= self._channel_fail_p
                        )
                        position += size
                if not usable.all():
                    filtered = True
                    row_of = np.repeat(row_array, length_array)[usable]
                    callers_flat = callers_flat[usable]
                    callees_flat = callees_flat[usable]

            delivered_parts: List[np.ndarray] = []
            if push_active and callers_flat.size:
                if pull_active:
                    # In pull rounds everyone samples, so the pushers are the
                    # subset flagged by the mask …
                    if row_of is None:
                        row_of = np.repeat(row_array, length_array)
                    sending = push_mask.reshape(-1)[callers_flat]
                    receivers = callees_flat[sending]
                    receiver_rows = row_of[sending]
                    push_tx = np.bincount(receiver_rows, minlength=batch)
                else:
                    # … while push-only rounds sample exactly the pushers,
                    # making the mask gather a keep-everything no-op.
                    receivers = callees_flat
                    if row_of is None and self._loss_p > 0.0:
                        row_of = np.repeat(row_array, length_array)
                    receiver_rows = row_of
                    if filtered:
                        push_tx = np.bincount(receiver_rows, minlength=batch)
                    else:
                        push_tx[row_array] = length_array
                receivers, lost_rows = self._drop_lost_rows(receivers, receiver_rows)
                lost += lost_rows
                delivered_parts.append(receivers)

            if pull_active and callers_flat.size:
                if row_of is None:
                    row_of = np.repeat(row_array, length_array)
                answering = pull_mask.reshape(-1)[callees_flat]
                receivers = callers_flat[answering]
                receiver_rows = row_of[answering]
                pull_tx = np.bincount(receiver_rows, minlength=batch)
                receivers, lost_rows = self._drop_lost_rows(receivers, receiver_rows)
                lost += lost_rows
                delivered_parts.append(receivers)

            if len(delivered_parts) == 1:
                delivered = delivered_parts[0]
            elif delivered_parts:
                delivered = np.concatenate(delivered_parts)
            else:
                delivered = np.empty(0, dtype=np.int64)
        else:
            delivered = np.empty(0, dtype=np.int64)

        newly_informed = state.commit_delivered(delivered, round_index)
        protocol.vector_on_round_committed(round_index, state, newly_informed)
        return push_tx, pull_tx, channels, lost

    def _channels_batch(
        self,
        round_index: int,
        state: VectorState,
        fanout: int,
        active_rows: np.ndarray,
    ) -> np.ndarray:
        """Per-state-row channel charge for this round."""
        batch = state.batch
        n = state.n
        channel_total, uniform_cost = self._channel_info(fanout)
        channels = np.zeros(batch, dtype=np.int64)
        if self.protocol.uses_index_pools:
            pool = self.protocol.vector_caller_pool(round_index, state)
            if pool is not None:
                bounds = self._pool_bounds(pool, n, batch)
                lengths = np.diff(bounds)
                if uniform_cost is not None:
                    per_row = lengths * uniform_cost
                else:
                    cost = self._channel_cost_array(fanout)
                    sums = np.concatenate(
                        ([0], np.cumsum(cost[pool % n]))
                    )
                    per_row = sums[bounds[1:]] - sums[bounds[:-1]]
                channels[active_rows] = per_row[active_rows]
                return channels
        caller_mask = self.protocol.vector_caller_mask(round_index, state)
        if caller_mask is None:
            channels[active_rows] = channel_total
        elif uniform_cost is not None:
            channels[active_rows] = (
                caller_mask[active_rows].sum(axis=1) * uniform_cost
            )
        else:
            cost = self._channel_cost_array(fanout)
            per_row = (cost[None, :] * caller_mask).sum(axis=1)
            channels[active_rows] = per_row[active_rows]
        return channels

    def _push_sampler_segments(
        self, round_index: int, state: VectorState, active_rows: np.ndarray
    ) -> Tuple[np.ndarray, List[int], List[int]]:
        """Push-only sampler node ids per active row (ascending-row order)."""
        n = state.n
        batch = state.batch
        if self.protocol.uses_index_pools:
            pool = self.protocol.vector_push_samplers(round_index, state)
            if pool is not None:
                return self._pool_segments(pool, active_rows, n, batch)
        push_mask = self.protocol.vector_wants_push(round_index, state)
        # Work on the active rows only: when replications have completed,
        # the scan shrinks with the live ensemble instead of staying
        # O(R·n) until the last straggler.
        if active_rows.size == batch:
            mask = push_mask
            row_ids = None
        else:
            mask = push_mask[active_rows]
            row_ids = active_rows
        if not self._all_positive():
            mask = mask & self._degree_positive
        flat = np.flatnonzero(mask.ravel())
        part_rows: List[int] = []
        part_lengths: List[int] = []
        cols = np.empty(0, dtype=np.int64)
        if flat.size:
            live = active_rows.size
            row_boundaries = np.arange(live + 1, dtype=np.int64) * n
            counts = np.diff(np.searchsorted(flat, row_boundaries))
            occupied = np.flatnonzero(counts)
            for local in occupied.tolist():
                part_rows.append(
                    local if row_ids is None else int(row_ids[local])
                )
                part_lengths.append(int(counts[local]))
            cols = flat - np.repeat(occupied * n, counts[occupied])
        return cols, part_rows, part_lengths

    def _per_row_targets(
        self,
        round_index: int,
        state: VectorState,
        active_rows: np.ndarray,
        fanout: int,
        custom: bool,
    ) -> Tuple[np.ndarray, np.ndarray, List[int], List[int]]:
        """Sampling paths that must loop rows: custom targets and fanout > 1."""
        protocol = self.protocol
        n = state.n
        batch = state.batch
        pull_active = protocol.pull_round(round_index)

        pool: Optional[np.ndarray] = None
        pool_bounds: Optional[np.ndarray] = None
        push_mask: Optional[np.ndarray] = None
        if not pull_active:
            if protocol.uses_index_pools:
                pool = protocol.vector_push_samplers(round_index, state)
            if pool is not None:
                pool_bounds = self._pool_bounds(pool, n, batch)
            else:
                push_mask = protocol.vector_wants_push(round_index, state)

        caller_parts: List[np.ndarray] = []
        callee_parts: List[np.ndarray] = []
        part_rows: List[int] = []
        part_lengths: List[int] = []
        for row in active_rows.tolist():
            if pull_active:
                samplers = self._nz()[0]
            elif pool is not None:
                samplers = self._pool_row_samplers(pool, pool_bounds, row, n)
            else:
                samplers = np.flatnonzero(push_mask[row] & self._degree_positive)
            if samplers.size == 0:
                continue
            generator = self._live_protocol_gens[row]
            if custom:
                row_callees = protocol.vector_call_targets(
                    round_index, state, samplers, generator,
                    self._indptr, self._indices, self._degrees, row=row,
                )
                row_callers = samplers
            else:
                row_callers, row_callees = _sample_stub_targets(
                    generator, samplers, fanout,
                    self._indptr, self._indices, self._degrees,
                    uniform_degree=self._uniform_degree,
                )
            caller_parts.append(row_callers)
            callee_parts.append(row_callees)
            part_rows.append(row)
            part_lengths.append(int(row_callers.size))
        if not caller_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, part_rows, part_lengths
        cols = np.concatenate(caller_parts)
        callees = np.concatenate(callee_parts)
        return cols, callees, part_rows, part_lengths

    def _drop_lost_rows(
        self, receivers: np.ndarray, receiver_rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-replication transmission loss over row-grouped flat receivers.

        ``receiver_rows`` (the replication of each receiver) must be
        non-decreasing — which the row-ordered sampling stage guarantees — so
        each replication's loss draws match a single run's exactly.
        """
        batch = len(self._live_failure_gens)
        lost = np.zeros(batch, dtype=np.int64)
        if self._loss_p <= 0.0 or receivers.size == 0:
            return receivers, lost
        bounds = np.searchsorted(
            receiver_rows, np.arange(batch + 1, dtype=receiver_rows.dtype)
        )
        kept_parts: List[np.ndarray] = []
        for row in range(batch):
            start, end = int(bounds[row]), int(bounds[row + 1])
            if end == start:
                continue
            lost_mask = self._live_failure_gens[row].random(end - start) < self._loss_p
            dropped = int(lost_mask.sum())
            if dropped:
                lost[row] = dropped
                kept_parts.append(receivers[start:end][~lost_mask])
            else:
                kept_parts.append(receivers[start:end])
        if kept_parts:
            receivers = np.concatenate(kept_parts)
        else:
            receivers = np.empty(0, dtype=np.int64)
        return receivers, lost
