"""The bulk NumPy round engine — the simulator's fast path.

This engine executes the same synchronous random phone call model as
:class:`repro.core.engine.RoundEngine`, but represents the round state of
``R`` independent replications as ``(R, n)`` arrays
(:class:`repro.core.node.VectorState`) and executes each round with bulk
operations over the graph's CSR adjacency view.  A single run is its
``R = 1`` case: :func:`repro.core.engine.run_broadcast` runs a vectorized
plan as a one-seed :class:`BatchedVectorizedRoundEngine`.  Each round:

1. the protocol reports who pushes and who answers calls this round: a
   push-only round reads one sorted *index pool* of pushers
   (``vector_push_samplers``), a round that pulls reads the push and pull
   masks, and the channel charge reads the pool of calling nodes
   (``vector_caller_pool``, ``None`` when every node calls);
2. every running replication's calls are drawn in *blocks* of at most
   :data:`_BLOCK_CHANNELS` channels, in channel order (a replication that
   runs from the receiver side, below, keeps only its candidates' calls):
   uniforms mapped to stub offsets for fanout 1, a random-key top-``k``
   selection for larger fanouts (each sampler's ``k`` stubs in ascending
   key order, a full row sort, so loss draws line up on every machine), or
   a slice of a custom target hook's output.  A top-``k`` key is the
   53-bit integer that ``Generator.random`` would scale to a float, read
   from the same stream word by ``bit_generator.random_raw``, with the
   stub's column packed into the low bits: rows up to 2¹¹ stubs wide sort
   in place as ``uint64`` and an exact tie goes to the lower column on
   every machine.  Wider rows argsort the same draws as floats, whose
   exact ties order by platform;
3. each block is filtered, loss-tested (Bernoulli arrays over channels and
   transmissions) and cut down to its still-uninformed receivers before the
   next block is drawn;
4. only fresh receivers reach the round's one commit
   (:meth:`VectorState.commit_delivered`, which deduplicates across
   blocks), so "received in round ``t``, effective in ``t + 1``" holds
   exactly as in the scalar engine.

Receiver-side rounds
--------------------
Late in a broadcast nearly every call reaches an informed node, and early
in push-pull nearly every call pulls from an uninformed one.  A static,
reliable round therefore picks a side per running row from counts the
engine holds: a row of at least :data:`_RECEIVER_MIN_CHANNELS` channels
whose small side's node count times the mean degree, times
:data:`_RECEIVER_RATIO`, is at most its channels evaluates only its
*candidates*, the callers whose calls can deliver or change a count:

* a push-only round's samplers among ``N(U)``, ``U`` being the row's
  uninformed nodes;
* in a round that pulls, the answering side ``N(A)`` plus the pushers
  (few answer) or the silent side ``N(Ā) ∪ N(U) ∪ U`` (few uninformed);
* always the nodes with a self-loop stub, so the counts can subtract
  their self-calls.

The row still draws every random number the sender side draws, from the
same generators in the same order (every uniform, every top-``k`` key row,
one target-hook call with ``positions=``), so results, histories and
generator states do not depend on the side.  The candidates' calls go
through the round's one block body like any other row's.  Every other call
is usable and informs no one, so its transmissions are counted instead:
a push-only round adds the non-candidates' channels as pushes; the
answering side adds nothing, since every caller of an answering node and
every pusher is a candidate; the silent side adds the non-candidates'
channels as pulls and the non-candidate pushers' channels as pushes.
Churn (mutable CSR, tombstoned callees) and lossy or failing channels
(their draws follow the usable channels and transmissions in channel
order) stay sender-side.
The private ``_receiver_side`` switch turns the path off for the parity
tests (``tests/test_engine_receiver_side.py``).

Active sets and scratch buffers
-------------------------------
Push-only rounds sample the pool the protocol hands back and never scan a
flag plane.  For a protocol that overrides ``vector_push_samplers`` or
``vector_caller_pool`` (:meth:`BroadcastProtocol.overrides`) the engine
maintains the sorted informed-index vector by merge at each commit, the
protocol returns the relevant pool (informed, last round's newly informed,
Algorithm 1's active list), and sampling cost is proportional to the number
of *pushers*, which is what makes the exponential growth phase cost O(n) in
aggregate rather than O(n · rounds).  Other protocols keep no index vectors
and get the default pool, the indices of their push mask.  A round's
scratch is one block: push-only rounds never build a caller array (the
self-loop test compares a block with its own sampler rows), and all index
arrays follow the CSR index dtype (int32 below two billion stubs).
Block-sized temporaries live in named buffers reused from round to round
(:meth:`BatchedVectorizedRoundEngine._scratch`), and the hot takes convert
their int32 indices into an ``intp`` scratch (``_gather``): a block
allocated afresh every round comes back as fresh pages, a page fault per
4 KiB, whenever the allocator has handed that memory back to the system.
Draw *sequences* do not
depend on the block bounds: a pool enumerates exactly the nodes of its
push mask, in ascending order; fanout-1 blocks draw with
``Generator.random(out=...)``, the stream of one ``random(k)`` call; a
custom target hook is called once per round with every sampler; and on the
failure stream all channel-failure draws (one byte of mask per channel)
precede the push-loss draws, which precede the pull-loss draws — a lossy
push-pull round holds its pull receivers until the push pass ends.

Replications
------------
Each replication draws from its own generator pair, spawned from its seed
with the scalar engine's labels (``RandomSource(seed).spawn("protocol")`` /
``spawn("failures")``), and its draw *sequence* does not depend on the other
rows: every row of an ``R``-seed run is bit-identical to the one-seed run of
its seed.  In a round every running row's channels are drawn from that
row's own generators, in ascending row order.  A row with at least
``_SCRATCH_MIN_SAMPLERS`` (2¹⁵) channels, or the only running row, gets
blocks of its own, addressed by node id at the scalar offset ``row * n``.
Smaller rows are packed whole into shared blocks of flat ``row * n + node``
indices, each row's uniforms drawn into its slice of one array and gathered
once, so small-``n`` sweeps keep the amortisation of per-call overhead.

Compaction
~~~~~~~~~~
One rule shrinks the state as it dies: once a quarter of the rows, or of the
id space, is dead, the engine compacts it away.  Under
``stop_when_informed`` (the default) completed replications are *remapped
out* of the ``(R, n)`` state: the state planes, the informed-index vectors,
the per-replication generator lists, and any protocol-held per-row tables
(via the :meth:`BroadcastProtocol.vector_compact_rows` hook) are sliced down
to the surviving rows, and an ``origin`` map carries results back to the
original seed order.  Long-tail sweeps therefore shrink their arrays as rows
finish instead of carrying dead rows to the last straggler's round.  Under
churn, tombstoned node ids are renumbered away the same way (below).
Compaction never touches a generator stream, so the results are
bit-identical with it on or off (the private ``_compaction`` switch;
asserted in ``tests/test_engine_compaction.py`` and
``tests/test_churn_vectorized.py``).

Dispatch rules
--------------
The fast path reproduces the scalar engine's *aggregate* semantics (success,
rounds-to-completion distribution, transmission and channel accounting
identities) but not its per-call draw order, so runs with the same seed agree
statistically, not bit-for-bit.  The bulk engine therefore runs only when
nothing the scalar engine offers beyond aggregates is requested:

* the protocol opts in (``supports_vectorized``) and needs neither the
  per-channel exchange hook nor the contact-memory mechanism;
* churn, when present, drives a protocol that opted into dynamic
  membership (``BroadcastProtocol.supports_dynamic_membership``); every
  churn model runs on both engines through its one hook, ``vector_apply``;
* the failure model is ``ReliableDelivery`` or ``IndependentLoss`` (arbitrary
  strategy objects cannot be batched);
* the graph's node ids are contiguous ``0..n-1``.

:func:`vectorization_unsupported_reason` holds these checks and returns a
human-readable reason (or ``None``).  The dispatch decision itself is made
once, by :func:`repro.core.engine.plan_run`: every entry point
(``run_broadcast``, ``run_broadcast_batch``, the experiment runner and
``run-spec --dry-run``) executes the :class:`~repro.core.engine.RunPlan` it
returns, and only the engine's constructor re-checks the predicate as a
guard.  The constructor also refuses churn with more than one seed:
replications' graphs diverge, so there is no shared CSR to batch over, and
churn runs per seed.

Dynamic membership (vectorized churn)
-------------------------------------
With a churn model the one-seed engine switches to *dynamic mode*: it
copies the graph's CSR into private mutable arrays (the caller's graph
object is never touched), enables tombstone masks on the state
(:meth:`VectorState.enable_membership`), and applies the churn model's
``vector_apply`` at the top of every round, before the round reads its
informed count, through a narrow mutation surface (:class:`VectorChurnOps`):

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
  away (the node-axis mirror of row compaction): the state planes are
  sliced via :meth:`VectorState.compact_nodes`, the CSR is rebuilt through
  the returned id-remap table (dead targets become ``-1`` sentinels), and
  protocol-held pools remap through
  :meth:`BroadcastProtocol.vector_compact_nodes`.

A churn round costs what changed in it; only node compaction rebuilds.
The private CSR, the state planes (and the dense commit's mask) and the
node-axis caches (degrees, ``degree > 0``, each fanout's cost array, the
live sampler list of :meth:`_nz`) are prefixes of buffers reserved with an
eighth of room to spare (:func:`repro.core.node._extended`), so a join
writes only its joiners' entries and extends each cache that exists.  A
departure updates the aggregates the engine keeps: the sampler list and the
informed pool lose the leavers in place, and each channel total subtracts
their costs.  The join finds each drawn stub's owner by id in a kept prefix
of live stub counts over all ids (dead and neighbourless ids own empty
ranges), searching the positions in ascending order; joins append to the
prefix and departures lower it.

Every random decision on this path — the churn models' draws and the
engine's sampling — depends only on live-node *positions* (rank in ascending
id order), live counts, and per-row stub counts, all invariant under the
monotone compaction remap.  Vectorized churn is therefore draw-for-draw
deterministic, bit-identical with compaction on or off, and bit-identical
across every execution path that replays the same seeds (asserted in
``tests/test_churn_vectorized.py``).  Scalar and vectorized churn agree
*statistically*, not bit-for-bit: the scalar engine deletes departed nodes'
edges outright (survivor degrees shrink) where this engine tombstones them
(survivor stub-counts persist until their calls are filtered).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..failures.churn import ChurnModel, NoChurn
from ..failures.message_loss import FailureModel, IndependentLoss, ReliableDelivery
from ..graphs.base import Graph
from ..protocols.base import BroadcastProtocol
from .config import SimulationConfig
from .errors import SimulationError
from .metrics import RoundRecord, RunResult
from .node import VectorState, _extended, remove_sorted_values
from .rng import RandomSource

__all__ = [
    "BatchedVectorizedRoundEngine",
    "VectorChurnOps",
    "vectorization_unsupported_reason",
]

#: Upper bound on random keys materialised per sampling chunk (rows × max
#: degree): 2¹⁸ 64-bit keys, 2 MiB, so the k-distinct path's scratch stays
#: a few chunk-sized arrays whatever the sampler count, small enough for the
#: allocator to recycle from chunk to chunk.
_CHUNK_ENTRIES = 1 << 18

#: Upper bound on channels per delivery block (and per top-``k`` chunk).  A
#: round's sampling and delivery scratch is one block.
_BLOCK_CHANNELS = 1 << 18

#: Bits a 64-bit stream word has beyond the 53 of its uniform: a top-``k``
#: key row up to 2¹¹ wide sorts as integers, the column in these bits.
_KEY_COLUMN_BITS = 11

#: Fewest channels a row needs before its round may run from the receiver
#: side: below this, the sender side's few passes cost less than the
#: receiver side's fixed scans of the row.
_RECEIVER_MIN_CHANNELS = 1 << 12

#: A row runs from the receiver side when the small side's node count times
#: the graph's mean degree, times this, is at most the row's channels.
_RECEIVER_RATIO = 8

#: A receiver-side row ranks its candidates among the samplers by binary
#: search while they are fewer than the samplers divided by this, and by
#: reading the candidate mark at every sampler otherwise: one search costs
#: about as much as 32 to 50 sequential gathers.
_SEARCH_COST = 32

#: ``(callers, callees)`` of a block, callers broadcastable to callees.
_ChannelBlock = Tuple[np.ndarray, np.ndarray]

#: A delivery block: ``(callers, callees, base, rows, bounds, channel_up)``.
#: Callers and callees are flat state indices minus ``base`` (a row's node
#: ids at ``base = row * n``, or flat indices at ``base = 0``); the block is
#: made of pieces, piece ``i`` being channels ``bounds[i]:bounds[i + 1]`` of
#: state row ``rows[i]``; ``channel_up`` is the pieces' flat channel-failure
#: mask, or ``None`` without channel failures.
_DeliveryBlock = Tuple[
    np.ndarray, np.ndarray, int, Sequence[int], Sequence[int], Optional[np.ndarray]
]


def vectorization_unsupported_reason(
    graph: Optional[Graph],
    protocol: BroadcastProtocol,
    config: SimulationConfig,
    failure_model: Optional[FailureModel] = None,
    churn_model: Optional[ChurnModel] = None,
) -> Optional[str]:
    """Why one seed of this run cannot use the bulk engine, or ``None``.

    Churn is admissible for protocols that opted into dynamic membership;
    every churn model runs on both engines.  ``graph`` is ``None`` when it
    is not built yet (a dry run); the contiguous-ids check, which every
    registry family passes, is then skipped.
    """
    if not protocol.supports_vectorized:
        return f"protocol {protocol.name!r} does not implement the bulk hooks"
    if protocol.overrides("on_channel_exchange"):
        return f"protocol {protocol.name!r} needs the per-channel exchange hook"
    if protocol.memory_window > 0:
        return f"protocol {protocol.name!r} uses the contact-memory mechanism"
    # The bulk engine never builds a StateTable, so protocols that override
    # the StateTable-based lifecycle hooks cannot run on it even if they
    # opted in — guard against a future protocol combining both.
    if protocol.overrides("finished"):
        return f"protocol {protocol.name!r} overrides the finished() rule"
    if protocol.overrides("on_round_committed") and not protocol.overrides(
        "vector_on_round_committed"
    ):
        return (
            f"protocol {protocol.name!r} overrides on_round_committed without "
            "a bulk counterpart"
        )
    if protocol.overrides("select_call_targets") and not protocol.overrides(
        "vector_call_targets"
    ):
        return (
            f"protocol {protocol.name!r} overrides select_call_targets without "
            "a bulk counterpart"
        )
    if (
        churn_model is not None
        and not isinstance(churn_model, NoChurn)
        and not protocol.supports_dynamic_membership
    ):
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


def _kept_bounds(bounds: Sequence[int], keep: np.ndarray, kept: int) -> Sequence[int]:
    """Piece bounds after ``compress(keep)``; ``kept`` is the kept count."""
    if len(bounds) == 2:
        return (0, kept)
    cumulative = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=cumulative[1:])
    return cumulative[bounds].tolist()


def _tally(counter: np.ndarray, rows: Sequence[int], bounds: Sequence[int]) -> None:
    """Add each piece's length to its row's counter.

    A block may hold several pieces of one row, so the pieces are added one
    by one: a fancy-index ``+=`` would keep only a repeated row's last.
    """
    for row, start, stop in zip(rows, bounds[:-1], bounds[1:]):
        counter[row] += stop - start


def _row_stubs(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """The stubs of ``nodes``' CSR rows back to back; ``lengths`` are their
    degrees."""
    # Entry j sits at j plus its row's start in indptr minus its row's start
    # here: one int64 array of shifts, the entry numbers added in place.
    positions = np.repeat(indptr[nodes] - (np.cumsum(lengths) - lengths), lengths)
    positions += np.arange(positions.size)
    return indices[positions]


def _smallest_key_columns(
    generator: np.random.Generator,
    rows: int,
    width: int,
    fanout: int,
    pad: Optional[np.ndarray],
    select: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Each row's ``fanout`` columns with the smallest iid uniform keys.

    Draws ``rows · width`` keys and returns ``(rows, fanout)`` int64 columns
    in ascending key order; ``pad`` marks columns that must never win.  A key
    is a 64-bit word of the stream shifted to the 53 bits that
    ``Generator.random`` scales by 2⁻⁵³, with its column in the bits below,
    so one in-place integer row sort orders the keys and breaks exact ties
    by column.  Rows wider than 2¹¹ leave too few bits for the column and
    argsort the same draws as floats.  With ``select`` (row indices) every
    key is still drawn but only the selected rows are sorted and returned,
    and ``pad`` covers the selected rows.
    """
    shift = (width - 1).bit_length()
    if shift > _KEY_COLUMN_BITS:
        floats = generator.random((rows, width))
        if select is not None:
            floats = floats[select]
        if pad is not None:
            floats[pad] = np.inf
        # argpartition would leave the order within the k to the SIMD
        # dispatch, and the loss draws follow that order.
        return np.argsort(floats, axis=1)[:, :fanout]
    low = np.uint64((1 << shift) - 1)
    keys = generator.bit_generator.random_raw((rows, width))
    if select is not None:
        keys = keys[select]
    keys >>= np.uint64(_KEY_COLUMN_BITS - shift)
    keys &= ~low
    keys |= np.arange(width, dtype=np.uint64)
    if pad is not None:
        keys[pad] = np.iinfo(np.uint64).max
    keys.sort(axis=1)
    # Columns fit in 11 bits, so the words read the same as int64: a view,
    # where astype would copy through a slow uint64 -> int64 cast.
    return (keys[:, :fanout] & low).view(np.int64)


def _stub_target_blocks(
    generator: np.random.Generator,
    samplers: np.ndarray,
    fanout: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    uniform_degree: Optional[int] = None,
    positions: Optional[np.ndarray] = None,
) -> Tuple[int, Iterator[_ChannelBlock]]:
    """Each sampler calls ``min(fanout, degree)`` distinct adjacency stubs.

    Returns ``(channel count, blocks)``; each block is drawn when requested.
    Saturated samplers (degree <= ``fanout``) call every stub and come
    first, then the deep ones in sampler order, whose blocks pair the
    ``(rows, 1)`` sampler column with ``(rows, fanout)`` callees.  Sampling
    is over adjacency *positions*, so parallel edges weight the draw exactly
    as the scalar ``select_call_targets`` does.  A deep sampler calls its
    ``fanout`` smallest of ``degree`` iid uniform keys, in ascending key
    order (a full row sort, :func:`_smallest_key_columns`), so the loss
    draws that follow see the same channel order on every machine; an exact
    tie between keys (about 3·10⁻¹⁵ per row of 8) goes to the lower column.
    The key width is the global max degree and consecutive chunks' keys
    form one stream, so the draws depend neither on the bounds nor on
    ``uniform_degree``.  With ``positions`` (ascending indices into
    ``samplers``) the blocks hold only the calls of ``samplers[positions]``,
    while every deep sampler's keys are still drawn: the receiver side's
    stream is the sender side's.
    """
    deep_at = positions
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
    channels = int(lengths.sum()) + deep_nodes.size * fanout
    if positions is not None and deep_degrees is not None:
        picked = samplers[positions]
        full = saturated[positions]
        full_nodes, lengths = picked[full], sampler_degrees[positions[full]]
        deep_at = np.searchsorted(deep_nodes, picked[~full])

    def blocks() -> Iterator[_ChannelBlock]:
        rows = max(1, _BLOCK_CHANNELS // fanout)
        for start in range(0, full_nodes.size, rows):
            nodes = full_nodes[start : start + rows]
            counts = lengths[start : start + rows]
            yield np.repeat(nodes, counts), _row_stubs(indptr, indices, nodes, counts)
        if not deep_nodes.size:
            return
        column = np.arange(max_degree)
        rows = max(1, min(_CHUNK_ENTRIES // max_degree, _BLOCK_CHANNELS // fanout))
        starts = range(0, deep_nodes.size, rows)
        if deep_at is not None:
            cuts = np.searchsorted(deep_at, range(0, deep_nodes.size + rows, rows)).tolist()
        for chunk, start in enumerate(starts):
            drawn = min(rows, deep_nodes.size - start)
            select = None
            nodes = deep_nodes[start : start + drawn]
            if padded:
                widths = deep_degrees[start : start + drawn]
            if deep_at is not None:
                select = deep_at[cuts[chunk] : cuts[chunk + 1]] - start
                nodes = nodes[select]
                if padded:
                    widths = widths[select]
            pad = column >= widths[:, None] if padded else None
            chosen = _smallest_key_columns(
                generator, drawn, max_degree, fanout, pad, select
            )
            if nodes.size:
                chosen += indptr[nodes][:, None]
                yield nodes[:, None], indices[chosen]

    return channels, blocks()


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
    """The membership surface the bulk engine hands to ``ChurnModel.vector_apply``.

    A thin, per-round view over the engine's dynamic-membership machinery:
    ascending live-id queries plus the two mutators (bulk departures and
    stub-stealing joins).  :class:`repro.core.engine.ScalarChurnOps` is the
    scalar engine's implementation of the same surface.  Churn models draw
    their own randomness from the engine's dedicated ``"churn"`` stream and
    must keep every draw a function of live *positions*, counts, and degrees
    only (renumbering invariance — see :mod:`repro.failures.churn`).
    """

    __slots__ = ("_engine", "_state", "_round_index")

    def __init__(
        self, engine: "BatchedVectorizedRoundEngine", state: VectorState, round_index: int
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


class BatchedVectorizedRoundEngine:
    """Runs R independent replications of one configuration in lock-step.

    The one bulk engine.  Accepts the scalar engine's parameters with a list
    of ``seeds`` in place of one seed, and returns one :class:`RunResult` per
    seed, in seed order, each recording ``metadata["batch_size"]``;
    construction raises :class:`SimulationError` if the combination cannot
    be vectorized (see :func:`vectorization_unsupported_reason`).  Every
    replication uses its own seed's generator streams, spawned with the
    scalar engine's labels, so equal seeds give statistically equivalent —
    not identical — runs across engines, and each row of a batch is
    bit-identical to the one-seed run of its seed.  The whole ensemble's
    state lives in one ``(R, n)`` :class:`VectorState`; small rows share
    delivery blocks, the commit happens once per round for all replications
    together, and completed replications are compacted out of the state as
    they finish (see the module docstring).  A churn model is admitted with
    one seed only.

    One protocol instance drives all replications; it is :meth:`reset` once at
    the start of the run, and protocols with per-node state (e.g. the
    quasirandom pointer table) keep it per replication via the ``row``
    argument of the bulk hooks (and remap it on compaction via
    ``vector_compact_rows``).
    """

    #: The compaction rule's switch: dead rows and tombstoned ids are
    #: compacted away once they are a quarter of the rows or of the id space.
    #: Results are bit-identical either way; the parity tests and benches
    #: turn it off to compare.
    _compaction = True

    #: The receiver-side switch: a static, reliable round may run a row from
    #: the side that can still change (see :meth:`_receiver_positions`).  Results
    #: and generator states are bit-identical either way; the parity tests
    #: turn it off to compare.
    _receiver_side = True

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
        # Dynamic membership (churn tombstones) holds one replication.
        self._dynamic = not isinstance(self.churn_model, NoChurn)

        if self._dynamic and len(self.seeds) > 1:
            reason = (
                "churn cannot run on the batched engine with more than one seed "
                "(membership diverges per replication; run per seed instead)"
            )
        else:
            reason = vectorization_unsupported_reason(
                graph, protocol, self.config, self.failure_model, self.churn_model
            )
        if reason is not None:
            raise SimulationError(f"run cannot be vectorized: {reason}")

        # Per-replication streams, spawned with the scalar engine's labels.
        self._protocol_gens = []
        self._failure_gens = []
        for seed in self.seeds:
            rng = RandomSource(seed=seed, name="engine")
            self._protocol_gens.append(rng.spawn("protocol").generator)
            self._failure_gens.append(rng.spawn("failures").generator)
        if self._dynamic:
            self._churn_rng = rng.spawn("churn")
        self._state: Optional[VectorState] = None

        if isinstance(self.failure_model, IndependentLoss):
            self._loss_p = self.failure_model.transmission_loss_probability
            self._channel_fail_p = self.failure_model.channel_failure_probability
        else:
            self._loss_p = 0.0
            self._channel_fail_p = 0.0

        self._indptr, self._indices = graph.csr()
        # Cached on the graph next to the CSR view, so per-seed loops over
        # the same graph do not re-derive these O(m) facts per run.
        self._has_self_loops, self._uniform_degree = graph.csr_stats()
        self._n = self._indptr.size - 1
        # Every O(n) derived array is materialised lazily: a push broadcast
        # over a regular graph touches none of them, which keeps the
        # engine's own footprint out of the peak.
        self._invalidate_topology_caches()
        # Scratch buffers by name (see _scratch), reused every round; each
        # name's dtype is resolved here, once.
        self._buffers: dict = {}
        index = self._indices.dtype
        self._scratch_dtypes = {
            "uniform": np.dtype(np.float64),
            "offset": index,
            "callee": index,
            "intp": np.dtype(np.intp),
            "mark": np.dtype(bool),
            "gather": np.dtype(bool),
            "gather-index": self._indptr.dtype,
        }

    # -- lazy CSR-derived caches ---------------------------------------------------

    @property
    def _degrees(self) -> np.ndarray:
        if self._degrees_array is None:
            if self._uniform_degree is not None:
                # A read-only broadcast: every run would otherwise build
                # (and fault in) an n-entry array of one value.
                self._degrees_array = np.broadcast_to(
                    self._indptr.dtype.type(self._uniform_degree), (self._n,)
                )
            else:
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

    def _nz(self) -> np.ndarray:
        """The nodes with a neighbour (a pull round's samplers), ascending,
        in CSR index dtype: the graph's cached, read-only list
        (:meth:`Graph.non_isolated_nodes`), or under churn the engine's own
        list of the live ones, since dead rows are tombstones that must
        never sample.  Joins append to that list and departures remove
        from it in place (:meth:`_join_nodes`, :meth:`_depart_nodes`)."""
        if self._nz_cache is None:
            if self._dynamic:
                nodes = self._state.alive
                if not self._all_positive():
                    nodes = nodes & self._degree_positive
                self._nz_cache = np.flatnonzero(nodes).astype(self._indices.dtype, copy=False)
            else:
                self._nz_cache = self.graph.non_isolated_nodes()
        return self._nz_cache

    def _channel_info(self, fanout: int) -> Tuple[int, Optional[int]]:
        """``(total channels over all live nodes, uniform per-node cost or None)``.

        The uniform cost applies when every node pays the same
        ``min(degree, fanout)`` — regular graphs, or fanout 1 without
        isolated nodes — and turns pool/mask channel accounting into a
        multiplication instead of a gather over a cost array.  Under churn
        there is no uniform cost and only live nodes count.
        """
        cached = self._channel_info_cache.get(fanout)
        if cached is None:
            if self._dynamic:
                cost = self._channel_cost_array(fanout)
                cached = (int(cost[self._state.alive].sum()), None)
            elif self._uniform_degree is not None:
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

    # -- scratch buffers -------------------------------------------------------

    def _scratch(self, name: str, size: int) -> np.ndarray:
        """The first ``size`` entries of the reused buffer ``name``.

        A buffer grows to the largest size asked for (freed before it is
        reallocated, so two generations never coexist) and lives as long as
        the engine; its dtype is the name's, fixed at construction, so a
        lookup is one dict get.  Its contents are valid until the next call
        for the same name.  Block-sized temporaries allocated afresh every
        round come back as fresh pages whenever the allocator has handed
        large blocks back to the system: a page fault per 4 KiB.
        """
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            self._buffers[name] = None
            buffer = self._buffers[name] = np.empty(
                size, dtype=self._scratch_dtypes[name]
            )
        return buffer[:size]

    #: Below this many entries :meth:`_gather` takes with a plain ``take``:
    #: the scratch conversion's extra calls cost more than the int64 index
    #: copy they save (forcing it read 1.015–1.075× slower on 5- and
    #: 20-seed batches at n ≤ 8192).  It is also the row-sharing bound:
    #: rows with fewer channels share delivery blocks, where per-call
    #: overhead would dominate too.
    _SCRATCH_MIN_SAMPLERS = 1 << 15

    def _gather(self, plane: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """``plane.take(indices)``, through scratch for a block-sized take.

        ``ndarray.take`` first copies non-``intp`` indices (the CSR's int32)
        to a fresh ``intp`` array.  Past :attr:`_SCRATCH_MIN_SAMPLERS`
        entries the indices are converted that many at a time into the
        ``"intp"`` scratch and the result lands in the ``"gather"``
        scratch, valid until the next call.  ``mode="clip"`` selects what
        the default mode would, since every index is in range, and lets
        ``out`` be written without a buffer.  A boolean plane's result lands
        in ``"gather"``, a degree or offset plane's in ``"gather-index"``.
        """
        step = self._SCRATCH_MIN_SAMPLERS
        if indices.size < step:
            return plane.take(indices)
        flat = indices.reshape(-1)
        out = self._scratch("gather" if plane.dtype.kind == "b" else "gather-index", flat.size)
        index = self._scratch("intp", step)
        for start in range(0, flat.size, step):
            part = index[: min(step, flat.size - start)]
            np.copyto(part, flat[start : start + step])
            np.take(plane, part, out=out[start : start + step], mode="clip")
        return out.reshape(indices.shape)

    def _fanout1_callees(
        self,
        samplers: np.ndarray,
        draws: Sequence[Tuple[np.random.Generator, int]],
        picks: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Callees of one uniform stub draw per sampler, via scratch buffers.

        ``draws`` lists ``(generator, count)`` pairs whose uniforms fill
        consecutive slices of the samplers: one pair for a block of one row,
        one per row for a block that rows share.  ``generator.random(out=...)``
        draws each slice as the stream of one ``random(count)`` call, so a
        batch row's stream is its single run's whatever the block bounds.
        A sampler of degree ``d`` calls its stub ``floor(U · d)``: a batch of
        uniforms is about twice as fast to draw as bounded integers, the
        offset is uniform over ``[0, d)`` up to an O(2⁻⁵³) float bias, and a
        clip to ``d - 1`` guards the rounding edge where ``U · d`` lands on
        ``d``.  Called once per delivery block, so the scratch stays one
        block; the result is a view into the callee scratch buffer (valid
        until the next call).  With ``picks`` (ascending indices into
        ``samplers``) every uniform is still drawn, but only the callees of
        ``samplers[picks]`` are returned: the receiver side's draw.
        """
        uniforms = self._scratch("uniform", samplers.size)
        stop = 0
        for generator, count in draws:
            start, stop = stop, stop + count
            generator.random(out=uniforms[start:stop])
        if picks is not None:
            samplers, uniforms = samplers.take(picks), uniforms.take(picks)
        offsets = self._scratch("offset", samplers.size)
        # Once the offsets are out, the uniforms' buffer holds the gather
        # positions as intp, which the final take reads without a copy.
        positions = uniforms.view(np.intp)
        if self._uniform_degree is not None:
            degree = self._uniform_degree
            np.multiply(uniforms, degree, out=uniforms)
            np.copyto(offsets, uniforms, casting="unsafe")  # trunc == floor ≥ 0
            np.minimum(offsets, degree - 1, out=offsets)
            np.multiply(samplers, degree, out=positions)
        else:
            sampler_degrees = self._gather(self._degrees, samplers)
            np.multiply(uniforms, sampler_degrees, out=uniforms)
            np.copyto(offsets, uniforms, casting="unsafe")
            np.subtract(sampler_degrees, 1, out=sampler_degrees)
            np.minimum(offsets, sampler_degrees, out=offsets)
            positions[...] = self._gather(self._indptr, samplers)
        np.add(positions, offsets, out=positions)
        callees = self._scratch("callee", samplers.size)
        return np.take(self._indices, positions, out=callees, mode="clip")

    # -- blocked delivery ----------------------------------------------------------

    def _channel_blocks(
        self,
        round_index: int,
        state: VectorState,
        samplers: np.ndarray,
        fanout: int,
        generator: np.random.Generator,
        row: int,
        positions: Optional[np.ndarray] = None,
    ) -> Tuple[int, Iterator[_ChannelBlock]]:
        """``(channel count, blocks)`` of one row's calls, in channel order.

        Blocks are drawn from ``generator`` as they are consumed.  A custom
        target hook is called here, once, with every sampler (and ``row``),
        and only its output is cut up.  With ``positions`` (ascending
        indices into ``samplers``) the blocks hold only the calls of
        ``samplers[positions]``, while every random number is drawn as
        without; the count stays the row's.
        """
        if fanout > 1:
            return _stub_target_blocks(
                generator, samplers, fanout,
                self._indptr, self._indices, self._degrees, self._uniform_degree,
                positions,
            )
        size = _BLOCK_CHANNELS
        starts = range(0, samplers.size, size)
        if not self.protocol.overrides("vector_call_targets"):
            if positions is None:
                return samplers.size, (
                    (block, self._fanout1_callees(block, ((generator, block.size),)))
                    for block in (samplers[i : i + size] for i in starts)
                )
            cuts = np.searchsorted(positions, range(0, samplers.size + size, size)).tolist()
            picked = (
                (samplers[start : start + size], positions[cuts[i] : cuts[i + 1]] - start)
                for i, start in enumerate(starts)
            )
            return samplers.size, (
                (
                    block.take(picks),
                    self._fanout1_callees(block, ((generator, block.size),), picks),
                )
                for block, picks in picked
            )
        channels = samplers.size
        callees = self.protocol.vector_call_targets(
            round_index, state, samplers, generator,
            self._indptr, self._indices, self._degrees, row=row, positions=positions,
        )
        if positions is not None:
            samplers = samplers.take(positions)
        return channels, (
            (samplers[i : i + size], callees[i : i + size])
            for i in range(0, samplers.size, size)
        )

    def _fill_channel_up(self, generator: np.random.Generator, out: np.ndarray) -> None:
        """Draw ``out.size`` channel-failure tests into a 1-byte mask."""
        for start in range(0, out.size, _BLOCK_CHANNELS):
            part = out[start : start + _BLOCK_CHANNELS]
            np.greater_equal(generator.random(part.size), self._channel_fail_p, out=part)

    def _own_blocks(
        self,
        row: int,
        base: int,
        channels: int,
        blocks: Iterator[_ChannelBlock],
        failure_gen: np.random.Generator,
    ) -> Iterator[_DeliveryBlock]:
        """One row's channel blocks as delivery blocks of a single piece.

        The row's channel-failure draws all come first, before its first
        block reaches the loss draws.
        """
        channel_up: Optional[np.ndarray] = None
        if self._channel_fail_p > 0.0 and channels:
            channel_up = np.empty(channels, dtype=bool)
            self._fill_channel_up(failure_gen, channel_up)
        rows = (row,)
        position = 0
        for callers, callees in blocks:
            stop = position + callees.size
            yield callers, callees, base, rows, (0, callees.size), (
                None if channel_up is None else channel_up[position:stop]
            )
            position = stop

    def _deliver(
        self,
        state: VectorState,
        blocks: Iterator[_DeliveryBlock],
        push_active: bool,
        push_mask: Optional[np.ndarray],
        pull_mask: Optional[np.ndarray],
        failure_gens: Sequence[np.random.Generator],
        tallies: np.ndarray,
    ) -> np.ndarray:
        """Filter, loss-test and cut each block to fresh receivers.

        The one block body; a row's own blocks sit at base ``row * n``, a
        shared block's flat indices at base 0.  Pull rounds pass
        ``pull_mask`` (and ``push_mask`` when they push too); push-only
        rounds sample exactly the pushers.  ``tallies`` holds the push, pull
        and lost counters per state row and is added to in place.
        Transmissions count after the usable filter and before loss.  On
        each row's failure stream the push-loss draws follow in channel
        order, then its pull-loss draws: a lossy round that pushes and pulls
        holds its pull receivers until the push pass ends.  Returns the flat
        indices of the still-uninformed receivers, which two blocks may
        share.
        """
        pull_active = pull_mask is not None
        push_tx, pull_tx, lost = tallies
        informed = state.informed.reshape(-1)
        push_plane = None if push_mask is None else push_mask.reshape(-1)
        pull_plane = None if pull_mask is None else pull_mask.reshape(-1)
        index_dtype = state.index_dtype
        loss_p = self._loss_p
        fresh: List[np.ndarray] = []

        def keep_fresh(receivers, base, rows, bounds) -> None:
            if receivers.size == 0:
                return
            keep = self._gather(informed[base:], receivers)
            np.logical_not(keep, out=keep)
            if loss_p > 0.0:
                survived = np.empty(receivers.size, dtype=bool)
                for row, start, stop in zip(rows, bounds[:-1], bounds[1:]):
                    part = survived[start:stop]
                    np.greater_equal(failure_gens[row].random(part.size), loss_p, out=part)
                    lost[row] += part.size - np.count_nonzero(part)
                keep &= survived
            hits = receivers.compress(keep)
            if hits.size:
                fresh.append(np.add(hits, base, dtype=index_dtype) if base else hits)

        # Self-calls (self-loop stubs) count as opened channels but never
        # connect; failed channels are unusable for both directions; under
        # churn, stubs pointing at departed nodes (or compaction's -1
        # sentinels) are tombstones that connect nowhere.  On a static
        # self-loop-free graph with reliable channels nothing can be
        # filtered, so the pass is skipped outright.
        filtering = self._dynamic or self._has_self_loops or self._channel_fail_p > 0.0
        hold_pulls = push_active and pull_active and loss_p > 0.0
        held = []
        # ``take``/``compress`` select exactly what fancy and boolean
        # indexing would, several times faster on random masks.
        for callers, callees, base, rows, bounds, channel_up in blocks:
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
                    usable &= channel_up.reshape(usable.shape)
                if not usable.all():
                    usable = usable.reshape(-1)
                    callees = callees.compress(usable)
                    if pull_active:
                        callers = callers.compress(usable)
                    bounds = _kept_bounds(bounds, usable, callees.size)
            callees = callees.reshape(-1)
            if push_active:
                receivers, push_bounds = callees, bounds
                if pull_active:
                    sending = self._gather(push_plane[base:], callers)
                    receivers = callees.compress(sending)
                    push_bounds = _kept_bounds(bounds, sending, receivers.size)
                _tally(push_tx, rows, push_bounds)
                keep_fresh(receivers, base, rows, push_bounds)
            if pull_active:
                answering = self._gather(pull_plane[base:], callees)
                receivers = callers.compress(answering)
                pull_bounds = _kept_bounds(bounds, answering, receivers.size)
                _tally(pull_tx, rows, pull_bounds)
                if hold_pulls:
                    held.append((receivers, base, rows, pull_bounds))
                else:
                    keep_fresh(receivers, base, rows, pull_bounds)
        for receivers, base, rows, bounds in held:
            keep_fresh(receivers, base, rows, bounds)
        if not fresh:
            return np.empty(0, dtype=index_dtype)
        return fresh[0] if len(fresh) == 1 else np.concatenate(fresh)

    # -- public API ---------------------------------------------------------------

    def run(self, source: int = 0) -> List[RunResult]:
        """Run all replications; returns one :class:`RunResult` per seed."""
        if source not in self.graph:
            raise SimulationError(f"source node {source} is not in the graph")

        n = self.graph.node_count
        batch = len(self.seeds)
        protocol = self.protocol
        config = self.config
        protocol.reset()
        state = VectorState(n=n, source=source, batch=batch)
        if protocol.overrides("vector_push_samplers") or protocol.overrides(
            "vector_caller_pool"
        ):
            state.enable_index_tracking()
        if self._dynamic:
            state.enable_membership()
            self._state = state
            self._reset_dynamic_topology()
        horizon = protocol.horizon()
        if config.max_rounds is not None:
            horizon = min(horizon, config.max_rounds)

        # Per-seed results, in seed order: push, pull, lost and channel totals.
        executed = [0] * batch
        completion: List[Optional[int]] = [None] * batch
        final_informed = [0] * batch
        totals: List[Optional[List[int]]] = [None] * batch
        histories: List[list] = [[] for _ in range(batch)]
        phase_transmissions: List[dict] = [{} for _ in range(batch)]

        # The same per state row: the row -> seed map and the live generator
        # lists shrink together with the state when rows are compacted away.
        origin = list(range(batch))
        self._live_protocol_gens = list(self._protocol_gens)
        self._live_failure_gens = list(self._failure_gens)
        row_totals = np.zeros((4, batch), dtype=np.int64)
        row_histories = list(histories)
        row_phases = list(phase_transmissions)
        # Rows without a completion round yet, and the rows still running
        # (ascending): under stop_when_informed a row stops the round it
        # completes, so the two lists are one.
        pending = list(range(batch))
        stop = config.stop_when_informed
        running = pending if stop else list(range(batch))
        collect = config.collect_round_history
        last_round = 0

        def fold(rows: List[int]) -> None:
            """Record the final counts of the state ``rows``."""
            informed = state.informed_count.tolist()
            for row, sums in zip(rows, row_totals[:, rows].T.tolist()):
                final_informed[origin[row]] = informed[row]
                totals[origin[row]] = sums

        for round_index in range(1, horizon + 1):
            last_round = round_index
            if self._dynamic:
                self._apply_churn(round_index, state)
            if collect:
                informed_before = state.informed_count.tolist()
            counts = self._run_round(round_index, state, running)
            row_totals += counts
            informed_after = state.informed_count.tolist()
            phase = protocol.phase_label(round_index)
            if phase or collect:
                push_tx, pull_tx, lost, channels = counts.tolist()
            if phase:
                for row in running:
                    phases = row_phases[row]
                    phases[phase] = phases.get(phase, 0) + push_tx[row] + pull_tx[row]
            if collect:
                for row in running:
                    row_histories[row].append(
                        RoundRecord(
                            round_index=round_index,
                            informed_before=informed_before[row],
                            informed_after=informed_after[row],
                            push_transmissions=push_tx[row],
                            pull_transmissions=pull_tx[row],
                            channels_opened=channels[row],
                            lost_transmissions=lost[row],
                            phase=phase,
                        )
                    )

            live = state.alive_count
            done = [row for row in pending if informed_after[row] == live]
            if not done:
                continue
            for row in done:
                completion[origin[row]] = round_index
            pending = [row for row in pending if informed_after[row] != live]
            if not stop:
                continue
            for row in done:
                executed[origin[row]] = round_index
            running = pending
            if not running:
                break
            if self._compaction_due(state.batch - len(running), state.batch):
                # Fold the stopped rows into the results, then drop them:
                # the protocol first (it may need the old row count), then
                # the engine-owned state, generator lists and accumulators.
                kept = set(running)
                fold([row for row in range(state.batch) if row not in kept])
                keep = np.array(running)
                protocol.vector_compact_rows(keep, state.n, state.batch)
                state.compact_rows(keep)
                origin = [origin[row] for row in running]
                row_totals = row_totals[:, keep]
                self._live_protocol_gens = [self._live_protocol_gens[i] for i in running]
                self._live_failure_gens = [self._live_failure_gens[i] for i in running]
                row_histories = [row_histories[i] for i in running]
                row_phases = [row_phases[i] for i in running]
                running = pending = list(range(keep.size))

        # Rows still in the state at the end (never compacted away).
        fold(list(range(state.batch)))
        for row in running:
            executed[origin[row]] = last_round

        # A row folded at compaction stopped complete (and only a one-row run
        # churns), so every run's success is "informed == live" at the end.
        live = state.alive_count
        metadata = {
            "protocol": protocol.describe(),
            "failure_model": self.failure_model.describe(),
            "churn_model": self.churn_model.describe(),
            "final_node_count": live if self._dynamic else self.graph.node_count,
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
        return [
            RunResult(
                n=n,
                protocol=protocol.name,
                source=source,
                success=final_informed[seed] == live,
                rounds_executed=executed[seed],
                rounds_to_completion=completion[seed],
                total_push_transmissions=totals[seed][0],
                total_pull_transmissions=totals[seed][1],
                total_channels_opened=totals[seed][3],
                total_lost_transmissions=totals[seed][2],
                final_informed=final_informed[seed],
                history=histories[seed],
                phase_transmissions=phase_transmissions[seed],
                metadata={**metadata, "batch_size": batch},
            )
            for seed in range(batch)
        ]

    def _compaction_due(self, dead: int, size: int) -> bool:
        """Whether ``dead`` of ``size`` rows or ids call for compaction.

        A quarter: each compaction costs one copy of what survives, so
        waiting for a quarter keeps the total copy volume linear, while the
        per-round scans and commits track the live part instead of the dead.
        """
        return self._compaction and dead > 0 and dead * 4 >= size

    # -- dynamic membership (vectorized churn) -------------------------------------

    def _reset_dynamic_topology(self) -> None:
        """Private mutable CSR copies for a fresh churn run.

        The caller's graph is never mutated on this path — departures
        tombstone rows, joins append — so re-running the engine (or running
        many seeds over one graph) needs no ``graph.copy()``; each run
        restarts from the graph's pristine CSR here, copied into buffers
        with room for joins (:func:`~repro.core.node._extended`).
        """
        indptr, indices = self.graph.csr()
        self._indptr = _extended(indptr[:0].copy(), indptr)
        self._indices = _extended(indices[:0].copy(), indices)
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
        self._nz_cache = None
        self._channel_cost_cache = {}
        self._channel_info_cache = {}
        self._all_degrees_positive = (
            None if self._uniform_degree is None else self._uniform_degree > 0
        )
        # The join's live-stub prefix (see _join_nodes).
        self._cum = None

    def _apply_churn(self, round_index: int, state: VectorState) -> None:
        """Run the churn model's bulk hook, then compact if enough ids died."""
        ops = VectorChurnOps(self, state, round_index)
        event = self.churn_model.vector_apply(round_index, ops, self._churn_rng)
        self._departures_total += event.departures
        self._arrivals_total += event.arrivals
        if self._compaction_due(state.n - state.alive_count, state.n):
            self._compact_nodes(state)

    def _depart_nodes(self, ids: np.ndarray, state: VectorState) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        state.remove_nodes(ids)
        self.protocol.vector_remove_nodes(ids, state)
        # Degrees and cost arrays are untouched (tombstone rows keep their
        # stubs); the live aggregates that exist lose the leavers' shares.
        if self._nz_cache is not None:
            self._nz_cache = remove_sorted_values(self._nz_cache, ids, in_place=True)
        for fanout, (total, _) in self._channel_info_cache.items():
            left = int(self._channel_cost_array(fanout)[ids].sum())
            self._channel_info_cache[fanout] = (total - left, None)
        if self._cum is not None:
            # Every prefix from the first leaver on drops the leavers' stubs
            # up to it.
            lost = np.cumsum(self._degrees[ids], dtype=np.int64)
            self._cum[ids[0] :] -= np.repeat(lost, np.diff(ids, append=self._n))

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
        # cum[i] counts the live stubs of the ids up to i, so dead and
        # neighbourless ids own empty ranges and the owner of position p is
        # the first id whose count exceeds p.  It is kept between rounds:
        # joins append to it, departures lower it, compaction drops it.
        if self._cum is None:
            self._cum = np.cumsum(np.where(state.alive, self._degrees, 0), dtype=np.int64)
        cum = self._cum
        base_n = state.n
        total_stubs = int(cum[-1]) if cum.size else 0

        new_ids = state.grow_nodes(count)
        indptr = self._indptr
        indices = self._indices
        degrees = self._degrees
        made = np.zeros(count * splices, dtype=bool)
        tail = indices[:0]
        if total_stubs > 0:
            uniforms = generator.random(count * splices)
            positions = (uniforms * total_stubs).astype(np.int64)
            np.minimum(positions, total_stubs - 1, out=positions)
            # A binary search walks the prefix about twice as fast over
            # ascending positions.
            order = positions.argsort()
            owners = np.empty_like(positions)
            owners[order] = np.searchsorted(cum, positions[order], side="right")
            offsets = positions - (cum[owners] - degrees[owners])
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

        # The joiners' rows and cache entries go after everyone else's: only
        # the arrays that exist grow, and none is rebuilt.
        lengths = (2 * np.count_nonzero(made.reshape(count, splices), axis=1)).astype(
            indptr.dtype
        )
        stubs = np.cumsum(lengths, dtype=np.int64)
        self._indptr = _extended(indptr, indptr[-1] + stubs)
        self._indices = _extended(indices, tail)
        self._n = self._indptr.size - 1
        self._cum = _extended(cum, total_stubs + stubs)
        self._degrees_array = _extended(degrees, lengths)
        positive = lengths > 0
        if self._degree_positive_array is not None:
            self._degree_positive_array = _extended(self._degree_positive_array, positive)
        if self._all_degrees_positive:
            self._all_degrees_positive = bool(positive.all())
        for fanout, cost in self._channel_cost_cache.items():
            joined = np.minimum(lengths, fanout)
            self._channel_cost_cache[fanout] = _extended(cost, joined)
            if fanout in self._channel_info_cache:
                total, _ = self._channel_info_cache[fanout]
                self._channel_info_cache[fanout] = (total + int(joined.sum()), None)
        if self._nz_cache is not None:
            self._nz_cache = _extended(
                self._nz_cache, new_ids[positive].astype(self._nz_cache.dtype)
            )
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
        on/off is bit-transparent, mirroring row compaction.
        """
        keep = np.flatnonzero(state.alive)
        indptr = self._indptr
        lengths = self._degrees[keep]
        # Every node-axis cache is rebuilt from the new CSR; dropping them
        # first keeps them out of the compaction's peak.
        self._invalidate_topology_caches()
        remap = state.compact_nodes(keep)
        new_indptr = np.zeros(keep.size + 1, dtype=indptr.dtype)
        np.cumsum(lengths, out=new_indptr[1:])
        values = _row_stubs(indptr, self._indices, keep, lengths)
        # Dead targets (stale ids and prior -1 sentinels) all map to -1:
        # remap already carries -1 for dropped ids, so only the -1 entries
        # themselves need the index guard.
        sentinel = values < 0
        mapped = remap[np.where(sentinel, 0, values)].astype(values.dtype, copy=False)
        mapped[sentinel] = -1
        self._indices = mapped
        self._indptr = new_indptr
        self._n = keep.size
        self.protocol.vector_compact_nodes(remap, state)
        self._node_compactions += 1

    # -- round mechanics -------------------------------------------------------------

    def _run_round(
        self, round_index: int, state: VectorState, running: List[int]
    ) -> np.ndarray:
        """One lock-step round of the ``running`` rows (ascending).

        Returns ``int64[4, R]``: push, pull and lost transmissions and
        channels opened per state row, zero for the rows that have stopped.
        """
        protocol = self.protocol
        push_active = protocol.push_round(round_index)
        pull_active = protocol.pull_round(round_index)
        fanout = protocol.vector_fanout(round_index)
        counts = np.zeros((4, state.batch), dtype=np.int64)
        charge = self._channel_charge(round_index, state, fanout)
        if len(running) == state.batch:
            counts[3] = charge
        else:
            counts[3, running] = charge if np.ndim(charge) == 0 else charge[running]

        pull_mask = protocol.vector_wants_pull(round_index, state) if pull_active else None
        push_mask: Optional[np.ndarray] = None
        if push_active and pull_active:
            push_mask = protocol.vector_wants_push(round_index, state)
        if protocol.overrides("vector_call_targets") and fanout != 1:
            raise SimulationError(
                "custom bulk target selection requires uniform fanout 1"
            )
        if (push_active or pull_active) and fanout > 0:
            receiver = None
            # No row opens more than n · min(fanout, degree) channels, so
            # below the floor no row's rule need be asked.
            cost = fanout if self._uniform_degree is None else min(fanout, self._uniform_degree)
            if (
                self._receiver_side
                and not self._dynamic
                and self._loss_p == 0.0
                and self._channel_fail_p == 0.0
                and state.n * cost >= _RECEIVER_MIN_CHANNELS
            ):
                receiver = (push_mask, pull_mask, counts[:3])
            blocks = self._batch_blocks(
                round_index, state,
                self._row_samplers(round_index, state, running, pull_active),
                fanout, len(running) == 1, receiver,
            )
            delivered = self._deliver(
                state, blocks, push_active, push_mask, pull_mask,
                self._live_failure_gens, counts[:3],
            )
        else:
            delivered = np.empty(0, dtype=state.index_dtype)
        newly_informed = state.commit_delivered(delivered, round_index)
        protocol.vector_on_round_committed(round_index, state, newly_informed)
        return counts

    def _channel_charge(self, round_index: int, state: VectorState, fanout: int):
        """Channels each state row opens this round: per row, or one for all.

        Every calling node opens min(fanout, degree) channels per round,
        whether or not its calls can carry information — identical to the
        scalar engine's accounting.  Protocols whose uninformed nodes stay
        silent report the calling set as an index pool, so the charge
        matches the scalar per-node fanout of 0.
        """
        channel_total, uniform_cost = self._channel_info(fanout)
        pool = self.protocol.vector_caller_pool(round_index, state)
        if pool is None:
            return channel_total
        if state.batch == 1:
            if uniform_cost is not None:
                return pool.size * uniform_cost
            return self._channel_cost_array(fanout)[pool].sum()
        bounds = VectorState.row_bounds(pool, state.n, state.batch)
        if uniform_cost is not None:
            return np.diff(bounds) * uniform_cost
        cost = self._channel_cost_array(fanout)
        sums = np.concatenate(([0], np.cumsum(cost[pool % state.n])))
        return sums[bounds[1:]] - sums[bounds[:-1]]

    def _row_samplers(
        self,
        round_index: int,
        state: VectorState,
        running: List[int],
        pull_active: bool,
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """``(row, sampler node ids)`` of each running row that calls, ascending.

        Pull rounds sample every node with a neighbour; push-only rounds
        split the protocol's flat index pool at the row boundaries (stopped
        rows' entries are never touched) and drop neighbourless nodes.  Row
        0 gets a view of its segment; other rows' node ids are the segment
        minus ``row * n``.
        """
        if pull_active:
            samplers = self._nz()
            if samplers.size:
                for row in running:
                    yield row, samplers
            return
        pool = self.protocol.vector_push_samplers(round_index, state)
        bounds = VectorState.row_bounds(pool, state.n, state.batch).tolist()
        for row in running:
            samplers = pool[bounds[row] : bounds[row + 1]]
            if row:
                samplers = samplers - pool.dtype.type(row * state.n)
            if not self._all_positive():
                samplers = samplers[self._degree_positive[samplers]]
            if samplers.size:
                yield row, samplers

    def _batch_blocks(
        self,
        round_index: int,
        state: VectorState,
        row_samplers: Iterator[Tuple[int, np.ndarray]],
        fanout: int,
        lone: bool,
        receiver: Optional[Tuple[Optional[np.ndarray], Optional[np.ndarray], np.ndarray]],
    ) -> Iterator[_DeliveryBlock]:
        """Delivery blocks of every running row's channels, in ascending row order.

        Each row draws from its own generators.  A row with at least
        :attr:`_SCRATCH_MIN_SAMPLERS` channels, the ``lone`` running row, or
        a row that runs from the receiver side is delivered in blocks of its
        own at the scalar offset ``row * n``.  Smaller rows are packed whole
        into shared blocks of flat indices, so small-``n`` sweeps still pay
        one gather, filter and loss pass per block rather than per row.  A
        row never straddles two shared blocks, which keeps its
        channel-failure draws ahead of its loss draws.  ``receiver`` is
        ``(push_mask, pull_mask, tallies)`` in a round whose rows may run
        from the receiver side (:meth:`_receiver_positions` picks the side
        row by row), ``None`` otherwise.
        """
        n = state.n
        share = min(self._SCRATCH_MIN_SAMPLERS, _BLOCK_CHANNELS)
        fanout1 = fanout == 1 and not self.protocol.overrides("vector_call_targets")
        pieces: List[Tuple[int, np.ndarray, Optional[np.ndarray]]] = []
        packed = 0
        for row, samplers in row_samplers:
            positions = None
            if receiver is not None:
                positions = self._receiver_positions(
                    state, row, samplers, fanout, *receiver
                )
            own = lone or positions is not None
            if fanout1 and samplers.size < share and not own:
                # Drawn by the shared block's one gather.
                channels, blocks = samplers.size, None
            else:
                channels, blocks = self._channel_blocks(
                    round_index, state, samplers, fanout,
                    self._live_protocol_gens[row], row, positions,
                )
            if channels >= share or own:
                if pieces:
                    yield self._shared_block(pieces, state)
                    pieces, packed = [], 0
                yield from self._own_blocks(
                    row, row * n, channels, blocks, self._live_failure_gens[row]
                )
                continue
            if packed + channels > share:
                yield self._shared_block(pieces, state)
                pieces, packed = [], 0
            packed += channels
            if blocks is None:
                pieces.append((row, samplers, None))
            else:
                pieces.extend((row, callers, callees) for callers, callees in blocks)
        if pieces:
            yield self._shared_block(pieces, state)

    def _shared_block(
        self,
        pieces: List[Tuple[int, np.ndarray, Optional[np.ndarray]]],
        state: VectorState,
    ) -> _DeliveryBlock:
        """One delivery block of flat indices from several small rows.

        ``pieces`` are ``(row, callers, callees)`` in channel order; fanout-1
        pieces carry only their samplers (``callees is None``): each row's
        uniforms are drawn into its slice of one array, then one gather
        serves the block.  Each row's channel-failure draws fill its slice
        of the block's mask.
        """
        rows = [row for row, _, _ in pieces]
        index_dtype = state.index_dtype
        if pieces[0][2] is None:
            callers = np.concatenate([samplers for _, samplers, _ in pieces])
            lengths = [samplers.size for _, samplers, _ in pieces]
            callees = self._fanout1_callees(
                callers,
                [(self._live_protocol_gens[row], size) for row, size in zip(rows, lengths)],
            )
        else:
            # A top-k piece pairs a (rows, 1) sampler column with its
            # (rows, k) callees.
            callers = np.concatenate([
                row_callers.repeat(row_callees.size // row_callers.size)
                for _, row_callers, row_callees in pieces
            ])
            callees = np.concatenate([row_callees.reshape(-1) for _, _, row_callees in pieces])
            lengths = [row_callees.size for _, _, row_callees in pieces]
        bases = np.repeat(np.asarray(rows, dtype=index_dtype) * state.n, lengths)
        callers = np.add(callers, bases, dtype=index_dtype)
        callees = np.add(callees, bases, out=bases)
        bounds = [0, *accumulate(lengths)]
        channel_up: Optional[np.ndarray] = None
        if self._channel_fail_p > 0.0:
            channel_up = np.empty(callees.size, dtype=bool)
            for row, start, stop in zip(rows, bounds[:-1], bounds[1:]):
                self._fill_channel_up(self._live_failure_gens[row], channel_up[start:stop])
        return callers, callees, 0, rows, bounds, channel_up

    # -- receiver-side rounds ------------------------------------------------------

    def _receiver_positions(
        self,
        state: VectorState,
        row: int,
        samplers: np.ndarray,
        fanout: int,
        push_mask: Optional[np.ndarray],
        pull_mask: Optional[np.ndarray],
        tallies: np.ndarray,
    ) -> Optional[np.ndarray]:
        """The candidates' ascending positions in ``samplers`` when the row
        runs from the receiver side this round, else ``None``.

        A row qualifies when it has at least :data:`_RECEIVER_MIN_CHANNELS`
        channels and the side of it that can still change is small: its
        node count times the mean degree, times :data:`_RECEIVER_RATIO`, is
        at most the row's channels.  In a push-only round that side is the
        uninformed nodes; a round that pulls takes the smaller of the
        informed count (a bound on the answering and pushing nodes) and the
        uninformed count, and :meth:`_pull_side_answers` picks the side.

        The candidates are the samplers whose calls can deliver or change a
        count: in a push-only round the samplers among ``N(U)``, ``U`` being
        the row's uninformed nodes; in a round that pulls the answering side
        ``N(A)`` plus the pushers, or the silent side ``N(Ā) ∪ N(U) ∪ U``;
        always the nodes with a self-loop stub, so every self-call is a
        candidate's.  Every other call is usable and informs no one: its
        transmissions are added to ``tallies`` here, by counting, and the
        block body sees only the candidates' calls.  Static, reliable rounds
        only: no channel is lost, and the CSR cannot change.
        """
        if pull_mask is None:
            degree = self._uniform_degree
            channels = samplers.size * (fanout if degree is None else min(fanout, degree))
        else:
            channels = self._channel_info(fanout)[0]
        if channels < _RECEIVER_MIN_CHANNELS:
            return None
        n = state.n
        informed = int(state.informed_count[row])
        uninformed = n - informed
        side = uninformed if pull_mask is None else min(informed, uninformed)
        # side × mean degree × ratio > channels, in integers.
        if side * self._indices.size * _RECEIVER_RATIO > channels * n:
            return None
        informed_row = state.informed[row]
        push_row = None if push_mask is None else push_mask[row]
        pull_row = None if pull_mask is None else pull_mask[row]
        answering = pull_row is not None and self._pull_side_answers(informed, uninformed)
        mark = self._scratch("mark", n)
        mark.fill(False)
        if pull_row is None:
            mark[self._neighbour_stubs(np.flatnonzero(~informed_row))] = True
        elif answering:
            mark[self._neighbour_stubs(np.flatnonzero(pull_row))] = True
            if push_row is not None:
                np.logical_or(mark, push_row, out=mark)
        else:
            silent = np.flatnonzero(~(pull_row & informed_row))
            mark[self._neighbour_stubs(silent)] = True
            mark[silent] = True
        mark[self.graph.self_loop_nodes()] = True
        if pull_row is not None and self._all_positive():
            # A pull round's samplers are every node: a rank is a node id.
            positions = np.flatnonzero(mark)
        elif np.count_nonzero(mark) * _SEARCH_COST < samplers.size:
            nodes = np.flatnonzero(mark).astype(samplers.dtype)
            positions = np.searchsorted(samplers, nodes)
            inside = positions < samplers.size
            inside[inside] = samplers[positions[inside]] == nodes[inside]
            positions = positions[inside]
        else:
            # Block by block: a take copies int32 indices to int64 first.
            positions = np.concatenate([
                np.flatnonzero(self._gather(mark, samplers[start : start + _BLOCK_CHANNELS]))
                + start
                for start in range(0, samplers.size, _BLOCK_CHANNELS)
            ])

        push_tx, pull_tx, _ = tallies
        if pull_row is None:
            candidates = samplers.take(positions)
            push_tx[row] += self._calls(samplers, fanout) - self._calls(candidates, fanout)
        elif not answering:
            candidates = samplers.take(positions)
            pull_tx[row] += channels - self._calls(candidates, fanout)
            if push_row is not None:
                pushers = candidates.compress(push_row.take(candidates))
                push_tx[row] += self._calls(push_row, fanout) - self._calls(pushers, fanout)
        return positions

    @staticmethod
    def _pull_side_answers(informed: int, uninformed: int) -> bool:
        """Whether a receiver-side pull round starts from the answering side.

        The answering and pushing nodes are informed, so the informed count
        bounds that side; the silent side grows with the uninformed count.
        """
        return informed <= uninformed

    def _neighbour_stubs(self, nodes: np.ndarray) -> np.ndarray:
        """The stubs of ``nodes``' CSR rows: each node's neighbours, repeated."""
        degree = self._uniform_degree
        if degree:
            return self._indices.reshape(-1, degree)[nodes].reshape(-1)
        return _row_stubs(self._indptr, self._indices, nodes, self._degrees[nodes])

    def _calls(self, nodes: np.ndarray, fanout: int) -> int:
        """Channels ``nodes`` (ids, or a mask over all nodes) open this
        round: ``min(degree, fanout)`` each."""
        uniform_cost = self._channel_info(fanout)[1]
        if uniform_cost is None:
            return int(self._channel_cost_array(fanout)[nodes].sum())
        count = np.count_nonzero(nodes) if nodes.dtype == bool else nodes.size
        return count * uniform_cost
