"""The dynamic engine's kept membership arrays equal their rebuilds.

A churn round costs what changed in it: joins append to buffers reserved
with room to spare (the private CSR, the state planes and the dense
commit's mask, the node-axis caches), departures update the aggregates the
engine keeps (the live sampler list, each channel total, the join's
live-stub prefix, the informed pool), and only node compaction rebuilds.
These tests check, after every churn step, each kept array against a
rebuild from scratch:

1. the CSR against a reference splice (the per-splice join loop of
   ``test_churn_join_kernel``) and a reference compaction;
2. the degrees against ``np.diff(indptr)``, and ``degree > 0``;
3. each cost array and each channel total;
4. the live sampler list and the live-stub prefix;
5. the state planes, the mark and the informed pool;

under uniform, burst, flash-crowd and adversarial churn, with node
compaction on and off, and without moving a result.  Two more passes force
the growth step to one entry (every join reallocates) and to a capacity
that never reallocates: results and generator states must not move.
"""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np
import pytest

from repro.core import node
from repro.core.config import SimulationConfig
from repro.core.engine_vectorized import BatchedVectorizedRoundEngine
from repro.core.rng import RandomSource
from repro.failures.churn import FlashCrowd
from repro.graphs.registry import build_graph

from test_churn_join_kernel import GOLDEN_CHURN, GOLDEN_PROTOCOLS, reference_join
from test_churn_vectorized import fingerprint


def _reference_compaction(indptr, indices, keep):
    """The CSR of the ids in ``keep``, renumbered, dead targets ``-1``."""
    remap = np.full(indptr.size - 1, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    rows = [indices[indptr[v] : indptr[v + 1]] for v in keep.tolist()]
    values = np.concatenate(rows) if rows else indices[:0]
    mapped = np.where(values < 0, -1, remap[np.maximum(values, 0)])
    new_indptr = np.zeros(keep.size + 1, dtype=indptr.dtype)
    np.cumsum([row.size for row in rows], out=new_indptr[1:])
    return new_indptr, mapped.astype(indices.dtype)


class MembershipChecker:
    """Checks one run's kept membership arrays after every churn step.

    Keeps a reference CSR of its own, spliced by ``reference_join`` with a
    copy of each join's generator and compacted by
    :func:`_reference_compaction`, counts the kept aggregates it checked,
    and records, per join, whether the CSR's index buffer was kept or
    reallocated.
    """

    def __init__(self, monkeypatch):
        self.checked = Counter()
        self.steps = 0
        self.joins = 0
        self.compactions = 0
        self.reallocated = []
        self.kept = []
        engine_class = BatchedVectorizedRoundEngine
        reset = engine_class._reset_dynamic_topology
        join = engine_class._join_nodes
        compact = engine_class._compact_nodes
        apply = engine_class._apply_churn

        def checked_reset(engine):
            reset(engine)
            self.indptr, self.indices = (np.array(a) for a in engine.graph.csr())

        def checked_join(engine, count, target_degree, generator, state):
            alive = state.alive.copy()
            expected = copy.deepcopy(generator)
            stubs = self.indices.size
            before = engine._indices.base
            ids = join(engine, count, target_degree, generator, state)
            self.indptr, self.indices, expected_ids = reference_join(
                self.indptr, self.indices, alive, count, target_degree, expected
            )
            assert ids == expected_ids
            assert generator.bit_generator.state == expected.bit_generator.state
            # The planes are prefixes of their buffers, and the commit's
            # flat view writes through to them.
            flat = state.informed.reshape(-1)
            assert flat.base is state.informed.base is not None
            assert np.shares_memory(flat, state.informed.base)
            after = engine._indices.base
            if before is not None:
                self.kept.append(after is before)
            if self.indices.size > stubs:
                self.reallocated.append(after is not before)
            self.joins += 1
            return ids

        def checked_compact(engine, state):
            keep = np.flatnonzero(state.alive)
            compact(engine, state)
            self.indptr, self.indices = _reference_compaction(self.indptr, self.indices, keep)
            self.compactions += 1

        def checked_apply(engine, round_index, state):
            apply(engine, round_index, state)
            self.check(engine, state)
            self.steps += 1

        monkeypatch.setattr(engine_class, "_reset_dynamic_topology", checked_reset)
        monkeypatch.setattr(engine_class, "_join_nodes", checked_join)
        monkeypatch.setattr(engine_class, "_compact_nodes", checked_compact)
        monkeypatch.setattr(engine_class, "_apply_churn", checked_apply)

    def check(self, engine, state):
        n = state.n
        assert engine._n == n == self.indptr.size - 1
        for kept, reference in ((engine._indptr, self.indptr), (engine._indices, self.indices)):
            assert kept.dtype == reference.dtype
            np.testing.assert_array_equal(kept, reference)
        degrees = np.diff(self.indptr)
        alive = state.alive
        if engine._degrees_array is not None:
            np.testing.assert_array_equal(engine._degrees_array, degrees)
        if engine._degree_positive_array is not None:
            np.testing.assert_array_equal(engine._degree_positive_array, degrees > 0)
        if engine._all_degrees_positive is not None:
            assert engine._all_degrees_positive == bool((degrees > 0).all())
        for fanout, cost in engine._channel_cost_cache.items():
            np.testing.assert_array_equal(cost, np.minimum(degrees, fanout))
        for fanout, (total, uniform) in engine._channel_info_cache.items():
            assert uniform is None
            assert total == int(np.minimum(degrees, fanout)[alive].sum())
            self.checked["total"] += 1
        if engine._nz_cache is not None:
            np.testing.assert_array_equal(
                engine._nz_cache, np.flatnonzero(alive & (degrees > 0))
            )
            self.checked["samplers"] += 1
        if engine._cum is not None:
            np.testing.assert_array_equal(
                engine._cum, np.cumsum(np.where(alive, degrees, 0))
            )
            self.checked["prefix"] += 1

        assert state.informed.shape == state.informed_round.shape == (1, n)
        assert alive.shape == (n,)
        informed = state.informed[0]
        assert not (informed & ~alive).any()
        np.testing.assert_array_equal(state.informed_round[0] >= 0, informed)
        assert state.alive_count == np.count_nonzero(alive)
        assert state.informed_count[0] == np.count_nonzero(informed)
        if state._mark is not None:
            assert state._mark.shape == (n,) and not state._mark.any()
        if state._track_indices:
            np.testing.assert_array_equal(state.informed_flat, np.flatnonzero(informed))
            if state._pool is not None:
                assert state.informed_flat.base is state._pool
                self.checked["pool"] += 1
            newly = state.newly_flat
            assert (np.diff(newly) > 0).all() and informed[newly].all()


def _run(family, protocol_name, churn_model, n=256, d=8):
    """One churned run to the horizon; its fingerprint and generator states."""
    graph = build_graph(family, rng=RandomSource(3, name="graph"), n=n, d=d)
    engine = BatchedVectorizedRoundEngine(
        graph,
        GOLDEN_PROTOCOLS[protocol_name](n),
        seeds=[2008],
        config=SimulationConfig(
            engine="vectorized", collect_round_history=True, stop_when_informed=False
        ),
        churn_model=churn_model,
    )
    (result,) = engine.run()
    generators = (*engine._protocol_gens, *engine._failure_gens, engine._churn_rng.generator)
    return fingerprint(result), [g.bit_generator.state for g in generators]


CASES = [
    (churn_name, protocol_name)
    for churn_name in sorted(GOLDEN_CHURN)
    for protocol_name in sorted(GOLDEN_PROTOCOLS)
]


@pytest.mark.parametrize("compaction", [True, False])
@pytest.mark.parametrize("churn_name,protocol_name", CASES)
def test_kept_arrays_match_rebuilds(monkeypatch, churn_name, protocol_name, compaction):
    family = "pairing-multigraph"
    monkeypatch.setattr(BatchedVectorizedRoundEngine, "_compaction", compaction)
    reference = _run(family, protocol_name, GOLDEN_CHURN[churn_name]())
    with monkeypatch.context() as patch:
        checker = MembershipChecker(patch)
        checked = _run(family, protocol_name, GOLDEN_CHURN[churn_name]())
    assert checked == reference
    churn = checked[0][-2]
    assert checker.steps == checked[0][1]
    assert (checker.joins > 0) == (churn["arrivals"] > 0)
    assert checker.compactions == churn["node_compactions"]
    if compaction and churn_name == "burst":
        assert checker.compactions > 0
    # Each kept aggregate the run builds was checked after some step.
    assert checker.checked["total"] and checker.checked["samplers"]
    if churn["arrivals"]:
        assert checker.checked["prefix"]
    if protocol_name == "algorithm1":
        assert checker.checked["pool"]


def test_crowd_larger_than_the_network(monkeypatch):
    # Three joiners per node, one splice each: draws collide and some
    # joiners end with no stub, so the sampler list must leave them out.
    def crowd():
        return FlashCrowd(at_round=2, fraction=3.0, target_degree=2)

    reference = _run("pairing-multigraph", "push-pull", crowd(), n=64, d=4)
    with monkeypatch.context() as patch:
        checker = MembershipChecker(patch)
        checked = _run("pairing-multigraph", "push-pull", crowd(), n=64, d=4)
    assert checked == reference
    assert checked[0][-2]["splices_skipped"] > 0
    assert checker.joins == 1


#: Growth rules for ``node._capacity``: no slack, so every join
#: reallocates; and a margin no run here outgrows.
GROWTH = {
    "one-entry": lambda size: size,
    "never": lambda size: size + (1 << 16),
}


@pytest.mark.parametrize("compaction", [True, False])
@pytest.mark.parametrize("growth", sorted(GROWTH))
@pytest.mark.parametrize("churn_name", ["adversarial", "uniform"])
def test_growth_step_moves_nothing(monkeypatch, churn_name, growth, compaction):
    monkeypatch.setattr(BatchedVectorizedRoundEngine, "_compaction", compaction)
    for protocol_name in sorted(GOLDEN_PROTOCOLS):
        reference = _run("pairing-multigraph", protocol_name, GOLDEN_CHURN[churn_name]())
        with monkeypatch.context() as patch:
            patch.setattr(node, "_capacity", GROWTH[growth])
            checker = MembershipChecker(patch)
            checked = _run("pairing-multigraph", protocol_name, GOLDEN_CHURN[churn_name]())
        assert checked == reference
        if growth == "one-entry":
            assert checker.reallocated and all(checker.reallocated)
        else:
            assert checker.kept and all(checker.kept)
