"""Bounded scratch in the bulk paths: the pairing build, ``Graph.csr_stats``
and the k-distinct stub sampler.

These paths fill their own output arrays chunk by chunk instead of
allocating full-size temporaries.  This suite pins them four ways:

1. a **differential test** of ``_stub_target_blocks``, its blocks flattened
   into one entry per channel, against a reference copy of the parts-list
   loop it replaced (kept only in this file, with its selection written as
   a full row sort): equal channels, dtypes and next generator draw on
   regular and irregular graphs, fanouts 2-6, int32 and int64 CSR, and
   samplers spanning several chunks;
2. ``Graph.csr_stats`` against the one-shot owner-array formula, including a
   self-loop that only the last block can see;
3. **scale-free peak bounds** (tracemalloc) of the pairing build and of
   ``csr_stats`` relative to the CSR bytes they return or read, and the
   generator state the pairing build leaves behind;
4. lossy Algorithm 1 runs reproduce bit for bit under NumPy's baseline-only
   SIMD dispatch, where ``argpartition`` put the chosen stubs in a different
   order and so shifted the loss draws.

The pairing build's chunk boundaries are covered in
``tests/test_configuration_model.py`` (``TestPairingDirectCsrBuild``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import engine_vectorized
from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast, run_broadcast_batch
from repro.core.engine_vectorized import _stub_target_blocks
from repro.core.rng import RandomSource
from repro.failures.message_loss import IndependentLoss
from repro.graphs import configuration_model
from repro.graphs.base import Graph
from repro.graphs.configuration_model import pairing_multigraph
from repro.protocols.algorithm1 import Algorithm1

TESTS_DIR = Path(__file__).resolve().parent

#: NumPy dispatch targets above the x86 baseline; disabling them reproduces
#: a machine with only the baseline kernels.
BASELINE_ONLY_SIMD = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def _traced_peak_bytes(fn):
    """``(peak traced bytes while running fn, fn's result)``."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


# -- 1. the k-distinct sampler ----------------------------------------------------


def _reference_sample_stub_targets(
    generator, samplers, fanout, indptr, indices, degrees, chunk_entries=1 << 22
):
    """The parts-list sampler the chunked one replaced (selection as argsort)."""
    empty = np.empty(0, dtype=np.int64)
    if samplers.size == 0 or fanout <= 0:
        return empty, empty
    sampler_degrees = degrees[samplers]
    saturated = sampler_degrees <= fanout
    callers_parts = []
    callees_parts = []
    full_nodes = samplers[saturated]
    if full_nodes.size:
        lengths = sampler_degrees[saturated]
        total = int(lengths.sum())
        starts = np.repeat(indptr[full_nodes], lengths)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        callers_parts.append(np.repeat(full_nodes, lengths))
        callees_parts.append(indices[starts + within])
    deep_nodes = samplers[~saturated]
    if deep_nodes.size:
        deep_degrees = sampler_degrees[~saturated]
        max_degree = int(deep_degrees.max())
        rows_per_chunk = max(1, chunk_entries // max_degree)
        column = np.arange(max_degree, dtype=np.int64)
        for start in range(0, deep_nodes.size, rows_per_chunk):
            nodes = deep_nodes[start : start + rows_per_chunk]
            node_degrees = deep_degrees[start : start + rows_per_chunk]
            keys = generator.random((nodes.size, max_degree))
            keys[column[None, :] >= node_degrees[:, None]] = np.inf
            chosen = np.argsort(keys, axis=1)[:, :fanout]
            positions = indptr[nodes][:, None] + chosen
            callers_parts.append(np.repeat(nodes, fanout))
            callees_parts.append(indices[positions.ravel()])
    if not callers_parts:
        return empty, empty
    return np.concatenate(callers_parts), np.concatenate(callees_parts)


def _flat_stub_targets(generator, samplers, fanout, indptr, indices, degrees, uniform):
    """``_stub_target_blocks`` as flat ``(callers, callees)``, one entry per
    channel."""
    channels, blocks = _stub_target_blocks(
        generator, samplers, fanout, indptr, indices, degrees, uniform
    )
    pairs = [
        (np.broadcast_to(callers, callees.shape).reshape(-1), callees.reshape(-1))
        for callers, callees in blocks
    ]
    callers = np.concatenate([callers for callers, _ in pairs])
    callees = np.concatenate([callees for _, callees in pairs])
    assert callers.size == callees.size == channels
    return callers, callees


def _regular_csr():
    return pairing_multigraph(300, 8, RandomSource(seed=11)).csr()


def _irregular_csr():
    """Degrees 0 to ~15: isolated nodes, saturated nodes, padded key rows."""
    n = 160
    edges = RandomSource(seed=12).generator.integers(0, n, size=(2 * n, 2))
    edges[edges == 5] = 6  # node 5 stays isolated
    return Graph.from_edge_array(n, edges).csr()


def _sampler_sets(n, dtype):
    every = np.arange(n, dtype=dtype)
    subset = np.sort(
        RandomSource(seed=13).generator.choice(n, size=n // 3, replace=False)
    ).astype(dtype)
    # Mask-scan callers hand over int64 ids whatever the CSR dtype.
    return {"all": every, "subset": subset, "int64-ids": every.astype(np.int64)}


@pytest.mark.parametrize("chunk_entries", [None, 37, 1])
@pytest.mark.parametrize("csr_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("graph", ["regular", "irregular"])
@pytest.mark.parametrize("fanout", [2, 3, 4, 5, 6])
def test_sampler_matches_reference(monkeypatch, fanout, graph, csr_dtype, chunk_entries):
    if chunk_entries is not None:
        # Small budgets split the deep samplers over many chunks (1 entry
        # means one row per chunk).
        monkeypatch.setattr(engine_vectorized, "_CHUNK_ENTRIES", chunk_entries)
    indptr, indices = _regular_csr() if graph == "regular" else _irregular_csr()
    indptr = indptr.astype(csr_dtype)
    indices = indices.astype(csr_dtype)
    degrees = np.diff(indptr)
    uniform = int(degrees[0]) if (degrees == degrees[0]).all() else None
    if graph == "irregular":
        assert (degrees == 0).any() and (degrees <= fanout).any()
        assert (degrees > fanout + 1).any()
    for name, samplers in _sampler_sets(indptr.size - 1, csr_dtype).items():
        seed = fanout * 100 + len(name)
        generator = RandomSource(seed=seed).generator
        reference_generator = RandomSource(seed=seed).generator
        callers, callees = _flat_stub_targets(
            generator, samplers, fanout, indptr, indices, degrees, uniform
        )
        ref_callers, ref_callees = _reference_sample_stub_targets(
            reference_generator, samplers, fanout, indptr, indices, degrees
        )
        assert callers.dtype == ref_callers.dtype, name
        assert callees.dtype == ref_callees.dtype, name
        assert np.array_equal(callers, ref_callers), name
        assert np.array_equal(callees, ref_callees), name
        assert generator.random() == reference_generator.random(), name


# -- 2. Graph.csr_stats -------------------------------------------------------------


def _one_shot_stats(graph):
    """The owner-array formula ``csr_stats`` used before the block scan."""
    indptr, indices = graph.csr()
    degrees = np.diff(indptr)
    owners = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), degrees)
    has_loops = bool((indices == owners).any())
    uniform = (
        int(degrees[0]) if degrees.size and (degrees == degrees[0]).all() else None
    )
    return has_loops, uniform


def _ring(n, extra=()):
    edges = [(v, (v + 1) % n) for v in range(n)] + list(extra)
    return Graph.from_edge_array(n, np.array(edges))


STATS_GRAPHS = {
    "loop-in-last-node": lambda: _ring(10, [(9, 9)]),
    "loop-in-first-node": lambda: _ring(10, [(0, 0)]),
    "loop-free-ring": lambda: _ring(10),
    "irregular": lambda: Graph.from_csr(160, *_irregular_csr()),
    "irregular-loop-free": lambda: Graph.from_edge_array(
        12, np.array([(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (7, 11), (7, 11)])
    ),
    "isolated-first-node": lambda: Graph.from_edge_array(
        6, np.array([(1, 2), (2, 3), (3, 1), (4, 5)])
    ),
    "all-isolated": lambda: Graph(range(5)),
    "single-node": lambda: Graph(range(1)),
    "single-node-loop": lambda: Graph.from_csr(1, np.array([0, 2]), np.array([0, 0])),
    "regular-multigraph": lambda: pairing_multigraph(300, 8, RandomSource(seed=11)),
}


# Blocks of 3 or 4 nodes leave the loop at node 9 of "loop-in-last-node" in a
# partial last block, after loop-free full ones.
@pytest.mark.parametrize("block_nodes", [1, 3, 4, None])
@pytest.mark.parametrize("name", sorted(STATS_GRAPHS))
def test_csr_stats_matches_one_shot_formula(monkeypatch, name, block_nodes):
    if block_nodes is not None:
        monkeypatch.setattr(Graph, "_STATS_BLOCK_NODES", block_nodes)
    graph = STATS_GRAPHS[name]()
    assert graph.csr_stats() == _one_shot_stats(graph)


# -- 3. scale-free peak bounds --------------------------------------------------------


def test_pairing_build_peak_is_bounded_by_its_output():
    # The build's one buffer of 64-bit keys becomes ``indices`` (~2.0x); an
    # int64 permutation plus its int32 copy measured 2.7x, full-size
    # temporaries ~4.5x.
    n, d = 1 << 19, 8
    peak, graph = _traced_peak_bytes(
        lambda: pairing_multigraph(n, d, RandomSource(seed=7))
    )
    indptr, indices = graph.csr()
    csr_bytes = indptr.nbytes + indices.nbytes
    assert peak <= 2.25 * csr_bytes, peak / csr_bytes


def test_pairing_build_peak_per_stub(monkeypatch):
    # The packed build holds 8 bytes per stub and chunk scratch; without
    # room for the partner in the key it keeps each position's node too.
    n, d = 1 << 17, 8
    pairing_multigraph(4, 2, RandomSource(seed=7))  # first-use imports, untraced
    peak, _ = _traced_peak_bytes(lambda: pairing_multigraph(n, d, RandomSource(seed=7)))
    assert peak < 9 * n * d, peak / (n * d)
    monkeypatch.setattr(configuration_model, "_KEY_BITS", 0)
    peak, _ = _traced_peak_bytes(lambda: pairing_multigraph(n, d, RandomSource(seed=7)))
    assert 12 * n * d <= peak < 13 * n * d, peak / (n * d)


@pytest.mark.parametrize("n, d", [(300, 8), (1 << 12, 3), (1 << 15, 16)])
def test_pairing_build_leaves_the_permutation_generator_state(n, d):
    # Connected-random-regular retries draw again from the same generator,
    # so the build must consume exactly what ``permutation(n * d)`` does.
    rng = RandomSource(seed=n + d)
    pairing_multigraph(n, d, rng)
    reference = RandomSource(seed=n + d).generator
    reference.permutation(n * d)
    assert rng.generator.bit_generator.state == reference.bit_generator.state


def test_csr_stats_peak_is_a_fraction_of_the_csr():
    # One block's owners, not one int64 owner per stub (that was ~2.3x).
    graph = pairing_multigraph(1 << 19, 8, RandomSource(seed=7))
    indptr, indices = graph.csr()
    csr_bytes = indptr.nbytes + indices.nbytes
    peak, stats = _traced_peak_bytes(graph.csr_stats)
    assert stats == _one_shot_stats(graph)
    assert peak <= 0.5 * csr_bytes, peak / csr_bytes


# -- 4. results do not depend on NumPy's SIMD dispatch ------------------------------


def lossy_outcomes():
    """A lossy Algorithm 1 batch and single run at n = 512, as JSON data."""
    graph = pairing_multigraph(512, 8, RandomSource(seed=3))
    failure = IndependentLoss(
        transmission_loss_probability=0.2, channel_failure_probability=0.1
    )
    config = SimulationConfig(engine="vectorized")
    batch = run_broadcast_batch(
        graph, Algorithm1(n_estimate=512), [1, 2, 3, 4],
        config=config, failure_model=failure,
    )
    single = run_broadcast(
        graph, Algorithm1(n_estimate=512), seed=5, config=config,
        failure_model=failure,
    )
    return json.loads(json.dumps([result.to_dict() for result in [*batch, single]]))


def test_lossy_algorithm1_independent_of_simd_dispatch():
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_ONLY_SIMD)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        f"import json, sys; sys.path.insert(0, {str(TESTS_DIR)!r}); "
        "from test_bulk_memory import lossy_outcomes; "
        "print(json.dumps(lossy_outcomes()))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == lossy_outcomes()
