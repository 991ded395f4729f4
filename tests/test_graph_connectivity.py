"""The array connectivity check behind ``connected_random_regular_graph``.

The connected builder accepts a draw iff
:func:`repro.graphs.properties.component_labels` counts one component.  This
suite pins that check four ways:

1. **golden digests** of the accepted graphs (CSR arrays plus the next
   generator draw), recorded from the networkx-based check the labeller
   replaced, including d = 2 cells that retry disconnected draws and
   multigraph cells — the check consumes no randomness, so every accepted
   graph and every retry must stay bit-identical;
2. the d = 1 failure path, which reports the last draw's component count;
3. a **differential test** of the labeller against networkx on graphs with
   self-loops, parallel edges, isolated nodes, many components and sparse
   ids, and a hypothesis differential against the full-edge-array labeller
   it replaced (kept here as ``_reference_component_labels``), over random
   multigraphs and disconnected G(n, p) graphs at small block bounds;
4. the build never materialises adjacency lists and, like ``import repro``
   and a bundled spec run, never imports networkx.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import GraphGenerationError
from repro.core.rng import RandomSource
from repro.graphs.base import Graph
from repro.graphs import properties
from repro.graphs.configuration_model import connected_random_regular_graph
from repro.graphs.families import gnp_graph
from repro.graphs.properties import (
    _csr_arrays,
    component_labels,
    connected_components,
    is_connected,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: sha256 of ``_graph_digest`` per (n, d, seed, simple), recorded from the
#: networkx connectivity check.  The trailing comment is the number of
#: draws that check made before accepting one.
GOLDEN_GRAPHS = {
    (12, 2, 2, True): (  # 5 draws
        "fd1dc97913d87136817310e4f365e934"
        "b0192d42ee4eef16f037c7fd43d77af0"
    ),
    (16, 2, 1, True): (  # 6 draws
        "78e8f0ed964254c54f06f5f68466ed75"
        "af4159b20bf8c046d62a0a7b8af5f53a"
    ),
    (20, 2, 8, True): (  # 8 draws
        "bc283214cb39621cd91b3a26499909a4"
        "eb96330e4890fc2bb0031365f667ca90"
    ),
    (12, 2, 1, False): (  # 4 draws
        "2fce704834ccb01b4fa41ce9c75394b9"
        "ba16dd0bef9a734933e33626809cf72c"
    ),
    (12, 2, 3, False): (  # 11 draws
        "0fcd8ea5772c50b1ee3aa525716ade4b"
        "01e3517373ccba0ef66f04f51fb90709"
    ),
    (16, 2, 5, False): (  # 5 draws
        "52771e61399a54d01fbfc75a1eff2b29"
        "26ecfc7c2e2cd3c06a9a488ceadbe3e0"
    ),
    (1000, 3, 7, True): (  # rejection strategy
        "6c6a6515f7dd9c5c875d7c4c72f490a7"
        "d235c09f62bca712a4a0e9d23f4adc1e"
    ),
    (500, 4, 3, False): (
        "378093ac727aeef596c83cccbebb4aea"
        "f513f8daa2b63c36ecf108c26bd6d34d"
    ),
    (2048, 8, 2008, True): (  # repair strategy
        "a19cd447272f95b43e56420b4106abc4"
        "c6f2aa4a0a6d0850fc2da9265551dea5"
    ),
    (8192, 8, 5, True): (
        "2ab858cc339ef235775908d0c1d8ac7d"
        "f7bb5932cea62f0fe5cf3b9ebaa7c9bf"
    ),
    (2048, 16, 11, False): (
        "82c47987e9da05ec81f8c21bbb5ed5f5"
        "45a74cfd87ccf56b99e1904185c1748a"
    ),
}


def _graph_digest(n: int, d: int, seed: int, simple: bool) -> str:
    """sha256 over the accepted graph's CSR arrays and the next draw."""
    rng = RandomSource(seed=seed)
    graph = connected_random_regular_graph(n, d, rng, simple=simple)
    indptr, indices = graph.csr()
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(indptr, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
    digest.update(str(int(rng.generator.integers(0, 2**62))).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("cell", sorted(GOLDEN_GRAPHS), ids=lambda cell: "-".join(map(str, cell)))
def test_accepted_graph_matches_golden_digest(cell):
    assert _graph_digest(*cell) == GOLDEN_GRAPHS[cell]


def test_retried_draws_are_counted_as_before(monkeypatch):
    import repro.graphs.configuration_model as module

    draws = []
    original = module.random_regular_graph

    def counting(*args, **kwargs):
        draws.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "random_regular_graph", counting)
    connected_random_regular_graph(20, 2, RandomSource(seed=8))
    assert len(draws) == 8


@pytest.mark.parametrize("n", [4, 6, 10])
def test_disconnected_failure_names_component_count(n):
    # Every 1-regular graph is a perfect matching: n / 2 components.
    with pytest.raises(GraphGenerationError, match=rf"last attempt had {n // 2} components"):
        connected_random_regular_graph(n, 1, RandomSource(seed=1), max_attempts=3)


def _shuffled(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def _fixtures():
    """name -> graph; each edge set is also built materialised."""
    perm = _shuffled(60, 1)
    edge_sets = {
        "self-loops": (6, [(0, 0), (0, 1), (2, 2), (3, 4), (4, 4)]),
        "parallel-edges": (5, [(0, 1), (0, 1), (1, 2), (3, 4), (3, 4), (3, 4)]),
        "isolated-nodes": (7, [(1, 2), (2, 3)]),
        "perfect-matching": (60, perm.reshape(-1, 2).tolist()),
        "union-of-cycles": (
            60,
            np.column_stack(
                [perm, np.roll(perm.reshape(-1, 6), 1, axis=1).ravel()]
            ).tolist(),
        ),
        "shuffled-path": (60, np.column_stack([perm[:-1], perm[1:]]).tolist()),
        "reversed-star": (9, [(8, node) for node in range(8)]),
        "single-node": (1, []),
        "single-self-loop": (1, [(0, 0)]),
    }
    graphs = {}
    for name, (n, edges) in edge_sets.items():
        graphs[f"{name}/bulk"] = Graph.from_edge_array(
            n, np.array(edges, dtype=np.int64).reshape(-1, 2)
        )
        graphs[f"{name}/materialised"] = Graph.from_edges(n, edges)
    graphs["empty"] = Graph()
    sparse = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    sparse.remove_node(2)
    sparse.remove_node(5)
    sparse.add_node(20)
    graphs["sparse-ids"] = sparse
    churned = Graph.from_edge_array(
        50, np.column_stack([perm[:49] % 50, perm[1:50] % 50])
    )
    for node in (3, 17, 31):
        churned.remove_node(node)
    graphs["sparse-ids-after-bulk"] = churned
    return graphs


FIXTURES = _fixtures()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_component_labels_agree_with_networkx(name):
    graph = FIXTURES[name]
    reference = [set(c) for c in nx.connected_components(graph.to_networkx())]
    count, labels = component_labels(graph)
    assert count == len(reference)
    assert labels.shape == (graph.node_count,)
    expected = sorted(reference, key=min)
    assert connected_components(graph) == expected
    # labels[i] belongs to graph.nodes()[i]; components number by their
    # smallest node.
    nodes = graph.nodes()
    for component_id, component in enumerate(expected):
        assert {nodes[i] for i in np.flatnonzero(labels == component_id)} == component
    assert is_connected(graph) == (len(reference) <= 1)


def test_component_labels_on_large_shuffled_path_and_matching():
    n = 100_000
    perm = _shuffled(n, 7)
    path = Graph.from_edge_array(n, np.column_stack([perm[:-1], perm[1:]]))
    assert component_labels(path)[0] == 1
    matching = Graph.from_edge_array(n, perm.reshape(-1, 2))
    count, labels = component_labels(matching)
    assert count == n // 2
    assert np.array_equal(labels[perm[0::2]], labels[perm[1::2]])


def _reference_component_labels(graph: Graph):
    """The labeller before its scratch was bounded: whole-edge-array passes."""
    indptr, indices = _csr_arrays(graph)
    n = indptr.size - 1
    dtype = indices.dtype
    labels = np.arange(n, dtype=dtype)
    owners = np.repeat(labels, np.diff(indptr))
    forward = owners < indices
    src, dst = owners[forward], indices[forward]
    while src.size:
        lo, hi = labels[src], labels[dst]
        crossing = lo != hi
        if not crossing.any():
            break
        src, dst = src[crossing], dst[crossing]
        lo, hi = lo[crossing], hi[crossing]
        np.minimum.at(labels, np.maximum(lo, hi), np.minimum(lo, hi))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
    roots = labels == np.arange(n, dtype=dtype)
    component_of_root = np.cumsum(roots, dtype=dtype) - 1
    return int(np.count_nonzero(roots)), component_of_root[labels]


def _assert_labels_match_reference(graph: Graph) -> None:
    count, labels = component_labels(graph)
    expected_count, expected = _reference_component_labels(graph)
    assert count == expected_count
    assert labels.dtype == expected.dtype
    assert np.array_equal(labels, expected)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_component_labels_match_the_full_edge_array_labeller(name, monkeypatch):
    monkeypatch.setattr(properties, "_LABEL_BLOCK", 2)
    _assert_labels_match_reference(FIXTURES[name])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 80),
    edges=st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79)), max_size=120),
    block=st.sampled_from([1, 3, 16, 1 << 16]),
)
def test_component_labels_match_reference_on_random_multigraphs(n, edges, block):
    edges = [(u % n, v % n) for u, v in edges]
    graph = Graph.from_edge_array(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    saved = properties._LABEL_BLOCK
    properties._LABEL_BLOCK = block
    try:
        _assert_labels_match_reference(graph)
    finally:
        properties._LABEL_BLOCK = saved


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 300),
    mean_degree=st.floats(min_value=0.0, max_value=2.5),
    seed=st.integers(0, 2**16),
    block=st.sampled_from([1, 7, 1 << 16]),
)
def test_component_labels_match_reference_on_disconnected_gnp(
    n, mean_degree, seed, block
):
    graph = gnp_graph(n, min(1.0, mean_degree / n), RandomSource(seed=seed))
    saved = properties._LABEL_BLOCK
    properties._LABEL_BLOCK = block
    try:
        _assert_labels_match_reference(graph)
    finally:
        properties._LABEL_BLOCK = saved


def test_connected_build_stays_lazy(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("the connected build touched adjacency lists")

    monkeypatch.setattr(Graph, "_materialise", forbidden)
    monkeypatch.setattr(Graph, "to_networkx", forbidden)
    for n, d, simple in ((2048, 8, True), (1000, 3, True), (16, 2, True), (12, 2, False)):
        graph = connected_random_regular_graph(n, d, RandomSource(seed=1), simple=simple)
        assert graph._lazy_n == n
        assert is_connected(graph)


def test_import_build_and_spec_run_never_import_networkx(tmp_path):
    script = textwrap.dedent(
        f"""
        import sys

        import repro
        from repro.core.rng import RandomSource
        from repro.spec import ScenarioSpec, load_spec, run_spec

        assert "networkx" not in sys.modules, "import repro"
        graph = repro.connected_random_regular_graph(2048, 8, RandomSource(seed=1))
        assert graph.node_count == 2048
        assert "networkx" not in sys.modules, "connected_random_regular_graph"
        spec = load_spec({str(REPO_ROOT / "examples" / "specs" / "e1_round_complexity.json")!r})
        data = spec.to_dict()
        data["sweep"]["axes"][1]["values"] = [128, 256]
        data["repetitions"] = 2
        run = run_spec(ScenarioSpec.from_dict(data))
        run.to_table()
        assert "networkx" not in sys.modules, "run_spec"
        print("ok")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
