"""One membership step per churn model, run by both engines.

Each churn model implements only ``vector_apply``; the scalar engine runs
it through :class:`~repro.core.engine.ScalarChurnOps`, the bulk engine
through ``VectorChurnOps``.  This module pins two things:

1. **scalar churn's draws** — fingerprints of 60 scalar runs, recorded when
   every model still carried a second, scalar-only copy of its step, must
   reproduce.  ``AdversarialChurn`` is left out: a round that departs every
   one of its candidates used to draw a permutation and now draws nothing,
   which moves that run's later churn draws;
2. **the departure draw** — candidates less the protected source are drawn
   without copying the candidate array: the source is skipped by its rank.
   That must pick the ids, and leave the generator in the state, that
   filtering the source out first would.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast
from repro.core.rng import RandomSource
from repro.failures.churn import (
    BurstChurn,
    FlashCrowd,
    UniformChurn,
    _Candidates,
    _sorted_distinct_positions,
)
from repro.graphs.registry import build_graph
from repro.protocols.registry import build_protocol

MODELS = {
    "uniform": lambda: UniformChurn(leave_rate=0.02, join_rate=0.02, target_degree=8),
    "uniform-heavy": lambda: UniformChurn(
        leave_rate=0.3, join_rate=0.1, target_degree=4, protect_source=False
    ),
    "burst": lambda: BurstChurn(at_round=3, fraction=0.3),
    "burst-all": lambda: BurstChurn(at_round=2, fraction=1.0),
    "flash-crowd": lambda: FlashCrowd(at_round=2, fraction=0.5, target_degree=8),
}

#: ``model -> "protocol/n/seed" -> digest`` of :func:`fingerprint`.
SCALAR_DIGESTS = {
    "uniform": {
        "algorithm1/64/0": "8dbb12d753fc0499",
        "algorithm1/64/1": "ad01c9b21f7a5846",
        "algorithm1/128/0": "4e89efcc1d2c1a9e",
        "algorithm1/128/1": "7af26606ea526714",
        "push-pull/64/0": "e909fb0ed71d888c",
        "push-pull/64/1": "80d53234f923cc93",
        "push-pull/128/0": "45c4ec79dbc3ab22",
        "push-pull/128/1": "4002ee32839c9f38",
        "quasirandom-push/64/0": "df3875583495e77a",
        "quasirandom-push/64/1": "db87e002ccdc4a4c",
        "quasirandom-push/128/0": "e474919ae3174a88",
        "quasirandom-push/128/1": "ef1c8f83b21df3f9",
    },
    "uniform-heavy": {
        "algorithm1/64/0": "6073cbfffb6792c3",
        "algorithm1/64/1": "50efc46a6e1c8615",
        "algorithm1/128/0": "58f73f8c6a61ce63",
        "algorithm1/128/1": "1743787b9fee6420",
        "push-pull/64/0": "d26580630aa16d05",
        "push-pull/64/1": "ea5e4e71338b9aab",
        "push-pull/128/0": "6745b43831eb034d",
        "push-pull/128/1": "e7e154dcf436ca15",
        "quasirandom-push/64/0": "401bc116049057e9",
        "quasirandom-push/64/1": "fe80625c2c98238c",
        "quasirandom-push/128/0": "a256871deb6abafb",
        "quasirandom-push/128/1": "41d58843946cb172",
    },
    "burst": {
        "algorithm1/64/0": "7afc4a5221a206f2",
        "algorithm1/64/1": "14449311c5ce9c6a",
        "algorithm1/128/0": "7a08d6b52541e6b6",
        "algorithm1/128/1": "afe35368aa0edeba",
        "push-pull/64/0": "7099bbddb6ad45df",
        "push-pull/64/1": "05c0c4bb407559d7",
        "push-pull/128/0": "3607a02983b7c388",
        "push-pull/128/1": "c5976d018697ecbf",
        "quasirandom-push/64/0": "68cf39271a189ba0",
        "quasirandom-push/64/1": "9e319120105a1572",
        "quasirandom-push/128/0": "e3f03f18fcac0a99",
        "quasirandom-push/128/1": "bce53c04e74bd578",
    },
    "burst-all": {
        "algorithm1/64/0": "09d74db37b664b15",
        "algorithm1/64/1": "09d74db37b664b15",
        "algorithm1/128/0": "a6e2636734ae94ff",
        "algorithm1/128/1": "a6e2636734ae94ff",
        "push-pull/64/0": "20aad50ba37670a9",
        "push-pull/64/1": "20aad50ba37670a9",
        "push-pull/128/0": "51b8fdb5463d3587",
        "push-pull/128/1": "6ed09c4900131e84",
        "quasirandom-push/64/0": "f5cf8014581e886b",
        "quasirandom-push/64/1": "f5cf8014581e886b",
        "quasirandom-push/128/0": "f5cf8014581e886b",
        "quasirandom-push/128/1": "f5cf8014581e886b",
    },
    "flash-crowd": {
        "algorithm1/64/0": "e692c96e99e24a22",
        "algorithm1/64/1": "699b8c580ad90da5",
        "algorithm1/128/0": "93a34b5b34e5023c",
        "algorithm1/128/1": "7bf3a917bf94c864",
        "push-pull/64/0": "da1ffcdd6584bbd4",
        "push-pull/64/1": "9bb1c0ae64ee99de",
        "push-pull/128/0": "534cc764a5543f34",
        "push-pull/128/1": "1cf63164605ee8b5",
        "quasirandom-push/64/0": "c2efafeeeffc4ea0",
        "quasirandom-push/64/1": "86557d4af264836c",
        "quasirandom-push/128/0": "eaab1a67725347a6",
        "quasirandom-push/128/1": "139ae703be78a90f",
    },
}


def fingerprint(result) -> str:
    """A digest of everything a scalar run reports about its broadcast."""
    fields = (
        result.success,
        result.rounds_executed,
        result.rounds_to_completion,
        result.final_informed,
        result.total_push_transmissions,
        result.total_pull_transmissions,
        result.total_channels_opened,
        result.total_lost_transmissions,
        result.history,
        result.metadata["final_node_count"],
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_scalar_churn_reproduces_its_pinned_runs(model):
    digests = {}
    for n in (64, 128):
        graph = build_graph("random-regular", rng=RandomSource(3, name="graph"), n=n, d=8)
        for protocol in ("algorithm1", "quasirandom-push", "push-pull"):
            for seed in (0, 1):
                result = run_broadcast(
                    graph.copy(),
                    build_protocol(protocol, n),
                    seed=seed,
                    config=SimulationConfig(engine="scalar", collect_round_history=True),
                    churn_model=MODELS[model](),
                )
                assert result.metadata["engine"] == "scalar"
                digests[f"{protocol}/{n}/{seed}"] = fingerprint(result)
    assert digests == SCALAR_DIGESTS[model]


class _RecordingOps:
    """The two members of a membership surface a departure draw touches."""

    def __init__(self, source: int) -> None:
        self.source = source
        self.departed = None

    def depart(self, ids) -> None:
        assert self.departed is None
        self.departed = ids


@st.composite
def _departure_cases(draw):
    ids = np.array(sorted(draw(st.sets(st.integers(0, 300), max_size=30))), dtype=np.int64)
    places = ["absent", "departed"]
    if ids.size:
        places += ["first", "last"]
    if ids.size >= 3:
        places.append("inside")
    place = draw(st.sampled_from(places))
    if place == "absent":
        source = draw(st.integers(0, 301).filter(lambda node: node not in ids))
    elif place == "departed":
        source = -1
    elif place == "first":
        source = int(ids[0])
    elif place == "last":
        source = int(ids[-1])
    else:
        source = int(ids[draw(st.integers(1, ids.size - 2))])
    protect = draw(st.booleans())
    size = int(ids.size) - int(protect and source in ids)
    count = draw(st.sampled_from([0, 1, size - 1, size, size + 1, size + 5]))
    return ids, source, protect, count


@given(case=_departure_cases(), seed=st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_rank_skip_matches_filter_then_pick(case, seed):
    ids, source, protect, count = case
    candidates = ids[ids != source] if protect else ids
    reference = np.random.default_rng(seed)
    expected = candidates[_sorted_distinct_positions(reference, candidates.size, count)]

    generator = np.random.default_rng(seed)
    ops = _RecordingOps(source)
    pool = _Candidates(ids, ops, protect)
    departed = pool.depart(ops, generator, count)

    assert pool.size == candidates.size
    assert departed == expected.tolist()
    if expected.size:
        assert ops.departed.tolist() == departed
    else:
        assert ops.departed is None
    assert generator.bit_generator.state == reference.bit_generator.state
