"""Property-based tests (hypothesis) for core data structures and invariants.

These tests check the invariants the paper's analysis relies on — degree
preservation of the pairing model, conservation of informed counts, phase
schedules covering every round exactly once, and monotonicity of the broadcast
process — over randomly generated inputs rather than hand-picked examples.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.scaling import fit_scaling_law
from repro.analysis.stats import mean, percentile, std
from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast
from repro.core.node import StateTable, merge_sorted_disjoint
from repro.core.rng import RandomSource
from repro.graphs.configuration_model import pairing_multigraph, random_regular_graph
from repro.protocols.push import PushProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.schedule import algorithm1_schedule, algorithm2_schedule

# Generating graphs and running broadcasts inside hypothesis examples is
# slower than its default deadline likes; the sizes are tiny, so just relax it.
RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    k=st.integers(min_value=1, max_value=10),
    size=st.integers(min_value=1, max_value=30),
)
@RELAXED
def test_sample_distinct_is_a_subset_without_replacement(seed, k, size):
    rng = RandomSource(seed=seed)
    items = list(range(size))
    sample = rng.sample_distinct(items, k)
    assert len(sample) == min(k, size)
    assert len(set(sample)) == len(sample)
    assert set(sample) <= set(items)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    labels=st.lists(st.text(max_size=8), max_size=3),
)
@RELAXED
def test_spawned_streams_are_reproducible(seed, labels):
    a = RandomSource(seed=seed).spawn(*labels)
    b = RandomSource(seed=seed).spawn(*labels)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=8, max_value=60),
    d=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
@RELAXED
def test_pairing_model_preserves_degree_sequence(n, d, seed):
    if (n * d) % 2 == 1:
        n += 1
    graph = pairing_multigraph(n, d, RandomSource(seed=seed))
    degrees = graph.degrees()
    assert len(degrees) == n
    assert all(degree == d for degree in degrees.values())
    assert graph.edge_count == n * d // 2


@given(
    n=st.integers(min_value=8, max_value=60),
    d=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
@RELAXED
def test_simple_generation_strategies_agree_on_invariants(n, d, seed):
    if (n * d) % 2 == 1:
        n += 1
    graph = random_regular_graph(n, d, RandomSource(seed=seed), strategy="repair")
    assert graph.is_simple()
    assert graph.is_regular()
    assert graph.degree(0) == d


# ---------------------------------------------------------------------------
# Phase schedules
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=2, max_value=2**20),
    alpha=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
)
@RELAXED
def test_algorithm1_schedule_partitions_every_round(n, alpha):
    schedule = algorithm1_schedule(n, alpha)
    phases = [schedule.phase_of(t) for t in range(1, schedule.horizon + 1)]
    assert set(phases) <= {1, 2, 3, 4}
    # Phases appear in non-decreasing order and phase 3 lasts at most one round.
    assert phases == sorted(phases)
    assert phases.count(3) <= 1
    assert schedule.horizon >= math.ceil(alpha * math.log2(max(2, n)))


@given(
    n=st.integers(min_value=2, max_value=2**20),
    alpha=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
)
@RELAXED
def test_algorithm2_schedule_pull_tail_is_loglog_long(n, alpha):
    schedule = algorithm2_schedule(n, alpha)
    pull_rounds = schedule.phase3_end - schedule.phase2_end
    loglog = max(1.0, math.log2(max(2.0, math.log2(max(2.0, n)))))
    assert 1 <= pull_rounds <= math.ceil(2 * alpha * loglog) + 2


# ---------------------------------------------------------------------------
# Node state / engine invariants
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=2, max_value=40),
    source=st.integers(min_value=0, max_value=39),
    deliveries=st.lists(st.integers(min_value=0, max_value=39), max_size=30),
)
@RELAXED
def test_state_table_informed_count_is_consistent(n, source, deliveries):
    source = source % n
    table = StateTable(n=n, source=source)
    for node in deliveries:
        if table.contains(node % n):
            table[node % n].deliver(1)
    table.commit_round()
    assert table.informed_count == len(table.informed_ids())
    assert table.informed_count + table.uninformed_count == n
    assert source in table.informed_ids()


INDEX_DTYPES = st.sampled_from([np.int32, np.int64])


@given(
    values=st.sets(st.integers(min_value=0, max_value=2**31 - 1), max_size=60),
    sides=st.lists(st.booleans(), min_size=60, max_size=60),
    base_dtype=INDEX_DTYPES,
    newly_dtype=INDEX_DTYPES,
)
@example(values=set(), sides=[True] * 60, base_dtype=np.int32, newly_dtype=np.int64)
@example(values={5, 1, 9}, sides=[True] * 60, base_dtype=np.int64, newly_dtype=np.int32)
@example(values={5, 1, 9}, sides=[False] * 60, base_dtype=np.int32, newly_dtype=np.int64)
@settings(max_examples=200, deadline=None)
def test_merge_sorted_disjoint_is_the_sorted_union(values, sides, base_dtype, newly_dtype):
    ordered = sorted(values)
    base = np.array([v for v, side in zip(ordered, sides) if side], dtype=base_dtype)
    newly = np.array([v for v, side in zip(ordered, sides) if not side], dtype=newly_dtype)
    merged = merge_sorted_disjoint(base, newly)
    assert merged.dtype == base.dtype
    assert merged.tolist() == ordered


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    d=st.integers(min_value=3, max_value=6),
)
@RELAXED
def test_broadcast_is_monotone_and_conservative(seed, d):
    n = 64
    graph = random_regular_graph(n, d, RandomSource(seed=seed), strategy="repair")
    result = run_broadcast(graph, PushPullProtocol(n_estimate=n), seed=seed)
    curve = result.informed_curve()
    # Monotone growth, never exceeding n, starting from at least the source.
    assert all(1 <= value <= n for value in curve)
    assert all(a <= b for a, b in zip(curve, curve[1:]))
    # Every newly informed node was caused by at least one successful
    # transmission: total informed - 1 <= delivered transmissions.
    delivered = result.total_transmissions - result.total_lost_transmissions
    assert result.final_informed - 1 <= delivered


@given(seed=st.integers(min_value=0, max_value=2**31))
@RELAXED
def test_transmissions_never_exceed_channels_times_two(seed):
    n, d = 64, 4
    graph = random_regular_graph(n, d, RandomSource(seed=seed), strategy="repair")
    result = run_broadcast(
        graph,
        PushProtocol(n_estimate=n),
        seed=seed,
        config=SimulationConfig(stop_when_informed=False),
    )
    # Push-only: at most one transmission per opened channel.
    assert result.total_transmissions <= result.total_channels_opened


# ---------------------------------------------------------------------------
# Analysis helpers
# ---------------------------------------------------------------------------


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    )
)
@RELAXED
def test_stats_relationships(values):
    centre = mean(values)
    spread = std(values)
    assert min(values) - 1e-9 <= centre <= max(values) + 1e-9
    assert spread >= 0
    assert min(values) <= percentile(values, 50) <= max(values)


@given(
    slope=st.floats(min_value=-5, max_value=5, allow_nan=False),
    intercept=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
@RELAXED
def test_scaling_fit_recovers_exact_linear_models(slope, intercept):
    sizes = [2**k for k in range(6, 14)]
    values = [intercept + slope * math.log2(n) for n in sizes]
    fit = fit_scaling_law(sizes, values, "log")
    assert abs(fit.slope - slope) < 1e-6
    assert abs(fit.intercept - intercept) < 1e-6
