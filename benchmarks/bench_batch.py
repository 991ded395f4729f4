"""Benchmarks of the batched vectorized engine (multi-seed sweeps).

What the batch dimension buys depends on the regime:

* versus the **scalar per-seed loop** — the fallback engine every sweep used
  before vectorization — a batched sweep is two orders of magnitude faster;
  the ``≥ 5×`` floor asserted here is deliberately conservative.
* versus the **vectorized per-seed loop** the win is the amortised per-run
  setup and per-round dispatch, so it is largest at small ``n`` (~2× at
  n=256) and tapers toward parity at n=4096, where a push sweep is
  compute-bound on ~40k channel operations per run that both sides must
  perform (each batch row is bit-identical to the corresponding single run,
  which pins the per-replication draw sequences).  The assert is therefore a
  regression guard (the batch must never be meaningfully slower), with the
  measured ratios printed and recorded in ``BENCH_micro.json``.

Run with ``pytest benchmarks/bench_batch.py -m smoke``; tier-1 does not
collect this file.
"""

from __future__ import annotations

import math
import time

import pytest

from _memtrace import traced_peak_mb
from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast, run_broadcast_batch
from repro.core.engine_vectorized import BatchedVectorizedRoundEngine
from repro.core.rng import RandomSource
from repro.graphs.configuration_model import random_regular_graph
from repro.graphs.families import gnp_graph
from repro.protocols.push import PushProtocol
from repro.spec import GraphSpec, ProtocolSpec, ScenarioSpec, SweepAxis, SweepSpec, run_spec

SWEEP_SEEDS = list(range(20))
SCALAR_LOOP_SPEEDUP_FLOOR = 5.0
# Coarse tripwire, not a precision gate: the documented n=4096 ratio is
# ~1.0x, but shared CI runners jitter badly, so only a structural regression
# (batch clearly slower than the loop it replaces) should fail the build.
VEC_LOOP_RATIO_CEILING = 1.75
SMALL_N_SPEEDUP_FLOOR = 1.3


@pytest.fixture(scope="module")
def graph_4096():
    graph = random_regular_graph(4096, 8, RandomSource(seed=2), strategy="repair")
    graph.csr()
    return graph


def _best_of(repetitions, fn):
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.smoke
def test_batched_push_sweep_4096(graph_4096):
    vector_config = SimulationConfig(engine="vectorized", collect_round_history=False)
    scalar_config = SimulationConfig(engine="scalar", collect_round_history=False)

    batch_time = _best_of(
        3,
        lambda: run_broadcast_batch(
            graph_4096, PushProtocol(n_estimate=4096), SWEEP_SEEDS, config=vector_config
        ),
    )
    loop_time = _best_of(
        3,
        lambda: [
            run_broadcast(
                graph_4096, PushProtocol(n_estimate=4096), seed=s, config=vector_config
            )
            for s in SWEEP_SEEDS
        ],
    )
    # The scalar loop runs at ~300 ms/run; sample a few seeds and scale (the
    # margin over the floor is ~30×, so the extrapolation noise is harmless).
    scalar_sample = SWEEP_SEEDS[:4]
    scalar_time = _best_of(
        1,
        lambda: [
            run_broadcast(
                graph_4096, PushProtocol(n_estimate=4096), seed=s, config=scalar_config
            )
            for s in scalar_sample
        ],
    ) * (len(SWEEP_SEEDS) / len(scalar_sample))

    print(
        f"\npush sweep 20x n=4096: scalar loop {scalar_time * 1e3:.0f} ms (extrapolated), "
        f"vectorized loop {loop_time * 1e3:.1f} ms, batch {batch_time * 1e3:.1f} ms "
        f"-> {scalar_time / batch_time:.0f}x vs scalar, "
        f"{loop_time / batch_time:.2f}x vs vectorized loop"
    )
    assert scalar_time / batch_time >= SCALAR_LOOP_SPEEDUP_FLOOR
    assert batch_time <= VEC_LOOP_RATIO_CEILING * loop_time


@pytest.mark.smoke
def test_batched_sweep_small_n_wins_on_dispatch():
    # At small n per-run setup and per-round dispatch dominate, which is
    # exactly what the batch amortises.
    graph = random_regular_graph(256, 8, RandomSource(seed=2), strategy="repair")
    graph.csr()
    config = SimulationConfig(engine="vectorized", collect_round_history=False)
    batch_time = _best_of(
        5,
        lambda: run_broadcast_batch(
            graph, PushProtocol(n_estimate=256), SWEEP_SEEDS, config=config
        ),
    )
    loop_time = _best_of(
        5,
        lambda: [
            run_broadcast(graph, PushProtocol(n_estimate=256), seed=s, config=config)
            for s in SWEEP_SEEDS
        ],
    )
    print(
        f"\npush sweep 20x n=256: vectorized loop {loop_time * 1e3:.1f} ms, "
        f"batch {batch_time * 1e3:.1f} ms ({loop_time / batch_time:.2f}x)"
    )
    assert loop_time / batch_time >= SMALL_N_SPEEDUP_FLOOR


@pytest.mark.perf
def test_long_tail_compaction_sweep():
    """The row-compaction stress case recorded in BENCH_micro.json.

    50 seeds of a push broadcast (extended horizon) over one gnp graph at the
    connectivity threshold: half the replications finish by round ~60 while
    stragglers chase pendant vertices for up to ~140 rounds, so the batch
    spends most of its rounds with a small live ensemble.  Asserted here:

    * compaction on and off are bit-identical (spot-checked on counters;
      the full per-round parity suite is tests/test_engine_compaction.py);
    * compaction is never meaningfully slower than carrying the dead rows;
    * the dense-era engine baseline (PR 4: ~9.8 s on the reference
      container, recorded in BENCH_micro.json) is beaten by >= 1.3x — the
      active-set kernels plus compaction are what removed the dead-row and
      full-scan work.  The wall-clock assert is against the compaction-off
      ratio only (cross-machine constants are unstable); the baseline ratio
      is recorded, not asserted.
    """
    n = 1 << 16
    graph = gnp_graph(n, math.log(n) / n, RandomSource(seed=5))
    graph.csr()
    graph.csr_stats()
    seeds = list(range(50))

    def sweep(compaction):
        config = SimulationConfig(engine="vectorized", collect_round_history=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BatchedVectorizedRoundEngine, "_compaction", compaction)
            return run_broadcast_batch(
                graph,
                PushProtocol(n_estimate=n, horizon_override=250),
                seeds,
                config=config,
            )

    on_time = _best_of(2, lambda: sweep(True))
    off_time = _best_of(2, lambda: sweep(False))
    on_results = sweep(True)
    off_results = sweep(False)
    assert all(r.success for r in on_results)
    completions = sorted(r.rounds_to_completion for r in on_results)
    assert completions[-1] - completions[25] >= 20, "expected a long tail"
    assert [
        (r.rounds_to_completion, r.total_transmissions) for r in on_results
    ] == [(r.rounds_to_completion, r.total_transmissions) for r in off_results]

    peak_mb = traced_peak_mb(lambda: sweep(True))

    print(
        f"\nlong-tail 50x gnp n={n}: compaction on {on_time:.2f} s, "
        f"off {off_time:.2f} s ({off_time / on_time:.2f}x), "
        f"completions median {completions[25]} max {completions[-1]}, "
        f"peak {peak_mb:.0f} MB"
    )
    # Compaction must never cost wall-clock; its structural win over the
    # dense engine is recorded in BENCH_micro.json (pr4_engine_ms).
    assert on_time <= off_time * 1.25


@pytest.mark.smoke
def test_round_complexity_style_sweep_completes_in_seconds():
    # The representative E1 shape: 5 sizes x 20 seeds, one graph per size,
    # every configuration batched.  The scalar engine needed minutes for
    # this; the whole batched sweep must finish in single-digit seconds
    # (graph generation included).
    spec = ScenarioSpec(
        name="bench-e1",
        graph=GraphSpec(family="connected-random-regular", params={"n": 256, "d": 8}),
        protocol=ProtocolSpec(name="push"),
        sweep=SweepSpec(
            axes=(SweepAxis(path="graph.params.n", values=(256, 512, 1024, 2048, 4096)),)
        ),
        repetitions=20,
        master_seed=7,
        label="bench-e1",
    )
    start = time.perf_counter()
    run = run_spec(spec)
    elapsed = time.perf_counter() - start
    for point in run.points:
        results = point.results
        assert len(results) == 20
        assert all(r.success for r in results)
        assert all(r.metadata.get("batch_size") == 20 for r in results)
    print(f"\nE1-style batched sweep (5 sizes x 20 seeds): {elapsed:.2f} s")
    assert elapsed < 10.0
