"""Shared helpers for the benchmark suite.

Each benchmark module regenerates one of the paper-reproduction experiments
(E1–E13; see ``docs/API.md`` §8).  The pattern is always the same: run the
experiment once under ``benchmark.pedantic`` (the interesting output is the
table, not a timing distribution) and print the resulting table so it
appears in the pytest output next to the timing.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the benchmarks from a source checkout without installation.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(SRC))


@pytest.fixture
def run_table_benchmark(benchmark, capsys):
    """Run an experiment exactly once under the benchmark fixture and print it."""

    def runner(experiment_callable, *args, **kwargs):
        table = benchmark.pedantic(
            experiment_callable, args=args, kwargs=kwargs, rounds=1, iterations=1
        )
        with capsys.disabled():
            print()
            print(table.render())
        return table

    return runner
