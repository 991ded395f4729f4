"""Workload definitions shared by the experiments.

A *workload* here is the combination of graph parameters and protocol set an
experiment sweeps over.  Defaults come in two sizes:

* ``quick`` — small enough for the benchmark suite and CI (a few seconds per
  experiment);
* ``full`` — the larger sizes behind ``experiment --full`` (minutes per
  experiment).

Keeping these in one module means every benchmark and every experiment
refers to the same, named parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["SweepSizes", "quick_sizes", "full_sizes", "DEFAULT_DEGREE", "LARGE_DEGREE"]


#: Degree used by the "small degree" experiments (Algorithm 1 regime).
DEFAULT_DEGREE = 8

#: Degree used by the "large degree" experiments (Algorithm 2 regime,
#: ``d ≈ log₂ n`` for the default sweep sizes).
LARGE_DEGREE = 12


@dataclass(frozen=True)
class SweepSizes:
    """The ``n`` values and repetition count of one sweep tier."""

    sizes: List[int] = field(default_factory=list)
    repetitions: int = 3

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("a sweep needs at least one size")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")


def quick_sizes() -> SweepSizes:
    """The small sweep used by benchmarks and tests."""
    return SweepSizes(sizes=[256, 512, 1024, 2048], repetitions=3)


def full_sizes() -> SweepSizes:
    """The larger sweep behind ``experiment --full``."""
    return SweepSizes(sizes=[1024, 2048, 4096, 8192, 16384], repetitions=5)
