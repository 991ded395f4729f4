"""Deterministic, splittable random number streams.

Every stochastic component of the simulator (graph generation, per-node
neighbour choices, failure injection, churn) draws from its own named
sub-stream derived from a single master seed.  This gives two properties the
experiments rely on:

* **Reproducibility** — a run is fully determined by ``(seed, parameters)``.
* **Isolation** — adding an extra draw in one component (say, the failure
  model) does not perturb the random choices made by another component (say,
  the protocol), so ablations compare like with like.

The implementation wraps :class:`numpy.random.Generator` seeded through
:class:`numpy.random.SeedSequence`, which is explicitly designed for spawning
statistically independent child streams.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["RandomSource", "derive_seed"]


def derive_seed(seed: int, *labels: object) -> int:
    """Derive a new 63-bit seed from ``seed`` and a sequence of labels.

    The derivation is a stable hash (a BLAKE2 digest of each label's string
    form, mixed through SeedSequence) of the master seed and the labels, so
    the same ``(seed, labels)`` pair always produces the same child seed
    across processes and Python versions.  Python's built-in ``hash`` is
    deliberately *not* used: string hashes are randomised per process
    (``PYTHONHASHSEED``), which would silently break cross-process
    reproducibility of every experiment seed.

    Parameters
    ----------
    seed:
        Master seed.
    labels:
        Arbitrary labels identifying the consumer, e.g. ``("graph", n, d)``
        or ``("replica", 3)``; each is digested via ``str(label)``.
    """
    material = [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF]
    for label in labels:
        digest = hashlib.blake2b(str(label).encode("utf-8"), digest_size=4)
        material.append(int.from_bytes(digest.digest(), "little"))
    ss = np.random.SeedSequence(material)
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)


@dataclass
class RandomSource:
    """A named, seedable source of randomness with child-stream spawning.

    Parameters
    ----------
    seed:
        Non-negative integer seed.  Two sources built from the same seed
        produce identical draw sequences.
    name:
        Human-readable label used when spawning children; purely for
        diagnostics and stable child derivation.
    """

    seed: int
    name: str = "root"
    # Left out of equality: whether a source has drawn yet must not decide
    # whether two sources compare equal.
    _generator: Optional[np.random.Generator] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    # -- stream management -------------------------------------------------

    def spawn(self, *labels: object) -> "RandomSource":
        """Create an independent child source identified by ``labels``."""
        child_seed = derive_seed(self.seed, self.name, *labels)
        child_name = f"{self.name}/" + "/".join(str(label) for label in labels)
        return RandomSource(seed=child_seed, name=child_name)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (for bulk vectorised draws).

        Built on first use, so a source that is only spawned from never
        builds one; its draws are those of ``default_rng(seed)`` either way.
        """
        if self._generator is None:
            self._generator = np.random.default_rng(self.seed)
        return self._generator

    # -- scalar draws --------------------------------------------------------

    def random(self) -> float:
        """A uniform float in ``[0, 1)``."""
        return float(self.generator.random())

    def randint(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)``."""
        if high <= low:
            raise ValueError(f"empty range [{low}, {high})")
        return int(self.generator.integers(low, high))

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        if p == 0.0:
            return False
        if p == 1.0:
            return True
        return bool(self.generator.random() < p)

    # -- collection draws ----------------------------------------------------

    def choice(self, items: list):
        """A uniformly random element of ``items``."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[int(self.generator.integers(0, len(items)))]

    def sample_distinct(self, items: list, k: int) -> list:
        """``k`` distinct elements of ``items``, uniformly without replacement.

        If ``k`` exceeds ``len(items)`` the whole list is returned in random
        order — this matches the phone-call model's behaviour for nodes whose
        degree is smaller than the fanout.
        """
        size = len(items)
        if size == 0:
            return []
        if k == 1:
            # Fast path: the standard phone call model samples a single
            # neighbour per round, so this branch dominates large runs.
            return [items[int(self.generator.integers(0, size))]]
        if k >= size:
            indices = self.generator.permutation(size)
            return [items[i] for i in indices]
        indices = self.generator.choice(size, size=k, replace=False)
        return [items[i] for i in indices]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self.generator.shuffle(items)

    def permutation(self, n: int) -> np.ndarray:
        """A random permutation of ``range(n)``."""
        return self.generator.permutation(n)

    def binomial(self, n: int, p: float) -> int:
        """A binomial draw, used by bulk failure injection."""
        return int(self.generator.binomial(n, p))
