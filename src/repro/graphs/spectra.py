"""Spectral estimates that scale to large graphs.

:func:`repro.graphs.properties.second_largest_adjacency_eigenvalue` builds a
dense matrix (O(n²) memory, O(n³) time), which is fine for property tests but
not for profiling the 10⁴–10⁵-node graphs the experiments use.  This module
provides a sparse power-iteration estimate of the second eigenvalue and the
derived spectral expansion quantities the paper's lower-bound proof relies on
(Friedman's bound ``λ₂ ≤ 2√(d−1)(1+o(1))`` and the expander mixing lemma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.errors import ConfigurationError
from ..core.rng import RandomSource
from .base import Graph
from .properties import _csr_arrays

__all__ = ["SpectralEstimate", "estimate_second_eigenvalue", "spectral_expansion_profile"]


@dataclass(frozen=True)
class SpectralEstimate:
    """Result of the power-iteration estimate for a d-regular graph."""

    second_eigenvalue: float
    friedman_bound: float
    iterations: int
    converged: bool

    @property
    def relative_to_friedman(self) -> float:
        """λ₂ estimate divided by ``2√(d−1)`` (≈ 1 for near-Ramanujan graphs)."""
        if self.friedman_bound == 0:
            return float("inf")
        return self.second_eigenvalue / self.friedman_bound


def _multiply(indptr: np.ndarray, indices: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Sparse adjacency–vector product via a segmented sum."""
    gathered = vector[indices]
    sums = np.add.reduceat(gathered, indptr[:-1])
    # reduceat misbehaves for empty rows (isolated nodes): zero them out.
    empty_rows = indptr[:-1] == indptr[1:]
    if empty_rows.any():
        sums = np.where(empty_rows, 0.0, sums)
    return sums


def estimate_second_eigenvalue(
    graph: Graph,
    iterations: int = 300,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> SpectralEstimate:
    """Estimate λ₂ of a d-regular graph by power iteration on the deflated matrix.

    For a d-regular graph the top eigenvector is the all-ones vector with
    eigenvalue ``d``, so iterating ``A·x`` on vectors kept orthogonal to the
    all-ones vector converges to the eigenvalue that is largest in absolute
    value among the rest — which for random regular graphs is λ₂ (or |λ_min|,
    which obeys the same Friedman bound, so either answer serves the
    expansion estimates).

    Raises :class:`ConfigurationError` for non-regular graphs — the deflation
    step relies on regularity.
    """
    if graph.node_count < 3:
        raise ConfigurationError("need at least 3 nodes for a spectral estimate")
    if not graph.is_regular():
        raise ConfigurationError("estimate_second_eigenvalue requires a regular graph")
    degree = graph.degree(graph.nodes()[0])
    if degree < 2:
        raise ConfigurationError("degree must be at least 2 for a meaningful estimate")

    indptr, indices = _csr_arrays(graph)
    n = graph.node_count
    # RandomSource seeds its generator exactly as default_rng(seed) would, so
    # routing through it keeps historical estimates bit-identical.
    rng = RandomSource(seed=seed, name="spectra").generator
    vector = rng.standard_normal(n)
    vector -= vector.mean()
    vector /= np.linalg.norm(vector)

    # Power-iterate on the shifted matrix B = A + d·I.  B is positive
    # semidefinite for a d-regular graph (eigenvalues d + λ_i ≥ 0), so the
    # iteration cannot oscillate between λ₂ and the (similarly sized,
    # negative) smallest eigenvalue; after deflating the all-ones direction
    # its dominant eigenvalue is d + λ₂.
    eigenvalue_shifted = 0.0
    converged = False
    performed = 0
    for performed in range(1, iterations + 1):
        product = _multiply(indptr, indices, vector) + degree * vector
        # Rayleigh quotient of B with the current (unit, mean-free) vector.
        new_eigenvalue = float(vector @ product)
        # Deflate the all-ones direction and renormalise for the next step.
        product -= product.mean()
        norm = np.linalg.norm(product)
        if norm == 0:
            break
        vector = product / norm
        if abs(new_eigenvalue - eigenvalue_shifted) < tolerance:
            eigenvalue_shifted = new_eigenvalue
            converged = True
            break
        eigenvalue_shifted = new_eigenvalue

    return SpectralEstimate(
        second_eigenvalue=max(0.0, eigenvalue_shifted - degree),
        friedman_bound=2.0 * math.sqrt(degree - 1),
        iterations=performed,
        converged=converged,
    )


def spectral_expansion_profile(
    graph: Graph, set_size: Optional[int] = None, seed: int = 0
) -> dict:
    """Expansion quantities used in the lower-bound proof, for one graph.

    Returns the λ₂ estimate, Friedman's bound, and the expander-mixing-lemma
    lower bound on ``|E(S, S̄)|`` for a set of ``set_size`` nodes (default
    ``n/2``), all as a plain dict for easy logging.
    """
    estimate = estimate_second_eigenvalue(graph, seed=seed)
    n = graph.node_count
    degree = graph.degree(graph.nodes()[0])
    size = set_size if set_size is not None else n // 2
    if not 0 < size < n:
        raise ConfigurationError(f"set_size must be in (0, {n}), got {size}")
    expected = degree * size * (n - size) / n
    deviation = estimate.second_eigenvalue * math.sqrt(size * (n - size))
    return {
        "second_eigenvalue": estimate.second_eigenvalue,
        "friedman_bound": estimate.friedman_bound,
        "relative_to_friedman": estimate.relative_to_friedman,
        "mixing_lower_bound": max(0.0, expected - deviation),
        "expected_cut": expected,
        "set_size": size,
    }
