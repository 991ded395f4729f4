"""Graph substrates: random regular graphs and baseline topologies.

The central object is :class:`repro.graphs.Graph`, a light adjacency-list
(multi)graph.  Random d-regular graphs are generated by the configuration
(pairing) model exactly as analysed in the paper; complete graphs, G(n,p),
hypercubes, rings, and the paper's product-with-K5 counterexample are
available as baselines.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .base import Graph
    from .configuration_model import (
        connected_random_regular_graph,
        pairing_multigraph,
        random_regular_graph,
        validate_regular_parameters,
    )
    from .families import (
        complete_graph,
        gnp_graph,
        hypercube_graph,
        regular_product_with_clique,
        ring_graph,
    )
    from .registry import (
        GRAPH_FAMILIES,
        available_graph_families,
        build_graph,
        graph_needs_rng,
    )
    from .spectra import (
        SpectralEstimate,
        estimate_second_eigenvalue,
        spectral_expansion_profile,
    )
    from .properties import (
        GraphProfile,
        average_shortest_path_length,
        connected_components,
        degree_histogram,
        diameter,
        edge_boundary_size,
        edges_within,
        expander_mixing_bound,
        is_connected,
        profile_graph,
        second_largest_adjacency_eigenvalue,
    )

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "Graph",
    "pairing_multigraph",
    "random_regular_graph",
    "connected_random_regular_graph",
    "validate_regular_parameters",
    "complete_graph",
    "gnp_graph",
    "hypercube_graph",
    "ring_graph",
    "regular_product_with_clique",
    "GRAPH_FAMILIES",
    "available_graph_families",
    "build_graph",
    "graph_needs_rng",
    "GraphProfile",
    "is_connected",
    "connected_components",
    "diameter",
    "average_shortest_path_length",
    "degree_histogram",
    "edge_boundary_size",
    "edges_within",
    "expander_mixing_bound",
    "second_largest_adjacency_eigenvalue",
    "profile_graph",
    "SpectralEstimate",
    "estimate_second_eigenvalue",
    "spectral_expansion_profile",
]
