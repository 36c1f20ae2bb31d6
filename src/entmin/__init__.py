"""Minimal measurement entropy of multipartite pure states.

The central quantity is the smallest Shannon entropy of local measurement
outcomes over all product bases.  The package provides the optimizer that
brackets it, the named states with known closed-form values, the GF(2)
machinery for graph states and k-uniformity, and the outcome-distribution
polytope that pins the 6-qubit floor.
"""

from .entopt import (
    OptConfig,
    OptResult,
    antisymmetric_floor,
    bipartite_exact,
    best_subset_lower_bound,
    entropy_for_bases,
    max_product_overlap,
    minimize_entropy,
    polytope_floor,
    result_to_dict,
    subset_lower_bound,
)
from .errors import CapacityError, EntminError, ValidationError
from .gf2uniform import (
    BitDistribution,
    fourier,
    gf2_rank,
    graph_reduced_density,
    inverse_fourier,
    is_k_uniform,
    is_maximally_uniform_graph,
    min_stabilizer_weight,
    search_maximally_uniform,
)
from .hilbert import (
    DensityMatrix,
    ProductBasis,
    PureState,
    identity_basis,
    load_state,
    outcome_distribution,
    partial_trace,
    random_state,
    save_state,
    schmidt_decompose,
    shannon_entropy,
    tensor_product,
    von_neumann_entropy,
)
from .kpolytope import (
    PolytopeSpec,
    enumerate_vertices_generic,
    enumerate_vertices_p53,
    min_entropy_over_polytope,
    verify_inf6_chain,
)
from .states import (
    GraphSpec,
    determinant_state,
    generalized_determinant,
    ghz,
    graph_state,
    hexacode_graph,
    hexacode_state,
    load_graph,
    log2_factorial,
    save_graph,
)

__version__ = "0.1.0"

__all__ = [
    "BitDistribution",
    "CapacityError",
    "DensityMatrix",
    "EntminError",
    "GraphSpec",
    "OptConfig",
    "OptResult",
    "PolytopeSpec",
    "ProductBasis",
    "PureState",
    "ValidationError",
    "antisymmetric_floor",
    "best_subset_lower_bound",
    "bipartite_exact",
    "determinant_state",
    "entropy_for_bases",
    "enumerate_vertices_generic",
    "enumerate_vertices_p53",
    "fourier",
    "generalized_determinant",
    "gf2_rank",
    "ghz",
    "graph_reduced_density",
    "graph_state",
    "hexacode_graph",
    "hexacode_state",
    "identity_basis",
    "inverse_fourier",
    "is_k_uniform",
    "is_maximally_uniform_graph",
    "load_graph",
    "load_state",
    "log2_factorial",
    "max_product_overlap",
    "min_entropy_over_polytope",
    "min_stabilizer_weight",
    "minimize_entropy",
    "outcome_distribution",
    "partial_trace",
    "polytope_floor",
    "random_state",
    "result_to_dict",
    "save_graph",
    "save_state",
    "schmidt_decompose",
    "search_maximally_uniform",
    "shannon_entropy",
    "subset_lower_bound",
    "tensor_product",
    "verify_inf6_chain",
    "von_neumann_entropy",
]
