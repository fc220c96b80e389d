"""Exact m-distances, distance-regularity, and P-polynomial certificates.

Vertices of an edge-colored graph are separated by a vector-valued
distance: the minimum, under a chosen monomial order, of the color-count
vectors of connecting walks.  When the count of intermediate vertices at
prescribed distances depends only on the endpoints' distance, the graph
is m-distance-regular and its distance matrices form an association
scheme.  This package computes the distances, certifies the regularity
and the multivariate P-polynomial / type-(alpha, beta) properties with
explicit witnesses on failure, extracts the defining polynomials, and
ships the graph and scheme families used throughout the test suite.

All arithmetic is exact: integers, ``fractions.Fraction``, and 0/1
integer matrices only.
"""

from .certificates import Certificate, Check, witness
from .exactlinalg import SingularSystemError, in_span, mat_vec, rank, solve_columns
from .graphs import (ColoredGraph, DisconnectedGraphError, DistanceTable,
                     GraphStructureError, check_precompat_graph,
                     count_walks_by_type, distance_profile, m_distance_from,
                     m_distance_table)
from .orders import (ABRegion, AlphaBeta, Comparison, Interval, MonomialOrder,
                     MultiIndex, PartialOrder, ab_feasible_region, box,
                     check_domain, componentwise_leq, compare_monomial,
                     compare_partial, downset_enum, validate_monomial_order,
                     validate_pair_compat)
from .ppoly import (Discovery, ExtractionError, IncompatibleOrderPairError,
                    Labeling, Polynomial, ab_region_for_scheme, boundary_check,
                    certify_ppoly, certify_ppoly_refined, certify_type_ab,
                    discover_labelings, extract_polynomials, verify_recurrences)
from .schemes import (IntersectionTensor, MdrgResult, MonomialBasis,
                      SchemeClasses, check_additive_nonvanishing,
                      check_sum_decomposition, check_triangle_conditions,
                      check_walk_type_invariance, distance_matrices,
                      generator_rows, intersection_tensor, mdrg_check,
                      monomial_coeffs, verify_scheme_axioms)
from .families import (cartesian_product, cell24, complete, cycle, gen24cell,
                       hamming_graph, pauli_scheme4, symmetrize)

__version__ = "0.1.0"

__all__ = [
    "ABRegion", "AlphaBeta", "Certificate", "Check", "ColoredGraph",
    "Comparison", "DisconnectedGraphError", "Discovery", "DistanceTable",
    "ExtractionError", "GraphStructureError", "IncompatibleOrderPairError",
    "IntersectionTensor", "Interval", "Labeling", "MdrgResult",
    "MonomialBasis", "MonomialOrder", "MultiIndex", "PartialOrder",
    "Polynomial", "SchemeClasses", "SingularSystemError",
    "ab_feasible_region", "ab_region_for_scheme", "boundary_check", "box",
    "cartesian_product", "cell24", "certify_ppoly", "certify_ppoly_refined",
    "certify_type_ab", "check_additive_nonvanishing", "check_domain",
    "check_precompat_graph", "check_sum_decomposition",
    "check_triangle_conditions", "check_walk_type_invariance",
    "compare_monomial", "compare_partial", "complete", "componentwise_leq",
    "count_walks_by_type", "cycle", "discover_labelings", "distance_matrices",
    "distance_profile", "downset_enum", "extract_polynomials", "gen24cell",
    "generator_rows", "hamming_graph", "in_span", "intersection_tensor", "m_distance_from",
    "m_distance_table", "mat_vec", "mdrg_check", "monomial_coeffs",
    "pauli_scheme4", "rank", "solve_columns", "symmetrize",
    "validate_monomial_order", "validate_pair_compat", "verify_recurrences",
    "verify_scheme_axioms", "witness",
]
