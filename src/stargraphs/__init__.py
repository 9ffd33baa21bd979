"""Exact graph calculus for star products.

Admissible directed graphs are enumerated and canonicalized with signs,
translated into polydifferential operators over exact rational polynomial
Poisson structures, equipped with the graph-level Hochschild differential and
Gerstenhaber bracket, and fed to an order-by-order associativity solver that
produces rational solutions or exact obstruction certificates.
"""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, DimensionError, GraphError, PresetError)
from .graphs import (DirectedGraph, EnumerationResult, GraphSum, canonical_form,
                     encode_graph, enumerate_graphs, has_wheel, parse_graph, zero_classes)
from .homology import (LeibnizGenerator, graft_terms, graph_compose, graph_delta,
                       graph_gerstenhaber, leibniz_generators)
from .operators import (CoboundaryColumns, PolyDiffOperator, apply_graph, compile_graph,
                        compile_sum, oracle_compose, oracle_delta, oracle_gerstenhaber)
from .poisson import PoissonStructure, jacobiator, preset_from_string, preset_poisson
from .poly import Poly, monomials_up_to_degree, parse_poly
from .solver import (MCReport, StarSeries, antisymmetric_part, cocycle_kernel,
                     eval_obstruction, kontsevich_k2, mc_defect,
                     poisson_class_sum, reparametrize, solve_order, solve_up_to,
                     triples_by_total_degree, verify_order)

__all__ = [name for name in dir() if not name.startswith("_")]
