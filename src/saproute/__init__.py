"""Solvers for the single-alternative-path family of strategic routing
problems: given a road network with congestion-dependent edge costs, an
original route carrying a demand, and a model of how drivers split between
two suggested routes, find the alternative route minimizing the overall
travel time."""

from .dominance import label_path, reduced_join_union, simple_cull
from .network import (AFFINE, QUADRATIC, CostFn, Edge, Network, NetworkError,
                      Path, Route, add_cost, bpr_to_costfn, derivative_coeff,
                      eval_cost, parse_network, parse_route, pareto_point)
from .oracle import (BruteForceResult, GadgetInstance, OracleLimitError,
                     brute_force_all_variants, brute_force_optimum,
                     build_gadget, enumerate_simple_paths, indicator_model,
                     subsetsum_brute, variant_feasible)
from .psychmodels import (CFunction, CustomModel, ModelError,
                          NoAlternativeError, QuotientModel, SplitResult,
                          SystemOptimum, check_quotient_conformity,
                          linear_model, parse_model, score, tanh_model,
                          user_equilibrium)
from .solvers import (SapInstance, Solution, baseline_sp, detour_frontiers, solve,
                      solve_1d_sap, solve_1d_sap_fc, solve_d_sap, solve_sap,
                      solve_sap_fc)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
