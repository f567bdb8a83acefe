"""Symmetry-breaking invariants of finite graphs.

Computes the distinguishing number, the cost of distinguishing, and the
determining number of simple graphs via a colored-automorphism engine, and
machine-checks a suite of exact statements about them on small-graph corpora.
"""

from .aut import (AutContext, Budget, BudgetExceededError, PermGroup,
                  automorphisms, brute_force_automorphisms, enumerate_elements, refine)
from .families import (corona_cost_bound, corona_determining_number,
                       corona_pendant_determining_number, friendship_cost,
                       friendship_determining_number, friendship_distinguishing_number,
                       friendship_gap, friendship_threshold)
from .graphs import (FamilySpec, Graph, build_family, complete, complete_bipartite,
                     corona, cycle, emit_edge_list, emit_graph6, friendship,
                     from_edge_list, hypercube, induced_subgraph, parse_edge_list,
                     parse_family_spec, parse_graph6, path, star)
from .invariants import (InvariantReport, check_witnesses, cost, determining_number,
                         distinguishing_number, invariant_report, is_determining_set,
                         minimum_determining_sets, subset_distinguishing_witness,
                         subset_is_d_distinguishable)
from .verifier import (TheoremReport, corpus, exit_code_for, registered_checks,
                       run_check, run_suite)

__all__ = [
    "AutContext", "Budget", "BudgetExceededError", "PermGroup",
    "automorphisms", "brute_force_automorphisms", "enumerate_elements", "refine",
    "corona_cost_bound", "corona_determining_number",
    "corona_pendant_determining_number", "friendship_cost",
    "friendship_determining_number", "friendship_distinguishing_number",
    "friendship_gap", "friendship_threshold",
    "FamilySpec", "Graph", "build_family", "complete", "complete_bipartite",
    "corona", "cycle", "emit_edge_list", "emit_graph6", "friendship",
    "from_edge_list", "hypercube", "induced_subgraph", "parse_edge_list",
    "parse_family_spec", "parse_graph6", "path", "star",
    "InvariantReport", "check_witnesses", "cost", "determining_number",
    "distinguishing_number", "invariant_report", "is_determining_set",
    "minimum_determining_sets", "subset_distinguishing_witness",
    "subset_is_d_distinguishable",
    "TheoremReport", "corpus", "exit_code_for", "registered_checks",
    "run_check", "run_suite",
]
