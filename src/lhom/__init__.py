"""Kernelization toolkit for list homomorphism problems with small vertex cover.

Computes the marking degree and lower-bound order of a target graph with
witnesses, shrinks instances through the marking and GF(2) polynomial
kernels, synthesizes certified forbidding polynomials, and generates the
hardness-side gadget reductions; a brute-force homomorphism oracle backs
every construction at desk scale.
"""

from .forbid import ForbidRequest, ForbidResult, certify_forbid, forbid
from .generators import gen_cycle_power, gen_instance, gen_subdivided_star
from .graphs import (Graph, Instance, common_neighbors, greedy_vertex_cover,
                     incomparable, reduce_lists)
from .invariants import (CStarWitness, LowerBoundStructure, classify,
                         compute_c_star, compute_d_star, find_lbs,
                         find_non_bi_arc_witness)
from .kernels import KernelReport, kernel_marking, kernel_poly, kernelize
from .reductions import build_comp, build_neq, build_variable_gadget, reduce_sat
from .solver import decide, enumerate_restricted

__all__ = [
    "Graph", "Instance", "common_neighbors",
    "incomparable", "reduce_lists", "greedy_vertex_cover",
    "CStarWitness", "LowerBoundStructure", "compute_c_star", "compute_d_star",
    "find_lbs", "find_non_bi_arc_witness", "classify",
    "decide", "enumerate_restricted",
    "ForbidRequest", "ForbidResult", "forbid", "certify_forbid",
    "KernelReport", "kernel_marking", "kernel_poly", "kernelize",
    "build_neq", "build_comp", "build_variable_gadget", "reduce_sat",
    "gen_cycle_power", "gen_subdivided_star", "gen_instance",
]

__version__ = "0.1.0"
