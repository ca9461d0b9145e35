"""Kernelization pipelines: the marking scheme and the polynomial method.

Both take an instance with a vertex cover X, keep G[X] whole, and prune the
outside independent set down to a bounded-size core that preserves the
yes/no status.  Marking keeps one representative per (neighborhood subset,
list) type; the polynomial method encodes each outside constraint as a
certified forbidding polynomial and keeps a GF(2) row basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .bitset import bit_list, iter_bits, mask_of
from .forbid import (DEFAULT_CERT_BUDGET, ForbidRequest, forbid,
                     forbid_monomial, minimal_subrequest)
from .graphs import (Graph, Instance, common_neighbors, cover_certificate,
                     reduce_lists)
from .gf2 import Gf2Poly, extract_basis
from .invariants import compute_c_star


@dataclass(frozen=True)
class KernelReport:
    """A kernel, its sizes and the constraints behind it.

    For marking, constraints_total and constraints_retained both count the
    (cover subset, list) types.  For the polynomial method,
    constraints_total counts the rows given to the basis: one per color
    missing from a cover vertex's list, plus one per distinct minimal
    no-common-neighbor tuple; constraints_retained counts the rows the
    basis kept.
    """

    kernel: Instance
    method: str
    degree_used: int
    vertices_in: int
    edges_in: int
    vertices_out: int
    edges_out: int
    bound_k: int
    bound_formula_ok: bool
    vertex_map: tuple[int, ...]
    constraints_total: int = 0
    constraints_retained: int = 0


def _trivial_no_kernel(inst: Instance, method: str, bound_k: int) -> KernelReport:
    kernel = Instance(Graph.from_edges(1, []), (0,), 0)
    return KernelReport(
        kernel=kernel, method=method, degree_used=0,
        vertices_in=inst.graph.n, edges_in=inst.graph.edge_count(),
        vertices_out=1, edges_out=0, bound_k=bound_k,
        bound_formula_ok=True, vertex_map=(-1,))


def _restrict(inst: Instance, cover: int,
              kept_nbrs: dict[int, int]) -> tuple[Instance, tuple[int, ...]]:
    """The kernel on G[cover] plus each kept outside vertex's kept edges.

    `kept_nbrs` maps an outside vertex to the mask of cover neighbors it
    keeps edges to.  Kept vertices are re-indexed in ascending order;
    returns the instance and the original-id map.
    """
    kept = sorted(bit_list(cover) + list(kept_nbrs))
    index = {v: i for i, v in enumerate(kept)}
    edges = [(index[u], index[v]) for u, v in inst.graph.edges()
             if cover >> u & 1 and cover >> v & 1]
    for v, nbrs in kept_nbrs.items():
        edges.extend((index[v], index[u]) for u in iter_bits(nbrs))
    kernel = Instance(Graph.from_edges(len(kept), edges),
                      tuple(inst.lists[v] for v in kept),
                      mask_of(index[v] for v in iter_bits(cover)))
    return kernel, tuple(kept)


def kernel_marking(inst: Instance, hg: Graph) -> KernelReport:
    """Keep one outside vertex per (cover subset of size <= c_star, list) type.

    The representative for a type is the lowest-index candidate; it keeps
    its edges into every subset it represents and loses all others.
    """
    cert = cover_certificate(inst)
    k = cert.size()
    if any(not m for m in inst.lists):
        return _trivial_no_kernel(inst, "marking", k)
    c = compute_c_star(hg).value
    cover = cert.cover
    chosen: dict[tuple[int, int], int] = {}
    for v in range(inst.graph.n):
        if cover >> v & 1:
            continue
        nbrs = bit_list(inst.graph.adj[v])
        for r in range(0, min(c, len(nbrs)) + 1):
            for combo in itertools.combinations(nbrs, r):
                key = (mask_of(combo), inst.lists[v])
                chosen.setdefault(key, v)
    kept_nbrs: dict[int, int] = {}
    for (x_mask, _), v in chosen.items():
        kept_nbrs[v] = kept_nbrs.get(v, 0) | x_mask
    kernel, vmap = _restrict(inst, cover, kept_nbrs)
    v_out, e_out = kernel.graph.n, kernel.graph.edge_count()
    h = hg.n
    bound_ok = (v_out <= k + 2 ** h * k ** c
                and e_out <= k * k + c * 2 ** h * k ** c)
    return KernelReport(
        kernel=kernel, method="marking", degree_used=c,
        vertices_in=inst.graph.n, edges_in=inst.graph.edge_count(),
        vertices_out=v_out, edges_out=e_out, bound_k=k,
        bound_formula_ok=bound_ok, vertex_map=vmap,
        constraints_total=len(chosen), constraints_retained=len(chosen))


_FORBID_CACHE: dict = {}


def _cached_forbid(hg: Graph, l_mask: int, lists: tuple[int, ...],
                   colors: tuple[int, ...], cycle_power, budget,
                   monomial_only: bool) -> Gf2Poly:
    """Forbidding polynomial on canonical positions 0..r-1, cached per pattern.

    The budget is part of the key: a pattern certified under a large budget
    must still raise under a smaller one.
    """
    key = (hg, l_mask, lists, colors, cycle_power, budget, monomial_only)
    poly = _FORBID_CACHE.get(key)
    if poly is None:
        req = ForbidRequest(hg, l_mask, lists, tuple(range(len(lists))), colors)
        if monomial_only:
            sub, _ = minimal_subrequest(req)
            poly = forbid_monomial(sub, budget=budget).poly
        else:
            poly = forbid(req, cycle_power=cycle_power, budget=budget).poly
        _FORBID_CACHE[key] = poly
    return poly


def _minimal_forbid(hg: Graph, l_mask: int, lists: tuple[int, ...],
                    colors: tuple[int, ...], cycle_power, budget,
                    monomial_only: bool) -> Gf2Poly | None:
    """The canonical polynomial of a minimal no-common-neighbor tuple, else None.

    A tuple is minimal when dropping any one position leaves a common
    neighbor in L; by monotonicity no smaller sub-tuple need be checked.
    """
    if common_neighbors(hg, mask_of(colors), l_mask):
        return None
    for i in range(len(colors)):
        if not common_neighbors(hg, mask_of(colors[:i] + colors[i + 1:]),
                                l_mask):
            return None
    return _cached_forbid(hg, l_mask, lists, colors, cycle_power, budget,
                          monomial_only)


def kernel_poly(inst: Instance, hg: Graph,
                cycle_power: tuple[int, int] | None = None,
                budget: int = DEFAULT_CERT_BUDGET,
                monomial_only: bool = False) -> KernelReport:
    """Polynomial-method kernel.

    After list reduction, each minimal no-common-neighbor tuple on an
    outside vertex's neighborhood subsets (size <= c_star) contributes a
    certified forbidding polynomial, the first time its (subset, list,
    tuple) is seen; a streaming GF(2) basis then decides which outside
    vertices and which of their edges survive.  A non-minimal tuple's
    polynomial is that of a minimal sub-tuple on a smaller subset of the
    same vertex, and a repeat gives the same row, so the basis would keep
    neither: the kernel is the one every forbidden tuple's row would give.
    With monomial_only the special constructions are skipped and every
    constraint is the plain tuple product of degree <= c_star.
    """
    cert = cover_certificate(inst)
    k = cert.size()
    if any(not m for m in inst.lists):
        return _trivial_no_kernel(inst, "poly", k)
    red = reduce_lists(inst, hg)
    cover = cert.cover
    c = compute_c_star(hg).value
    cover_vs = bit_list(cover)

    polys: list[Gf2Poly] = []
    meta: list[tuple] = []
    for v in cover_vs:
        for color in range(hg.n):
            if not red.lists[v] >> color & 1:
                polys.append(Gf2Poly.variable(v, color))
                meta.append(("list", v, color))
    # (l_mask, f_lists, tup) -> canonical polynomial, or None when the tuple
    # is not a minimal no-common-neighbor tuple
    canon_of: dict[tuple, Gf2Poly | None] = {}
    emitted: set[tuple] = set()
    for v in range(red.graph.n):
        if cover >> v & 1:
            continue
        l_mask = red.lists[v]
        nbrs = bit_list(red.graph.adj[v])
        for r in range(1, min(c, len(nbrs)) + 1):
            for combo in itertools.combinations(nbrs, r):
                f_lists = tuple(red.lists[u] for u in combo)
                remap = dict(enumerate(combo))
                for tup in itertools.product(*[bit_list(f) for f in f_lists]):
                    key = (l_mask, f_lists, tup)
                    try:
                        canon = canon_of[key]
                    except KeyError:
                        canon = canon_of[key] = _minimal_forbid(
                            hg, l_mask, f_lists, tup, cycle_power, budget,
                            monomial_only)
                    if canon is None or (combo, l_mask, tup) in emitted:
                        continue
                    emitted.add((combo, l_mask, tup))
                    polys.append(canon.remap_vertices(remap))
                    meta.append(("constr", v, combo))

    degree = max((p.degree() for p in polys), default=1)
    kept_idx = extract_basis(polys, m=k * hg.n, d=degree)

    kept_nbrs: dict[int, int] = {}
    for idx in kept_idx:
        tag = meta[idx]
        if tag[0] == "constr":
            _, v, combo = tag
            kept_nbrs[v] = kept_nbrs.get(v, 0) | mask_of(combo)
    kernel, vmap = _restrict(red, cover, kept_nbrs)
    retained = len(kept_idx)
    rank_bound = sum(math.comb(k * hg.n, i) for i in range(degree + 1))
    return KernelReport(
        kernel=kernel, method="poly", degree_used=degree,
        vertices_in=inst.graph.n, edges_in=inst.graph.edge_count(),
        vertices_out=kernel.graph.n, edges_out=kernel.graph.edge_count(),
        bound_k=k, bound_formula_ok=retained <= rank_bound, vertex_map=vmap,
        constraints_total=len(polys), constraints_retained=retained)


def kernelize(inst: Instance, hg: Graph, method: str,
              cycle_power: tuple[int, int] | None = None) -> KernelReport:
    if method == "marking":
        return kernel_marking(inst, hg)
    if method == "poly":
        return kernel_poly(inst, hg, cycle_power=cycle_power)
    raise ValueError(f"unknown kernel method {method!r}")
