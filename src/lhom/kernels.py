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
# forbid_monomial and minimal_subrequest stay importable here because
# perfbench/spans.py wraps them by name in this module
from .forbid import (DEFAULT_CERT_BUDGET, ForbidRequest, charge, forbid,
                     forbid_monomial, forbid_route, minimal_subrequest)
from .graphs import (Graph, Instance, cover_certificate, is_incomparable_set,
                     reduce_lists, validate_instance)
from .gf2 import Gf2Poly, extract_basis
from .invariants import compute_c_star


@dataclass(frozen=True)
class KernelReport:
    """A kernel, its sizes and the constraints behind it.

    For marking, constraints_total and constraints_retained both count the
    (cover subset, list) types.  For the polynomial method,
    constraints_total counts the constraint rows: one per color missing
    from a cover vertex's list, plus one per minimal no-common-neighbor
    tuple on each type; constraints_retained counts the rows the basis
    would keep.  The basis sees one row per distinct (cover subset,
    polynomial) pair; a later tuple with the same pair is only counted.
    The list rows are counted and retained without the basis.
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
    returns the instance and the original-id map.  A vertex below the
    lowest dropped one keeps its index, so only mask bits at or above that
    vertex are moved one by one.
    """
    kept_mask = cover | mask_of(kept_nbrs)
    kept = bit_list(kept_mask)
    index = {v: i for i, v in enumerate(kept)}
    dropped = ~kept_mask
    low = (dropped & -dropped).bit_length() - 1
    same = (1 << low) - 1

    def moved(mask: int) -> int:
        out = mask & same
        for u in iter_bits(mask & ~same):
            out |= 1 << index[u]
        return out

    adj = inst.graph.adj
    rows = [adj[v] & cover if cover >> v & 1 else 0 for v in kept]
    if cover & ~same:
        rows = list(map(moved, rows))
    for v, nbrs in kept_nbrs.items():
        i = index[v]
        for u in iter_bits(nbrs):
            rows[i] |= 1 << index[u]
            rows[index[u]] |= 1 << i
    kernel = Instance(Graph(len(kept), tuple(rows)),
                      tuple(inst.lists[v] for v in kept), moved(cover))
    return kernel, tuple(kept)


def _types(inst: Instance, cover: int, c: int) -> dict[tuple[int, int], int]:
    """(cover subset mask, list) type -> its lowest outside vertex.

    A type is an outside vertex's list together with one subset of at most
    c of its cover neighbors.  Both kernels walk the types in the dict's
    order, which is first-seen order: vertices ascending, then subsets by
    size from 0, then in `itertools.combinations` order.
    """
    types: dict[tuple[int, int], int] = {}
    for v in range(inst.graph.n):
        if cover >> v & 1:
            continue
        nbrs = bit_list(inst.graph.adj[v])
        for r in range(0, min(c, len(nbrs)) + 1):
            for combo in itertools.combinations(nbrs, r):
                types.setdefault((mask_of(combo), inst.lists[v]), v)
    return types


def kernel_marking(inst: Instance, hg: Graph) -> KernelReport:
    """Keep one outside vertex per (cover subset of size <= c_star, list) type.

    The representative for a type is its lowest-index vertex (`_types`); it
    keeps its edges into every subset it represents and loses all others.
    """
    validate_instance(inst, hg)
    cert = cover_certificate(inst)
    k = cert.size()
    if any(not m for m in inst.lists):
        return _trivial_no_kernel(inst, "marking", k)
    c = compute_c_star(hg).value
    cover = cert.cover
    chosen = _types(inst, cover, c)
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


def _minimal_tuples(adj: tuple[int, ...], full: int, l_mask: int,
                    cands: tuple[list[int], ...]):
    """The minimal no-common-neighbor tuples in a non-empty L of the
    product of cands, in `itertools.product` order.  The depth-first walk
    skips a proper prefix with no common neighbor in L (an extension would
    have none without its last position); a last color must meet each
    leave-one-out neighborhood of its prefix, a stored prefix AND a suffix."""
    last = len(cands) - 1
    prefix = [full] * (last + 1)  # prefix[j]: common neighbors of tup[:j]
    tup = [0] * last
    stack = [iter(cands[0])] if cands else []
    while stack:
        j = len(stack) - 1
        if j < last:
            color = next(stack[j], None)
            if color is None:
                stack.pop()
            elif prefix[j] & adj[color] & l_mask:
                tup[j], prefix[j + 1] = color, prefix[j] & adj[color]
                stack.append(iter(cands[j + 1]))
            continue
        stack.pop()
        outs, suffix = [], l_mask
        for i in reversed(range(last)):
            outs.append(prefix[i] & suffix)
            suffix &= adj[tup[i]]
        base = prefix[last] & l_mask
        for color in cands[last] if all(outs) else ():
            near = adj[color]
            if not base & near:
                for out in outs:
                    if not out & near:
                        break
                else:
                    yield (*tup, color)


def kernel_poly(inst: Instance, hg: Graph,
                cycle_power: tuple[int, int] | None = None,
                budget: int = DEFAULT_CERT_BUDGET) -> KernelReport:
    """Polynomial-method kernel.

    After list reduction it walks the marking kernel's first-seen types
    (`_types`) over the reduced lists, and only their minimal
    no-common-neighbor tuples (`_minimal_tuples`); a non-minimal tuple's
    row is that of a minimal sub-tuple on a smaller subset.  A tuple on a
    route that reads L (`forbid_route`) gets `forbid`'s certified
    polynomial, any other its plain monomial, on the type's lowest vertex.
    A streaming GF(2) basis of one row per distinct (cover subset,
    polynomial) decides which outside vertices and edges survive.  Rows are
    packed (`lhom.gf2`): y[u, color] of the i-th cover vertex u is bit
    i * h + color.
    """
    red = reduce_lists(inst, hg)
    cert = cover_certificate(inst)
    k = cert.size()
    if any(not m for m in inst.lists):
        return _trivial_no_kernel(inst, "poly", k)
    cover = cert.cover
    c = compute_c_star(hg).value
    h = hg.n
    adj, full = hg.adj, hg.full_mask
    index = {u: i for i, u in enumerate(bit_list(cover))}

    # a color c missing from a cover vertex u's list gives the unit row
    # y[u, c]; the basis would keep all of these ahead of the other rows, so
    # they bypass it, and their degree-1 monomials leave every other row
    list_vars = 0
    for v, i in index.items():
        list_vars |= (full & ~red.lists[v]) << i * h
    n_list = list_vars.bit_count()
    # a request's other checks hold by construction or by the walk's test
    if not all(is_incomparable_set(hg, f)
               for f in {red.lists[u] for u in index}):
        raise ValueError("a reduced cover list is not incomparable")
    routes = [forbid_route(hg, cycle_power, r) for r in range(c + 1)]
    subsets = {}  # cover subset mask -> its lists, their colors, product size
    # (cover subset mask, polynomial) -> the vertex of its first minimal tuple
    first: dict[tuple[int, Gf2Poly], int] = {}
    seen = set()  # (cover subset mask, tuple) of the monomials placed
    tuples = 0
    degree = 1  # a list row has degree 1, as has an empty row set
    for (x_mask, l_mask), v in _types(red, cover, c).items():
        if x_mask not in subsets:
            f_lists = tuple(red.lists[u] for u in bit_list(x_mask))
            cands = tuple(map(bit_list, f_lists))
            subsets[x_mask] = f_lists, cands, math.prod(map(len, cands))
        f_lists, cands, size = subsets[x_mask]
        for tup in _minimal_tuples(adj, full, l_mask, cands):
            tuples += 1
            if routes[len(tup)]:
                req = ForbidRequest(hg, l_mask, f_lists,
                                    tuple(range(len(tup))), tup)
                canon = forbid(req, cycle_power=cycle_power, budget=budget)
                first.setdefault((x_mask, canon.poly), v)
                degree = max(degree, canon.degree)
            elif (x_mask, tup) not in seen:
                charge(size, budget)
                seen.add((x_mask, tup))
                first.setdefault(
                    (x_mask, Gf2Poly.product_of_vars(enumerate(tup))), v)
                degree = max(degree, len(tup))

    rows: list[list[int]] = []
    for x_mask, poly in first:
        combo = bit_list(x_mask)
        row = [sum(1 << index[combo[pos]] * h + color for pos, color in mono)
               for mono in poly.monomials]
        rows.append([mono for mono in row
                     if not mono & list_vars or mono & mono - 1])
    kept_idx = extract_basis(rows, m=k * h, d=degree)
    keys = list(first.items())

    kept_nbrs: dict[int, int] = {}
    for idx in kept_idx:
        (x_mask, _), v = keys[idx]
        kept_nbrs[v] = kept_nbrs.get(v, 0) | x_mask
    kernel, vmap = _restrict(red, cover, kept_nbrs)
    retained = n_list + len(kept_idx)
    rank_bound = sum(math.comb(k * h, i) for i in range(degree + 1))
    return KernelReport(
        kernel=kernel, method="poly", degree_used=degree,
        vertices_in=inst.graph.n, edges_in=inst.graph.edge_count(),
        vertices_out=kernel.graph.n, edges_out=kernel.graph.edge_count(),
        bound_k=k, bound_formula_ok=retained <= rank_bound, vertex_map=vmap,
        constraints_total=n_list + tuples,
        constraints_retained=retained)


def kernelize(inst: Instance, hg: Graph, method: str,
              cycle_power: tuple[int, int] | None = None) -> KernelReport:
    if method == "marking":
        return kernel_marking(inst, hg)
    if method == "poly":
        return kernel_poly(inst, hg, cycle_power=cycle_power)
    raise ValueError(f"unknown kernel method {method!r}")
