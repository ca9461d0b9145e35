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
from .forbid import (DEFAULT_CERT_BUDGET, ForbidRequest, forbid,
                     forbid_monomial, minimal_subrequest)
from .graphs import (Graph, Instance, cover_certificate, reduce_lists,
                     validate_instance)
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
    would keep.  The basis is given one row per distinct (cover subset,
    polynomial) pair, so it sees distinct rows only: a later tuple with
    the same pair is counted, but its row equals an earlier one.  The list
    rows are counted and retained by construction and never reach the
    basis.
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


def _is_minimal(adj: tuple[int, ...], full: int, l_mask: int,
                colors: tuple[int, ...]) -> bool:
    """Is this a minimal no-common-neighbor tuple in L?

    A tuple is minimal when dropping any one position leaves a common
    neighbor in L; by monotonicity no smaller sub-tuple need be checked.
    The common neighborhood of each leave-one-out tuple is the AND of a
    prefix and a suffix of the colors' neighborhoods.
    """
    prefix = [full]
    for color in colors:
        prefix.append(prefix[-1] & adj[color])
    if prefix[-1] & l_mask:
        return False
    suffix = l_mask
    for i in reversed(range(len(colors))):
        if not prefix[i] & suffix:
            return False
        suffix &= adj[colors[i]]
    return True


def kernel_poly(inst: Instance, hg: Graph,
                cycle_power: tuple[int, int] | None = None,
                budget: int = DEFAULT_CERT_BUDGET) -> KernelReport:
    """Polynomial-method kernel.

    After list reduction it walks the same first-seen types as the marking
    kernel (`_types`), but over the reduced lists.  Each minimal
    no-common-neighbor tuple on a type contributes a certified forbidding
    polynomial, placed on the type's lowest vertex; a streaming GF(2) basis
    then decides which outside vertices and which of their edges survive.
    A non-minimal tuple's polynomial is that of a minimal sub-tuple on a
    smaller subset, and a later vertex of the same type gives the same
    rows, so the basis would keep neither: the kernel is the one every
    forbidden tuple's row would give.  A later tuple with the same (cover
    subset, polynomial) pair gives the same row, so the rows held grow with
    the distinct rows, which the rank bound caps.  Rows are packed
    (`lhom.gf2`): y[u, color] of the i-th cover vertex u is bit i * h + color.
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

    # each color c missing from a cover vertex u's list gives the unit row
    # y[u, c], placed ahead of every other row: the streaming basis would
    # keep all of them, and each cancels only its own degree-1 column in
    # later rows, so they are counted and retained without the basis and
    # that column is dropped from every constraint row
    list_vars = 0
    for v, i in index.items():
        list_vars |= (full & ~red.lists[v]) << i * h
    n_list = list_vars.bit_count()
    # (cover subset mask, canonical polynomial) -> the outside vertex of its
    # first minimal tuple; a later tuple with the same key gives the same
    # row, which the basis could not keep
    first: dict[tuple[int, Gf2Poly], int] = {}
    tuples = 0
    degree = 1  # a list row has degree 1, as has an empty row set
    for (x_mask, l_mask), v in _types(red, cover, c).items():
        f_lists = tuple(red.lists[u] for u in bit_list(x_mask))
        # at x_mask == 0 the empty tuple has all of L as common neighbors,
        # so it gives no row
        for tup in itertools.product(*[bit_list(f) for f in f_lists]):
            if not _is_minimal(adj, full, l_mask, tup):
                continue
            req = ForbidRequest(hg, l_mask, f_lists, tuple(range(len(tup))),
                                tup)
            canon = forbid(req, cycle_power=cycle_power, budget=budget)
            first.setdefault((x_mask, canon.poly), v)
            tuples += 1
            degree = max(degree, canon.degree)

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
