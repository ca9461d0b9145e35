"""Kernelization pipelines: the marking scheme and the polynomial method.

Both take an instance with a vertex cover X, keep G[X] whole, and prune the
outside independent set down to a bounded-size core that preserves the
yes/no status.  Marking keeps one representative per (neighborhood subset,
list) type; the polynomial method encodes each outside constraint as a
certified forbidding polynomial and keeps a GF(2) row basis.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator

from .bitset import bit_list, iter_bits, mask_of
from .errors import BudgetExceededError
# the kernel calls none of forbid, forbid_monomial and minimal_subrequest;
# they stay importable here because perfbench/spans.py wraps them by name
from .forbid import (ForbidRequest, charge, construct, forbid, forbid_monomial,
                     forbid_route, minimal_subrequest)
from .graphs import (Graph, Instance, cover_certificate, record, reduce_lists,
                     validate_instance)
from .gf2 import extract_basis
from .invariants import compute_c_star


@record
class KernelReport:
    """A kernel, its sizes and the constraints behind it.

    For marking, constraints_total and constraints_retained both count the
    (cover subset, list) types that `_walk` offers.  For the polynomial
    method, constraints_total counts the constraint rows: one per color
    missing from a cover vertex's list, plus one per minimal
    no-common-neighbor tuple on each type; constraints_retained counts the
    rows the basis would keep.  The basis sees one row per distinct row key
    (`kernel_poly`) in first-met order; a later tuple with the same key is
    only counted.  The list rows are counted and retained without the
    basis.  A walk past WALK_BUDGET subsets raises `BudgetExceededError`
    instead of a report.
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


def _report(inst: Instance, kernel: Instance, vmap: tuple[int, ...],
            method: str, degree: int, k: int, bound_ok: bool,
            total: int = 0, retained: int = 0) -> KernelReport:
    """The report of a kernel, its four sizes read off input and kernel."""
    return KernelReport(kernel, method, degree, inst.graph.n,
                        inst.graph.edge_count(), kernel.graph.n,
                        kernel.graph.edge_count(), k, bound_ok, vmap, total,
                        retained)


def _trivial_no_kernel(inst: Instance, method: str, bound_k: int) -> KernelReport:
    kernel = Instance._built(Graph.from_edges(1, []), (0,), 0)
    return _report(inst, kernel, (-1,), method, 0, bound_k, True)


def _restrict(inst: Instance, cover: int, picks: list[tuple[int, int]]
              ) -> tuple[Instance, tuple[int, ...]]:
    """The kernel on G[cover] plus each pick (cover subset mask, v): outside
    vertex v with its edges to the subset, the union over v's picks.

    Kept vertices are re-indexed in ascending order; returns the instance
    and the original-id map.  A vertex below the lowest dropped one keeps
    its index, so only mask bits at or above that vertex are moved one by one.
    A kernel that keeps every vertex and edge shares the input's `Graph`.
    """
    kept_nbrs: dict[int, int] = {}
    for x_mask, v in picks:
        kept_nbrs[v] = kept_nbrs.get(v, 0) | x_mask
    kept_mask = cover | mask_of(kept_nbrs)
    adj = inst.graph.adj
    if kept_mask == inst.graph.full_mask and all(
            adj[v] == nbrs for v, nbrs in kept_nbrs.items()):
        return (Instance._built(inst.graph, tuple(inst.lists), cover),
                tuple(range(inst.graph.n)))
    kept = tuple(bit_list(kept_mask))
    place = {v: i for i, v in enumerate(kept)}
    dropped = ~kept_mask
    low = (dropped & -dropped).bit_length() - 1
    same = (1 << low) - 1

    def moved(mask: int) -> int:
        out = mask & same
        for u in iter_bits(mask & ~same):
            out |= 1 << place[u]
        return out

    rows = [adj[v] & cover if cover >> v & 1 else 0 for v in kept]
    if cover & ~same:
        rows = list(map(moved, rows))
    for v, nbrs in kept_nbrs.items():
        i = place[v]
        for u in iter_bits(nbrs):
            rows[i] |= 1 << place[u]
            rows[place[u]] |= 1 << i
    return (Instance._built(Graph._built(len(kept), tuple(rows)),
                            tuple(inst.lists[v] for v in kept), moved(cover)),
            kept)


# the most cover subsets that `_walk` may list: C6 at n=2000, k=40 lists
# 2.8M with a 92 MB peak in marking; the largest tested walk lists 28,266
WALK_BUDGET = 5_000_000


def _walk(inst: Instance, cover: int, c: int):
    """Each outside vertex v, ascending, as (v, its list L, its new subsets).

    A type is an outside vertex's list L together with one subset of at most
    c of its cover neighbors: a tuple from v's `Graph.nbrs` tuple, by size
    from 0 and then in `itertools.combinations` order.  The walk keeps, per
    L, the subsets it has offered and offers v only those new with L, so
    each type comes once, in first-seen order and on its lowest vertex; a
    vertex with none is skipped.  Before the first yield it counts the
    subsets it will list, W = sum over outside v of C(|N(v)|, i) for
    i <= c, once per distinct degree, unless (outside vertices) * 2^k is
    within WALK_BUDGET, and raises `BudgetExceededError` when W exceeds it.
    """
    nbrs, lists = inst.graph.nbrs, inst.lists
    outside = bit_list(inst.graph.full_mask & ~cover)
    # a vertex lists at most 2^k subsets, so most inputs skip the count,
    # which costs a small kernel a tenth of its time
    if len(outside) << cover.bit_count() > WALK_BUDGET:
        degrees = collections.Counter(map(len, map(nbrs.__getitem__, outside)))
        walk = sum(count * sum(math.comb(d, i) for i in range(c + 1))
                   for d, count in degrees.items())
        if walk > WALK_BUDGET:
            raise BudgetExceededError(f"type walk needs {walk} cover subsets,"
                                      f" budget is {WALK_BUDGET}")
    met: dict[int, set] = {}  # L -> the subsets offered with L
    for v in outside:
        items, l_mask = nbrs[v], lists[v]
        subsets = [()]
        for r in range(1, min(c, len(items)) + 1):
            subsets += itertools.combinations(items, r)
        seen = met.get(l_mask)
        if seen is None:
            met[l_mask] = set(subsets)
        else:
            subsets = [combo for combo in subsets if combo not in seen]
            seen.update(subsets)
        if subsets:
            yield v, l_mask, subsets


def kernel_marking(inst: Instance, hg: Graph) -> KernelReport:
    """Keep one outside vertex per (cover subset of size <= c_star, list) type.

    The representative for a type is its lowest-index vertex, on which
    `_walk` offers it; it keeps its edges into every subset it represents
    and loses all others.
    """
    validate_instance(inst, hg)
    cover = cover_certificate(inst)
    k = cover.bit_count()
    if 0 in inst.lists:
        return _trivial_no_kernel(inst, "marking", k)
    c = compute_c_star(hg).value
    picks, offered = [], 0  # one pick per vertex: its new subsets, united
    for v, _, new in _walk(inst, cover, c):
        picks.append((mask_of(itertools.chain.from_iterable(new)), v))
        offered += len(new)
    kernel, vmap = _restrict(inst, cover, picks)
    v_out, e_out = kernel.graph.n, kernel.graph.edge_count()
    # a non-empty list and a cover subset of at most c vertices per type
    types = (2 ** hg.n - 1) * sum(math.comb(k, i) for i in range(c + 1))
    bound_ok = v_out <= k + types and e_out <= k * k + c * types
    return _report(inst, kernel, vmap, "marking", c, k, bound_ok, offered,
                   offered)


def _minimal_tuples(adj: tuple[int, ...], full: int, l_mask: int,
                    cands: tuple[tuple[int, ...], ...]) -> tuple:
    """The minimal no-common-neighbor tuples in a non-empty L of the
    product of cands, as one tuple in `itertools.product` order.  The
    depth-first walk skips a proper prefix with no common neighbor in L (an
    extension would have none without its last position); a last color
    must meet each leave-one-out neighborhood of its prefix, a stored
    prefix AND a suffix."""
    last = len(cands) - 1
    prefix = [full] * (last + 1)  # prefix[j]: common neighbors of tup[:j]
    tup, found = [0] * last, []
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
                    found.append((*tup, color))
    return tuple(found)


# minimal tuples depend only on the target, L and the candidate colors: a
# sat-oracle pass looks 6 keys up 9,595 times (49,632 without the width bound)
_minimal_memo = functools.lru_cache(maxsize=32)(_minimal_tuples)


def _poly_rows(red: Instance, hg: Graph, cover: int, c: int,
               cycle_power: tuple[int, int] | None):
    """`kernel_poly`'s rows, picks and tuple count.  A monomial's colors are
    in the reduced lists; a route row drops a degree-1 variable off them.  A
    route tuple is minimal on reduced lists, so its request skips the check.
    r colors have no common neighbor in L only if r * M(L) >= |L|.  Each
    subset's candidate tuples are built afresh; `_minimal_memo` compares
    them by value."""
    h, adj, full = hg.n, hg.adj, hg.full_mask
    routes = [forbid_route(hg, cycle_power, r) for r in range(c + 1)]
    subsets = {}  # cover subset -> mask, size, route, y[u, 0] bits, keys
    widths = {}  # L -> the fewest colors that can have no common nbr in L
    rows, picks, tuples = [], [], 0
    get_list = red.lists.__getitem__
    for v, l_mask, combos in _walk(red, cover, c):
        if l_mask not in widths:  # M(L) = max |L - N(a)| over colors a
            most = max((l_mask & ~a).bit_count() for a in adj)
            widths[l_mask] = -(-l_mask.bit_count() // most) if most else c + 1
        width = widths[l_mask]
        for combo in combos:
            if len(combo) < width:
                continue
            f_lists = tuple(map(get_list, combo))
            cands = tuple(tuple(bit_list(f)) for f in f_lists)
            found = _minimal_memo(adj, full, l_mask, cands)
            if not found:
                continue
            tuples += len(found)
            data = subsets.get(combo)
            if data is None:
                subsets[combo] = data = (mask_of(combo),
                                         math.prod(map(len, cands)),
                                         routes[len(combo)],
                                         [1 << (cover & (1 << u) - 1)
                                          .bit_count() * h for u in combo],
                                         set())
            x_mask, size, route, bits, placed = data
            if not route:
                new = [tup for tup in found if tup not in placed]
                if new:
                    charge(size)
                    placed.update(new)
                    rows += [[sum(map(operator.lshift, bits, tup))]
                             for tup in new]
                    picks += [(x_mask, v)] * len(new)
                continue
            for tup in found:
                canon = construct(ForbidRequest._built(
                    hg, l_mask, f_lists, tuple(range(len(tup))), tup), route)
                if canon.poly in placed:
                    continue
                placed.add(canon.poly)
                rows.append([sum(bits[pos] << color for pos, color in mono)
                             for mono in canon.poly.monomials
                             if len(mono) > 1 or all(f_lists[pos] >> color & 1
                                                     for pos, color in mono)])
                picks.append((x_mask, v))
    return rows, picks, tuples


def kernel_poly(inst: Instance, hg: Graph,
                cycle_power: tuple[int, int] | None = None) -> KernelReport:
    """Polynomial-method kernel.

    After list reduction it takes the types that `_walk` offers over the
    reduced lists, each once on its lowest vertex, and only their minimal
    no-common-neighbor tuples; a non-minimal tuple's row is that of a
    minimal sub-tuple on a smaller subset.  Those depend only on L and the
    subset's lists, so a bounded memo shared across calls holds them
    (`_minimal_memo`); a type with none makes no per-subset data, and one
    narrower than L's width bound has none and is not looked up.  A tuple
    on a route that reads L (`forbid_route`) gets that route's certified
    polynomial (`construct`, with no further shrinking or routing), any
    other its plain monomial, on the type's lowest vertex.  Within a cover
    subset a row's key is its tuple or route polynomial; the first of each
    is packed (`lhom.gf2`: y[u, color] of the i-th cover vertex u is bit
    i * h + color) with its (subset, vertex) pick.  The walk (`_poly_rows`)
    frees its state before a streaming GF(2) basis of the rows picks the
    outside vertices and edges that survive, and `_restrict` keeps them.
    The degree d is read off the packed rows, and `bound_formula_ok` checks
    the kept rows, list rows included, against sum_{i<=d} C(k * h, i).
    """
    red = reduce_lists(inst, hg)
    cover = cover_certificate(inst)
    k = cover.bit_count()
    if 0 in inst.lists:
        return _trivial_no_kernel(inst, "poly", k)
    c = compute_c_star(hg).value
    h = hg.n
    # a color c missing from a cover vertex u's list gives the unit row
    # y[u, c]; the basis would keep all of these ahead of the other rows, so
    # they bypass it, and their degree-1 monomials leave every other row
    n_list = k * h - sum(map(int.bit_count,
                             map(red.lists.__getitem__, bit_list(cover))))
    rows, picks, tuples = _poly_rows(red, hg, cover, c, cycle_power)
    degree = max(map(int.bit_count, itertools.chain.from_iterable(rows)),
                 default=1)  # a list row's, when no row is packed
    kept_idx = extract_basis(rows)
    kernel, vmap = _restrict(red, cover, [picks[i] for i in kept_idx])
    retained = n_list + len(kept_idx)
    rank_bound = sum(math.comb(k * h, i) for i in range(degree + 1))
    return _report(inst, kernel, vmap, "poly", degree, k,
                   retained <= rank_bound, n_list + tuples, retained)


def kernelize(inst: Instance, hg: Graph, method: str,
              cycle_power: tuple[int, int] | None = None) -> KernelReport:
    if method == "marking":
        return kernel_marking(inst, hg)
    if method == "poly":
        return kernel_poly(inst, hg, cycle_power=cycle_power)
    raise ValueError(f"unknown kernel method {method!r}")
