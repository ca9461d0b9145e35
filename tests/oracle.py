"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately naive: literal definition enumeration over
all (list, set) pairs, product-space homomorphism search, truth-table SAT,
evaluation of a forbidding polynomial on every tuple, plain backtracking
over a cover.  None of it shares code paths with the library
implementations it checks, except `extendable_bounded`: it reuses the
solver's cover validation but reaches its answer by a different route.

`reference_search` is the oracle's earlier search, kept as a differential
oracle for `lhom.solver._Search`: it copies the whole candidate list at
every node, rescans every vertex to pick the next one, and counts one node
per assigned vertex or color tried.  It uses nothing from `lhom.solver`.

`reference_kernel_poly` is the polynomial kernel's earlier enumeration,
kept as a differential oracle for `lhom.kernels.kernel_poly`: every
no-common-neighbor tuple of every outside vertex becomes a basis row, with
no minimality check and no de-duplication: it walks every (vertex, subset)
pair, not the kernels' shared first-seen types.  It reuses the library's
`forbid`, `extract_basis`, `reduce_lists`, `compute_c_star` and the
kernels' `_restrict` and `_trivial_no_kernel`.
"""

from __future__ import annotations

import itertools
import math

from lhom.bitset import bit_list, iter_bits, mask_of, popcount
from lhom.errors import BudgetExceededError
from lhom.forbid import DEFAULT_CERT_BUDGET, ForbidRequest, forbid
from lhom.gf2 import Gf2Poly, extract_basis
from lhom.graphs import (Graph, Instance, common_neighbors, cover_certificate,
                         reduce_lists)
from lhom.invariants import compute_c_star
from lhom.kernels import KernelReport, _restrict, _trivial_no_kernel
from lhom.solver import _check_cover_mapping


def brute_common(hg: Graph, s_mask: int, l_mask: int) -> int:
    out = 0
    for a in iter_bits(l_mask):
        if all(hg.adj[a] >> s & 1 for s in iter_bits(s_mask)):
            out |= 1 << a
    return out


def _is_incomparable_mask(hg: Graph, mask: int) -> bool:
    vs = bit_list(mask)
    for a, b in itertools.combinations(vs, 2):
        if not (hg.adj[a] & ~hg.adj[b]) or not (hg.adj[b] & ~hg.adj[a]):
            return False
    return True


def brute_c_star(hg: Graph, incomparable_only: bool = False) -> int:
    """Literal definition: max |S| minimal without a common neighbor in some L."""
    best = 0
    for l_mask in range(1 << hg.n):
        if incomparable_only and not _is_incomparable_mask(hg, l_mask):
            continue
        for s_mask in range(1 << hg.n):
            if brute_common(hg, s_mask, l_mask):
                continue
            minimal = True
            for s in iter_bits(s_mask):
                if not brute_common(hg, s_mask ^ (1 << s), l_mask):
                    minimal = False
                    break
            if minimal:
                best = max(best, bin(s_mask).count("1"))
    return best


def brute_lbs_exists(hg: Graph, d: int, incomparable_only: bool = False) -> bool:
    """Literal definition enumeration over (L, base tuple, primed tuple)."""
    verts = range(hg.n)
    for l_mask in range(1 << hg.n):
        if incomparable_only and not _is_incomparable_mask(hg, l_mask):
            continue
        for xs in itertools.combinations(verts, d):
            if brute_common(hg, mask_of(xs), l_mask):
                continue
            pools = []
            for x in xs:
                pools.append([y for y in verts
                              if (hg.adj[x] & ~hg.adj[y]) and (hg.adj[y] & ~hg.adj[x])])
            for xps in itertools.product(*pools):
                ok = True
                for pattern in range(1, 1 << d):
                    chosen = mask_of(xps[i] if pattern >> i & 1 else xs[i]
                                     for i in range(d))
                    if not brute_common(hg, chosen, l_mask):
                        ok = False
                        break
                if ok:
                    return True
    return False


def brute_certify(req, poly) -> bool:
    """Literal forbidding contract: evaluate on every tuple and stray coloring.

    Vertices of the polynomial outside the request range over all colors.
    """
    extras = sorted({v for m in poly.monomials for v, _ in m} - set(req.verts))
    hg = req.target
    for tup in itertools.product(*[bit_list(f) for f in req.lists]):
        pinned = tup == req.colors
        must_vanish = not pinned and brute_common(hg, mask_of(tup), req.l_mask)
        for extra_tup in itertools.product(range(hg.n), repeat=len(extras)):
            colors = dict(zip(req.verts, tup)) | dict(zip(extras, extra_tup))
            val = 0
            for m in poly.monomials:
                val ^= all(colors[v] == c for v, c in m)
            if pinned and not val or must_vanish and val:
                return False
    return True


def brute_restrictions(inst: Instance, hg: Graph, targets) -> set[tuple[int, ...]]:
    """Product-space scan: restrictions to `targets` of every list
    homomorphism; only for very small instances."""
    out: set[tuple[int, ...]] = set()
    for combo in itertools.product(*[bit_list(mask) for mask in inst.lists]):
        if all(hg.adj[combo[u]] >> combo[v] & 1 for u, v in inst.graph.edges()):
            out.add(tuple(combo[t] for t in targets))
    return out


def brute_decide(inst: Instance, hg: Graph) -> bool:
    """Product-space scan; only for very small instances."""
    pools = [bit_list(mask) for mask in inst.lists]
    if any(not p for p in pools):
        return False
    for combo in itertools.product(*pools):
        if all(hg.adj[combo[u]] >> combo[v] & 1 for u, v in inst.graph.edges()):
            return True
    return False


def exact_min_vertex_cover(g: Graph) -> int:
    edges = [(u, v) for u, v in g.edges()]
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = mask_of(combo)
            if all(mask >> u & 1 or mask >> v & 1 for u, v in edges):
                return size
    return g.n


def brute_sat(nvars: int, clauses: list[list[int]]) -> bool:
    for bits in range(1 << nvars):
        if all(any((bits >> (abs(lit) - 1) & 1) == (lit > 0) for lit in clause)
               for clause in clauses):
            return True
    return False


def random_graph(rng, h: int, edge_num: int = 1, edge_den: int = 2,
                 loop_num: int = 1, loop_den: int = 4) -> Graph:
    """Seeded random graph with loops; rng is any object with below(n)."""
    edges = []
    for u in range(h):
        for v in range(u, h):
            if u == v:
                if rng.below(loop_den) < loop_num:
                    edges.append((u, v))
            elif rng.below(edge_den) < edge_num:
                edges.append((u, v))
    return Graph.from_edges(h, edges)


def extendable_bounded(inst: Instance, hg: Graph, phi: dict[int, int],
                       size_cap: int) -> bool:
    """Extendability via subsets of each outside neighborhood of size <= cap.

    Equivalent to `extendable` whenever the cap is at least the target's
    marking degree; used to exercise that equivalence.
    """
    cover = _check_cover_mapping(inst, hg, phi)
    for v in range(inst.graph.n):
        if cover >> v & 1:
            continue
        nbrs = bit_list(inst.graph.adj[v])
        for r in range(0, min(size_cap, len(nbrs)) + 1):
            for sub in itertools.combinations(nbrs, r):
                allowed = inst.lists[v]
                for u in sub:
                    allowed &= hg.adj[phi[u]]
                if not allowed:
                    return False
    return True


def decide_two_phase(inst: Instance, hg: Graph) -> bool:
    """Try every list coloring of G[X]; accept iff one extends outside X.

    Plain backtracking over the cover vertices in index order, with no
    propagation: a vertex takes a list color adjacent to the colors of its
    already colored cover neighbors.  A full cover coloring extends iff each
    outside vertex keeps a list color adjacent to all its neighbors' colors.
    """
    if inst.cover is None:
        raise ValueError("instance carries no designated cover")
    g = inst.graph
    cover = bit_list(inst.cover)
    outside = [v for v in range(g.n) if not inst.cover >> v & 1]
    phi: dict[int, int] = {}

    def extends() -> bool:
        for v in outside:
            allowed = inst.lists[v]
            for u in iter_bits(g.adj[v]):
                allowed &= hg.adj[phi[u]]
            if not allowed:
                return False
        return True

    def search(i: int) -> bool:
        if i == len(cover):
            return extends()
        v = cover[i]
        for c in iter_bits(inst.lists[v]):
            phi[v] = c
            if all(hg.adj[c] >> phi[u] & 1
                   for u in cover[:i + 1] if g.adj[v] >> u & 1) and search(i + 1):
                return True
        return False

    return search(0)


def reference_search(inst: Instance, hg: Graph, budget: int, on_solution) -> int:
    """The copy-per-frame search; returns the nodes it counted.

    Arc reduction at the start, then depth-first search with one frame per
    assigned vertex: the first unassigned vertex with the fewest candidates,
    its colors in ascending order, each color one node and a full copy of
    the candidate list.  on_solution(assignment) may return True to stop.
    Raises BudgetExceededError at node budget + 1.
    """
    g = inst.graph
    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"search exceeded {budget} nodes")

    def arc_reduce(cand: list[int]) -> list[int] | None:
        queue = set(range(g.n))
        while queue:
            v = queue.pop()
            for u in iter_bits(g.adj[v]):
                if u == v:
                    continue
                support = 0
                for c in iter_bits(cand[v]):
                    support |= hg.adj[c]
                new = cand[u] & support
                if new != cand[u]:
                    cand[u] = new
                    if not new:
                        return None
                    queue.add(u)
        if any(not c for c in cand):
            return None
        return cand

    def propagate(cand: list[int], v: int, color: int) -> list[int] | None:
        cand = cand[:]
        cand[v] = 1 << color
        queue = [v]
        while queue:
            w = queue.pop()
            if popcount(cand[w]) == 1:
                nbr_support = hg.adj[cand[w].bit_length() - 1]
            else:
                nbr_support = 0
                for c in iter_bits(cand[w]):
                    nbr_support |= hg.adj[c]
            for u in iter_bits(g.adj[w]):
                if u == w:
                    continue
                new = cand[u] & nbr_support
                if new != cand[u]:
                    if not new:
                        return None
                    cand[u] = new
                    queue.append(u)
        return cand

    def pick(cand: list[int], assigned: list[bool]) -> int:
        best, best_size = -1, None
        for v in range(g.n):
            if assigned[v]:
                continue
            size = popcount(cand[v])
            if best_size is None or size < best_size:
                best, best_size = v, size
                if size == 1:
                    break
        return best

    def next_branch(stack, assigned) -> list[int] | None:
        while stack:
            v, cand, colors = stack[-1]
            for color in colors:
                tick()
                nxt = propagate(cand, v, color)
                if nxt is not None:
                    return nxt
            assigned[v] = False
            stack.pop()
        return None

    looped = sum(1 << c for c in range(hg.n) if hg.adj[c] >> c & 1)
    cand = arc_reduce([mask & looped if g.adj[v] >> v & 1 else mask
                       for v, mask in enumerate(inst.lists)])
    assigned = [False] * g.n
    stack: list = []
    while cand is not None:
        if len(stack) == g.n:
            if on_solution(tuple(c.bit_length() - 1 for c in cand)):
                break
        else:
            v = pick(cand, assigned)
            assigned[v] = True
            stack.append((v, cand, iter_bits(cand[v])))
        cand = next_branch(stack, assigned)
    return nodes


def reference_kernel_poly(inst: Instance, hg: Graph,
                          cycle_power: tuple[int, int] | None = None,
                          budget: int = DEFAULT_CERT_BUDGET) -> KernelReport:
    """The polynomial kernel with a row for every forbidden tuple.

    Polynomials are cached per (list, lists, tuple) pattern for this call
    only, so the budget applies to every call alike.
    """
    cert = cover_certificate(inst)
    k = cert.size()
    if any(not m for m in inst.lists):
        return _trivial_no_kernel(inst, "poly", k)
    red = reduce_lists(inst, hg)
    cover = cert.cover
    c = compute_c_star(hg).value
    polys: list[Gf2Poly] = []
    meta: list[tuple] = []
    for v in bit_list(cover):
        for color in range(hg.n):
            if not red.lists[v] >> color & 1:
                polys.append(Gf2Poly.variable(v, color))
                meta.append(("list", v, color))
    cache: dict = {}
    for v in range(red.graph.n):
        if cover >> v & 1:
            continue
        l_mask = red.lists[v]
        nbrs = bit_list(red.graph.adj[v])
        for r in range(1, min(c, len(nbrs)) + 1):
            for combo in itertools.combinations(nbrs, r):
                f_lists = tuple(red.lists[u] for u in combo)
                for tup in itertools.product(*[bit_list(f) for f in f_lists]):
                    if common_neighbors(hg, mask_of(tup), l_mask):
                        continue
                    key = (l_mask, f_lists, tup)
                    if key not in cache:
                        req = ForbidRequest(hg, l_mask, f_lists,
                                            tuple(range(r)), tup)
                        cache[key] = forbid(req, cycle_power, budget).poly
                    polys.append(cache[key].remap_vertices(
                        dict(enumerate(combo))))
                    meta.append(("constr", v, combo))
    degree = max((p.degree() for p in polys), default=1)
    kept_idx = extract_basis(polys, m=k * hg.n, d=degree)
    kept_nbrs: dict[int, int] = {}
    for idx in kept_idx:
        if meta[idx][0] == "constr":
            _, v, combo = meta[idx]
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
