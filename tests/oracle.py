"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately naive: literal definition enumeration over
all (list, set) pairs, product-space homomorphism search, truth-table SAT,
evaluation of a forbidding polynomial on every tuple, plain backtracking
over a cover.  None of it shares code paths with the library
implementations it checks.  The witness checks `verify_c_star_witness` and
`verify_lbs`, the exchange check `max_degree_exchange_holds`, the
extension check `extendable`, the edge test `has_edge` and the polynomial
helpers `poly_eval`, `poly_degree` and `poly_mul` (the multilinear product)
live here because only tests call them; `extendable_bounded` reaches
`extendable`'s answer by a different route.

`reference_poly_local` is `lhom.gf2.poly_local` as it was before the block
was listed monomial by monomial: it starts from the polynomial 1 and
multiplies in, by `set_mul`, one parity factor per color, cancelling
repeated monomials as a product over GF(2) does.  It leaves out
`poly_local`'s input checks.

The frozenset form is a polynomial's monomials as frozensets of variables,
the way `Gf2Poly` stored them before its color-ordered tuples; `set_form`
reads a `Gf2Poly` in it.  `set_mul` (behind `poly_mul`),
`reference_block` (the block of `reference_poly_local`),
`reference_block_sum`, `reference_cycle_power_poly` (the
`lhom.forbid._cycle_power_poly` sum over `reference_cycle_power_blocks`,
enumerated by cyclic distance), `reference_remap` (`remap_vertices`) and `reference_str` (the
text of `Gf2Poly.__str__`) build and read that form without `Gf2Poly`.
`reference_linear_sets` gives the color sets whose blocks
`reference_linear_system` sums.

`reference_search` is the oracle's earlier search, kept as a differential
oracle for `lhom.solver._Search`: it copies the whole candidate list at
every node, rescans every vertex to pick the next one, and counts one node
per assigned vertex or color tried.  It uses nothing from `lhom.solver`.

`reference_kernel_poly` is the polynomial kernel's earlier enumeration,
kept as a differential oracle for `lhom.kernels.kernel_poly`: every
no-common-neighbor tuple of every outside vertex becomes a basis row, with
no minimality check and no de-duplication: it walks every (vertex, subset)
pair, not the kernels' shared first-seen types.  Its rows are `Gf2Poly`
polynomials moved onto the vertices by `remap_vertices`, its polynomials
come from `reference_forbid` and its basis from `reference_extract_basis`.
It reuses the library's `reduce_lists`, `compute_c_star` and the kernels'
`_trivial_no_kernel`, and restricts through `reference_restrict`.

`reference_restrict` is the kernels' `_restrict` as it was before it
worked on adjacency masks: it lists every edge of the input, keeps those
inside the cover, adds the kept outside edges and builds the kernel
through `Graph.from_edges`.

`reference_nbrs` is the neighbor lists as `lhom.solver._Search` built
them before `Graph.nbrs`: one walk over the bits above each vertex,
appending each neighbor found to both ends, but reading every binary digit
of the mask instead of jumping to the next set bit.
`reference_greedy_cover` is `greedy_vertex_cover` as it was before it read
`Graph.loops` and `Graph.nbrs`: a shift of each vertex's mask for its loop,
then a maximal matching over `Graph.edges()`.

`reference_types` is the kernels' type walk as it was before
`lhom.kernels._walk` kept the types it had offered: every outside vertex,
every subset of at most c of its cover neighbors by size and in
`itertools.combinations` order, into a dict from (subset mask, list) to
the first vertex met.  `_walk` offers exactly these, once each, in the
dict's order and on their vertices.

`reference_minimal_tuples` is the kernels' constraint walk as it was
before `lhom.kernels._minimal_tuples` pruned it: the whole
`itertools.product` of the candidate lists, each tuple kept when it has no
common neighbor in L and every leave-one-out tuple has one, read off the
ANDs of a prefix and a suffix of the colors' neighborhoods.

`reference_forbid` is `lhom.forbid.forbid` as it was before certification
by construction and by a per-polynomial table: every polynomial, the plain
monomial included, is certified by `reference_certify_forbid` on its own
request.  That is `certify_forbid` before the table: a scan of the
request's own product, which reads no memo.  `reference_table` is
`lhom.forbid._table` as it was before the boxes of N(w)^r were kept per
target and width: every table builds them again, one per color.  Both
share the oracle's own zeta transform (`_values`) and box (`_box`).  `reference_forbid`
shrinks the request to its minimal subsequence itself and builds the same
polynomials from the library's blocks (`cycle_frame`, `_cycle_power_poly`,
`poly_local`) and from `reference_linear_system`.

`reference_shadow_solution` is the shadow system as `forbid_linear_system`
and `degree_probe` each built it before `lhom.gf2.shadow_solution`: its
caller's zero sets, filtered from every r-set of colors rather than read off
the neighborhoods of L's colors, its own column index, every row's colors
sorted, then
`reference_solve_linear_system`, which is `lhom.gf2.solve_linear_system` as
it was before it shared `extract_basis`'s reduction step: a separate
right-hand-side list, and back-substitution bit by bit.
`reference_linear_system` is `forbid_linear_system` on it, and scans
every polynomial it returns.
`reference_extract_basis` is `extract_basis` on `Gf2Poly` rows as it was
before it numbered its columns from the sparsest rows: a column per
distinct monomial in first-seen order, and the degree check and
dimension assertion that its `d` and `m` fed.

`reference_dominant_subset` is `lhom.graphs.dominant_subset` as it was
before it read dominance off common neighbours: every member against every
other, one pair at a time.  `_is_incomparable_mask` is the same pairwise
test for `is_incomparable_set`.

`reference_automorphism_generators` is
`lhom.invariants.automorphism_generators` as it was before its search kept
an explicit stack: `extend` recursed once per mapped vertex, so a target of
about 1,000 colors overflowed Python's default recursion limit.  It is not
cached, and takes the candidate-image budget as an argument.

`reference_all_essential_sets` is `lhom.invariants.all_essential_sets` as
it was before its DFS carried each prefix's neighborhoods: every candidate
set is tested from scratch, one `common_neighbors` call per member.

`reference_find_lbs` is `lhom.invariants.find_lbs` as it was before it
used the automorphisms of H: every all-essential base set is searched in
full, and a replacement pattern is dropped only once its common neighborhood is empty
(outside W(base) at the last position).  `reference_d_star` is
`compute_d_star` on it.  `reference_degree_probe` is `degree_probe` on
`reference_d_star` and the reference shadow system: it solves every case
and filters every c_star-set of colors.

`reference_default_list` is the candidate list that `lhom forbid` gives a
tuple color when no `--lists` are passed, as the CLI built it before it
tested each new color against the kept colors only: every trial list is
tested as a whole set, all of its pairs again.

`reference_gen_instance` is `lhom.generators.gen_instance` as it was before
it drew its stream in blocks: one `SplitMix64` call per plant color, coin
and list, an edge list tested coin by coin against the planted colors,
and the checked `Instance` over `Graph.from_edges`.  `reference_edges` is
`Graph.edges()` read off each row's binary digits, a loop included.

`dataclass_twin` is an lhom record as it was made before
`lhom.graphs.record`: a `dataclasses.dataclass(frozen=True)` class with
the record's name, field names, defaults and other methods.  `replaced`
is `dataclasses.replace` on a record: its fields with `changes` applied,
rebuilt through the checked constructor.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Sequence

from lhom.bitset import bit_list, iter_bits, mask_of
from lhom.errors import BudgetExceededError, CertificationError
from lhom.forbid import (CERT_BUDGET, ForbidRequest, ForbidResult,
                         _cycle_power_poly)
from lhom.generators import SplitMix64
from lhom.gf2 import Gf2Poly, poly_local
from lhom.graphs import (Graph, Instance, common_neighbors, cover_certificate,
                         incomparable, reduce_lists)
from lhom.invariants import (_AUT_NODE_BUDGET, CStarWitness,
                             LowerBoundStructure, _image, _is_cycle_power,
                             _orbit, all_essential_sets, compute_c_star,
                             compute_d_star, cycle_frame)
from lhom.kernels import KernelReport, _trivial_no_kernel


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u] >> v & 1)


ONE = Gf2Poly(frozenset({frozenset()}))


def poly_degree(poly: Gf2Poly) -> int:
    """The largest monomial size; 0 for the zero polynomial."""
    return max((len(m) for m in poly.monomials), default=0)


def set_mul(a, b) -> frozenset:
    """The multilinear product of two polynomials given as their monomials,
    in the frozenset form: y * y = y, and a monomial met twice cancels."""
    acc: set = set()
    for m1 in a:
        for m2 in b:
            m = frozenset(m1) | frozenset(m2)
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
    return frozenset(acc)


def poly_mul(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """The multilinear product, taken in the frozenset form."""
    return Gf2Poly(set_mul(a.monomials, b.monomials))


def set_form(poly: Gf2Poly) -> frozenset:
    """poly's monomials as frozensets of variables."""
    return frozenset(map(frozenset, poly.monomials))


def reference_block(colors, verts) -> frozenset:
    """`poly_local`'s block in the frozenset form, as a product: one parity
    factor per color of S."""
    acc = frozenset({frozenset()})
    for c in sorted(set(colors)):
        acc = set_mul(acc, {frozenset({(v, c)}) for v in verts})
    return acc


def reference_poly_local(colors, verts) -> Gf2Poly:
    """`poly_local` as a product: one parity factor per color of S."""
    return Gf2Poly(reference_block(colors, verts))


def reference_block_sum(color_sets, verts) -> frozenset:
    """The sum of the frozenset-form blocks on the given color sets."""
    acc: set = set()
    for colors in color_sets:
        acc ^= reference_block(colors, verts)
    return frozenset(acc)


def reference_cycle_power_blocks(k: int, p: int) -> list[set[int]]:
    """The color sets {i, j, ..., j+p-2} over anchors i, j at cyclic
    distance 2..2p, j moving away from i."""
    dist = [min(d, k - d) for d in range(k)]
    return [{i} | {(j + t) % k for t in range(p - 1)}
            for i in range(k) for j in range(k)
            if 2 <= dist[(j - i) % k] <= 2 * p
            and dist[(j - i) % k] < dist[(j + 1 - i) % k]]


def reference_cycle_power_poly(k: int, p: int, verts) -> frozenset:
    """`lhom.forbid._cycle_power_poly` in the frozenset form."""
    return reference_block_sum(reference_cycle_power_blocks(k, p), verts)


def reference_remap(monomials, mapping) -> frozenset:
    """`Gf2Poly.remap_vertices` in the frozenset form."""
    acc: set = set()
    for m in monomials:
        acc ^= {frozenset((mapping[v], c) for v, c in m)}
    return frozenset(acc)


def reference_str(monomials) -> str:
    """`Gf2Poly.__str__` on the frozenset form: monomials by size, then by
    their sorted variables; 1 for the empty monomial, 0 for none."""
    keys = sorted((len(m), sorted(m)) for m in monomials)
    return " + ".join("*".join(f"y[{v},{c}]" for v, c in pairs) or "1"
                      for _, pairs in keys) or "0"


def poly_eval(poly: Gf2Poly, colors: dict[int, int]) -> int:
    """`poly` on the choice assignment coloring each vertex as given."""
    acc = 0
    for m in poly.monomials:
        for v, c in m:
            if v not in colors:
                raise ValueError(f"variable for vertex {v} is unassigned")
            if colors[v] != c:
                break
        else:
            acc ^= 1
    return acc


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


def reference_dominant_subset(hg: Graph, mask: int) -> int:
    """`dominant_subset` as a nested loop: each member is tested against
    every other member of the set, one pair at a time."""
    keep = 0
    for x in iter_bits(mask):
        nx = hg.adj[x]
        dominated = False
        for y in iter_bits(mask):
            if y == x:
                continue
            ny = hg.adj[y]
            if nx & ~ny:
                continue
            if nx != ny or y < x:
                dominated = True
                break
        if not dominated:
            keep |= 1 << x
    return keep


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


def verify_c_star_witness(hg: Graph, w: CStarWitness) -> bool:
    if w.s_mask.bit_count() != w.value:
        return False
    if common_neighbors(hg, w.s_mask, w.l_mask):
        return False
    for v in iter_bits(w.s_mask):
        if not common_neighbors(hg, w.s_mask ^ (1 << v), w.l_mask):
            return False
    return True


def verify_lbs(hg: Graph, lbs: LowerBoundStructure) -> bool:
    d = lbs.order
    if len(lbs.xs) != d or len(lbs.xps) != d or len(set(lbs.xs)) != d:
        return False
    for x, xp in zip(lbs.xs, lbs.xps):
        if not incomparable(hg, x, xp):
            return False
    if common_neighbors(hg, mask_of(lbs.xs), lbs.l_mask):
        return False
    for pattern in range(1, 1 << d):
        chosen = mask_of(lbs.xps[i] if pattern >> i & 1 else lbs.xs[i]
                         for i in range(d))
        if not common_neighbors(hg, chosen, lbs.l_mask):
            return False
    return True


def max_degree_exchange_holds(hg: Graph) -> bool:
    """Check the exchange property of maximum-degree neighborhoods.

    For every vertex v of maximum degree there must be some u in N(v) such
    that any v' whose neighborhood covers N(v) - u has N(v') inside N(v).
    Expected to hold whenever d_star + 1 = c_star = max degree.
    """
    delta = hg.max_degree()
    for v in range(hg.n):
        if hg.degree(v) != delta:
            continue
        s_mask = hg.adj[v]
        ok = False
        for u in iter_bits(s_mask):
            need = s_mask ^ (1 << u)
            good = True
            for vp in range(hg.n):
                if need & ~hg.adj[vp]:
                    continue
                if hg.adj[vp] & ~s_mask:
                    good = False
                    break
            if good:
                ok = True
                break
        if not ok:
            return False
    return True


def _check_cover_mapping(inst: Instance, hg: Graph, phi: dict[int, int]) -> int:
    if inst.cover is None:
        raise ValueError("instance carries no designated cover")
    cover = inst.cover
    for v in iter_bits(cover):
        if v not in phi:
            raise ValueError(f"cover vertex {v} unassigned")
        if not inst.lists[v] >> phi[v] & 1:
            raise ValueError(f"phi violates the list of {v}")
        for u in iter_bits(inst.graph.adj[v] & cover):
            if u < v:
                continue
            if not hg.adj[phi[v]] >> phi[u] & 1:
                raise ValueError(f"phi violates edge ({v}, {u})")
    return cover


def extendable(inst: Instance, hg: Graph, phi: dict[int, int]) -> bool:
    """Can a cover coloring be completed on the outside independent set?

    True iff every vertex outside the cover keeps a list color adjacent to
    all of its (cover) neighbors' images.
    """
    cover = _check_cover_mapping(inst, hg, phi)
    for v in range(inst.graph.n):
        if cover >> v & 1:
            continue
        allowed = inst.lists[v]
        for u in iter_bits(inst.graph.adj[v]):
            allowed &= hg.adj[phi[u]]
            if not allowed:
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
            if cand[w].bit_count() == 1:
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
            size = cand[v].bit_count()
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


def packed_rows(polys) -> list[list[int]]:
    """`Gf2Poly` rows in `extract_basis`'s packed form.

    The i-th smallest variable over all the rows becomes bit i.
    """
    variables = sorted({var for p in polys for mono in p.monomials
                        for var in mono})
    bit = {var: 1 << i for i, var in enumerate(variables)}
    return [[sum(bit[var] for var in mono) for mono in p.monomials]
            for p in polys]


def reference_extract_basis(polys, m: int, d: int) -> list[int]:
    """The streaming basis on `Gf2Poly` rows, one column per monomial."""
    col_index: dict = {}
    pivots: dict[int, int] = {}
    kept: list[int] = []
    for idx, poly in enumerate(polys):
        if poly_degree(poly) > d:
            raise ValueError(f"polynomial {idx} exceeds degree bound {d}")
        row = 0
        for mono in poly.monomials:
            pos = col_index.setdefault(mono, len(col_index))
            row |= 1 << pos
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                break
            row ^= pivots[top]
        if row:
            pivots[row.bit_length() - 1] = row
            kept.append(idx)
    bound = sum(math.comb(m, i) for i in range(d + 1))
    if len(kept) > bound:
        raise AssertionError("basis exceeded the degree-d dimension bound")
    return kept


def reference_certify_forbid(req: ForbidRequest, poly: Gf2Poly,
                             budget: int = CERT_BUDGET) -> bool:
    """Exhaustively check the forbidding contract over the candidate product.

    Each tuple of the product is one bit of an int.  Its positions are the
    request's vertices, then the polynomial's stray vertices, which take
    every color of the target; a position adds its color's rank in its list
    times a mixed-radix stride, so no int is longer than the budget.  A
    monomial is 1 on every tuple that extends it: its bit is broadcast over
    each free position by a multiplication with that position's repunit,
    which never carries.  The forbidden tuple must be odd under every stray
    coloring, and no other odd tuple may have all its colors adjacent to
    one w in L.
    """
    variables = frozenset().union(*poly.monomials)
    extras = sorted({v for v, _ in variables} - set(req.verts))
    lists = req.lists + (req.target.full_mask,) * len(extras)
    strides = []
    size = 1
    for f in lists:
        strides.append(size)
        size *= f.bit_count()
    if size > budget:
        raise BudgetExceededError(
            f"certification needs {size} evaluations, budget is {budget}")
    parity = _values(poly, variables, req.verts + tuple(extras), lists,
                     strides)
    strays = 1
    for s in strides[req.width:]:
        strays *= _repunit(req.target.n, s)
    pinned = strays << sum(_rank(f, c) * s for f, c, s
                           in zip(req.lists, req.colors, strides))
    if parity & pinned != pinned:
        return False
    rest = parity ^ pinned
    if not rest:
        return True
    adj = req.target.adj
    return not any(rest & _box(adj[w], req.lists, strides, strays)
                   for w in iter_bits(req.l_mask))


def reference_table(target: Graph, verts: tuple[int, ...],
                    poly: Gf2Poly) -> tuple[int, int] | None:
    """`lhom.forbid._table` as it was before the boxes were kept per target
    and width: each table builds the box of N(w)^r for every color w again.
    poly's values on all of V(H)^r (color c at position i adds c * h^i to a
    tuple's bit index) and the mask of colors w where poly is 1 somewhere
    on N(w)^r; None when poly has a vertex outside verts."""
    variables = frozenset().union(*poly.monomials)
    if not {v for v, _ in variables} <= set(verts):
        return None
    lists = (target.full_mask,) * len(verts)
    strides = [target.n ** i for i in range(len(verts))]
    values = _values(poly, variables, verts, lists, strides)
    marked = 0
    for w in range(target.n):
        if values & _box(target.adj[w], lists, strides, 1):
            marked |= 1 << w
    return values, marked


def _values(poly, variables, verts, lists, strides) -> int:
    """poly's values on the product of lists, one bit per tuple: position i
    holds verts[i] and adds its color's rank in lists[i] times strides[i]."""
    pos = {v: i for i, v in enumerate(verts)}
    at = {}  # variable on its list -> (its position's bit, its offset)
    for v, c in variables:
        i = pos[v]
        if lists[i] >> c & 1:
            at[v, c] = 1 << i, _rank(lists[i], c) * strides[i]
    groups: dict[int, int] = {}  # fixed positions -> XOR of monomial bits
    for mono in poly.monomials:
        support = offset = 0
        for var in mono:
            hit = at.get(var)
            if hit is None or support & hit[0]:
                break  # off the list, or two colors on one vertex: always 0
            support |= hit[0]
            offset += hit[1]
        else:
            groups[support] = groups.get(support, 0) ^ 1 << offset
    for i, (f, s) in enumerate(zip(lists, strides)):  # the zeta transform
        bit = 1 << i
        unfixed = [k for k in groups if not k & bit]
        if unfixed:
            rep = _repunit(f.bit_count(), s)
            for k in unfixed:
                groups[k | bit] = groups.get(k | bit, 0) ^ groups.pop(k) * rep
    return groups.get((1 << len(lists)) - 1, 0)


def _box(near: int, lists, strides, box: int) -> int:
    """box times the tuples of the product of lists with every color in
    near, or 0 when some position has none."""
    for f, s in zip(lists, strides):
        spread = 0
        for c in iter_bits(near & f):
            spread |= 1 << _rank(f, c) * s
        if not spread:
            return 0
        box *= spread
    return box


def _rank(f: int, c: int) -> int:
    """Index of color c among the colors of list f."""
    return (f & ((1 << c) - 1)).bit_count()


def _repunit(m: int, s: int) -> int:
    """The int with bits 0, s, 2s, ..., (m-1)s set."""
    rep, k = 1, 1
    while k < m:
        rep |= rep << k * s
        k *= 2
    return rep & ((1 << m * s) - 1)


def _scan_certified(req, poly, method, budget) -> ForbidResult:
    if not reference_certify_forbid(req, poly, budget):
        raise CertificationError(
            f"{method} construction failed certification for tuple {req.colors}")
    return ForbidResult(poly, poly_degree(poly), method)


def reference_minimal_subrequest(req: ForbidRequest) -> ForbidRequest:
    """`minimal_subrequest` built through the checked constructor."""
    kept = list(range(req.width))  # the minimal subsequence, high first
    for pos in reversed(range(req.width)):
        if len(kept) == 1:
            break
        trial = [i for i in kept if i != pos]
        if not common_neighbors(req.target,
                                mask_of(req.colors[i] for i in trial),
                                req.l_mask):
            kept = trial
    if len(kept) == req.width:
        return req
    return ForbidRequest(req.target, req.l_mask,
                         tuple(req.lists[i] for i in kept),
                         tuple(req.verts[i] for i in kept),
                         tuple(req.colors[i] for i in kept))


def reference_forbid(req: ForbidRequest,
                     cycle_power: tuple[int, int] | None = None,
                     budget: int = CERT_BUDGET) -> ForbidResult:
    """`forbid` with every polynomial scanned on its own request."""
    hg = req.target
    sub = reference_minimal_subrequest(req)
    if cycle_power is not None:
        k, p = cycle_power
        if (p >= 2 and k > 6 * p and sub.width == p + 1
                and _is_cycle_power(hg, k, p)):
            if len(set(sub.colors)) != p + 1:
                raise ValueError("tuple must use p + 1 distinct colors")
            return _scan_certified(sub, _cycle_power_poly(k, p, sub.verts),
                                   "cycle-power", budget)
    monomial = Gf2Poly.product_of_vars(zip(sub.verts, sub.colors))
    frame = cycle_frame(hg)
    if hg.n == 6 and sub.width <= 3 and frame is not None:
        if sub.width <= 2:
            return _scan_certified(sub, monomial, "monomial", budget)
        pos = {v: i for i, v in enumerate(frame)}
        s_set = set(sub.colors)
        if s_set not in ({frame[0], frame[2], frame[4]},
                         {frame[1], frame[3], frame[5]}):
            raise ValueError(
                f"tuple {sub.colors} is not a parity class of the cycle; "
                "only minimal no-common-neighbor triples can be forbidden here")
        poly = Gf2Poly.sum_of(
            poly_local(pair, sub.verts, 6)
            for pair in itertools.combinations(sorted(s_set, key=pos.get), 2))
        return _scan_certified(sub, poly, "c6", budget)
    d_star, _ = compute_d_star(hg)
    if sub.width == d_star + 1 and d_star >= 1 and \
            len(set(sub.colors)) == sub.width:
        result = reference_linear_system(sub, budget)
        if result is not None:
            return result
    return _scan_certified(sub, monomial, "monomial", budget)


def reference_solve_linear_system(rows: Sequence[int], rhs: Sequence[int],
                                  n_cols: int) -> list[int] | None:
    """One solution of the GF(2) system, or None when inconsistent.

    Rows are column bit masks; free variables are set to 0.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    work = [(row, int(b) & 1) for row, b in zip(rows, rhs)]
    pivots: dict[int, tuple[int, int]] = {}
    for row, b in work:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                break
            prow, pb = pivots[top]
            row ^= prow
            b ^= pb
        if row:
            pivots[row.bit_length() - 1] = (row, b)
        elif b:
            return None
    solution = [0] * n_cols
    # each stored row's pivot is its top bit, so ascending order finalizes
    # every lower column (free or pivot) before it is read
    for col in sorted(pivots):
        row, b = pivots[col]
        acc = b
        rest = row & ~(1 << col)
        while rest:
            low = rest & -rest
            rest ^= low
            acc ^= solution[low.bit_length() - 1]
        solution[col] = acc
    return solution


def reference_shadow_solution(n: int, d: int, zero_sets, one_set):
    """The d-sets with coefficient 1, or None when the system is inconsistent."""
    columns = list(itertools.combinations(range(n), d))
    col_index = {s: i for i, s in enumerate(columns)}

    def shadow_row(colors) -> int:
        row = 0
        for sub in itertools.combinations(sorted(colors), d):
            row |= 1 << col_index[sub]
        return row

    rows, rhs = [], []
    for combo in zero_sets:
        rows.append(shadow_row(combo))
        rhs.append(0)
    rows.append(shadow_row(one_set))
    rhs.append(1)
    sol = reference_solve_linear_system(rows, rhs, len(columns))
    if sol is None:
        return None
    return [columns[j] for j, bit in enumerate(sol) if bit]


def reference_linear_system(req: ForbidRequest, budget: int = CERT_BUDGET
                            ) -> ForbidResult | None:
    """`forbid_linear_system` on the reference shadow system."""
    sets = reference_linear_sets(req)
    if sets is None:
        return None
    poly = Gf2Poly.sum_of(poly_local(s, req.verts, req.target.n) for s in sets)
    return _scan_certified(req, poly, "linear-system", budget)


def reference_linear_sets(req: ForbidRequest) -> list | None:
    """The color sets of the blocks that the reference shadow system sums,
    or None when it is inconsistent."""
    r = req.width
    if r < 2:
        raise ValueError("width must be at least 2")
    if len(set(req.colors)) != r:
        raise ValueError("tuple colors must be distinct")
    hg = req.target
    union = 0
    for f in req.lists:
        union |= f
    zero_sets = []
    for combo in itertools.combinations(bit_list(union), r):
        if not common_neighbors(hg, mask_of(combo), req.l_mask):
            continue
        if any(all(req.lists[i] >> c & 1 for i, c in enumerate(perm))
               for perm in itertools.permutations(combo)):
            zero_sets.append(combo)
    return reference_shadow_solution(hg.n, r - 1, zero_sets, req.colors)


def reference_all_essential_sets(hg: Graph) -> tuple[int, ...]:
    """`all_essential_sets` with each candidate set filtered from scratch."""
    out: list[int] = []

    def all_essential(s_mask: int) -> bool:
        w = common_neighbors(hg, s_mask, hg.full_mask)
        return all(common_neighbors(hg, s_mask ^ 1 << v, hg.full_mask) & ~w
                   for v in iter_bits(s_mask))

    def dfs(s_mask: int, start: int) -> None:
        out.append(s_mask)
        for v in range(start, hg.n):
            if all_essential(s_mask | 1 << v):
                dfs(s_mask | 1 << v, v + 1)

    dfs(0, 0)
    return tuple(out)


def reference_automorphism_generators(hg: Graph, budget: int = _AUT_NODE_BUDGET
                                       ) -> tuple[tuple[int, ...], ...]:
    """`automorphism_generators` with its extend recursing once per mapped
    vertex, uncached; budget is its candidate-image budget."""
    n, adj = hg.n, hg.adj
    sig = [(a.bit_count(), a >> v & 1) for v, a in enumerate(adj)]
    same = [mask_of(u for u in range(n) if sig[u] == sig[v]) for v in range(n)]
    gens: list[tuple[int, ...]] = []

    def candidates(f: list[int], used: int, order: list[int], pos: int):
        j = order[pos]
        cand = same[j] & ~used
        for a in order[:pos]:
            cand &= adj[f[a]] if adj[j] >> a & 1 else ~adj[f[a]]
        return cand

    def extend(f: list[int], used: int, order: list[int], pos: int):
        nonlocal budget
        if pos == n:
            perm = tuple(f)
            ok = all(adj[perm[v]] == _image(perm, adj[v]) for v in range(n))
            return perm if ok else None
        for u in iter_bits(candidates(f, used, order, pos)):
            if not budget:
                return None
            budget -= 1
            f[order[pos]] = u
            found = extend(f, used | 1 << u, order, pos + 1)
            if found is not None:
                return found
        return None

    for i in range(n - 2, -1, -1):
        fixed = (1 << i) - 1
        # the rest in an order that maps the most-constrained vertex next
        order, mapped = list(range(i + 1)), fixed | 1 << i
        while len(order) < n:
            nxt = max((u for u in range(n) if not mapped >> u & 1),
                      key=lambda u: (adj[u] & mapped).bit_count())
            order.append(nxt)
            mapped |= 1 << nxt
        stabilizer = tuple(gens)  # all of them fix 0..i
        known = _orbit(1 << i, gens)  # one-vertex sets
        f = list(range(n))
        for v in iter_bits(candidates(f, fixed, order, i)):
            if 1 << v in known:
                continue
            f[i] = v
            g = extend(f, fixed | 1 << v, order, i + 1)
            if g is not None:
                gens.append(g)
                known |= _orbit(1 << i, gens)
            elif not budget:
                return tuple(gens)
            else:
                known |= _orbit(1 << v, stabilizer)
    return tuple(gens)


def reference_find_lbs(hg: Graph, d: int) -> LowerBoundStructure | None:
    """`find_lbs` without automorphisms: every base set searched in full."""
    if d < 1:
        raise ValueError("order must be at least 1")
    if d > hg.n:
        return None
    for s_mask in all_essential_sets(hg):
        if s_mask.bit_count() != d:
            continue
        xs = bit_list(s_mask)
        w_base = common_neighbors(hg, s_mask, hg.full_mask)

        def dfs(pos: int, pats: dict[int, int], xps: list[int]):
            if pos == d:
                l_mask = 0
                for m, w in pats.items():
                    if m:
                        l_mask |= w & ~w_base
                return LowerBoundStructure(d, l_mask, tuple(xs), tuple(xps))
            n_plain = hg.adj[xs[pos]]
            for xp in range(hg.n):
                if xp == xs[pos] or not incomparable(hg, xs[pos], xp):
                    continue
                n_primed = hg.adj[xp]
                nxt: dict[int, int] = {}
                ok = True
                last = pos == d - 1
                for m, w in pats.items():
                    for mm, ww in ((m, w & n_plain), (m | 1 << pos, w & n_primed)):
                        if mm:
                            if last:
                                if not ww & ~w_base:
                                    ok = False
                                    break
                            elif not ww:
                                ok = False
                                break
                        nxt[mm] = ww
                    if not ok:
                        break
                if ok:
                    res = dfs(pos + 1, nxt, xps + [xp])
                    if res is not None:
                        return res
            return None

        found = dfs(0, {0: hg.full_mask}, [])
        if found is not None:
            return found
    return None


@functools.lru_cache(maxsize=64)
def reference_d_star(hg: Graph) -> tuple[int, LowerBoundStructure | None]:
    """`compute_d_star` on `reference_find_lbs`."""
    c = compute_c_star(hg).value
    for d in (c, c - 1):
        if d >= 1:
            lbs = reference_find_lbs(hg, d)
            if lbs is not None:
                return d, lbs
    if c > 1:
        raise RuntimeError("no lower bound structure of order c_star or "
                           "c_star - 1")
    return 0, None


def reference_degree_probe(hg: Graph) -> dict:
    """`degree_probe` on `reference_d_star` and the reference shadow system,
    solving every case and filtering every c_star-set of colors."""
    c = compute_c_star(hg).value
    d, _ = reference_d_star(hg)
    report: dict = {"c_star": c, "d_star": d, "cases": [], "all_ok": True}
    if c == d or c < 2:
        return report
    for s_mask in all_essential_sets(hg):
        if s_mask.bit_count() != c:
            continue
        l_star = hg.full_mask & ~common_neighbors(hg, s_mask, hg.full_mask)
        zero_sets = [combo for combo in itertools.combinations(range(hg.n), c)
                     if common_neighbors(hg, mask_of(combo), l_star)]
        sol = reference_shadow_solution(hg.n, d, zero_sets, bit_list(s_mask))
        report["cases"].append({"s0": bit_list(s_mask),
                                "solvable": sol is not None})
        if sol is None:
            report["all_ok"] = False
    return report


def reference_restrict(inst: Instance, cover: int, kept_nbrs: dict[int, int]
                       ) -> tuple[Instance, tuple[int, ...]]:
    """G[cover] plus each kept outside vertex's kept edges, from the edge list."""
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


def reference_nbrs(g: Graph) -> list[list[int]]:
    """Each vertex's neighbors, ascending, without the vertex itself."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for v, mask in enumerate(g.adj):
        digits = bin(mask)[:1:-1]  # digit u is bit u of the mask
        for u in range(v + 1, len(digits)):
            if digits[u] == "1":
                nbrs[v].append(u)
                nbrs[u].append(v)
    return nbrs


def reference_greedy_cover(g: Graph) -> int:
    """Looped vertices, then the ends of a maximal matching in edge order."""
    cover = 0
    for v in range(g.n):
        if g.adj[v] >> v & 1:
            cover |= 1 << v
    for v, u in g.edges():
        if v != u and not (cover >> v & 1 or cover >> u & 1):
            cover |= 1 << v | 1 << u
    return cover


def reference_types(inst: Instance, cover: int, c: int
                    ) -> dict[tuple[int, int], int]:
    """(cover subset mask, list) type -> its lowest outside vertex, in
    first-seen order: what `lhom.kernels._walk` offers, each type once."""
    types: dict[tuple[int, int], int] = {}
    for v in range(inst.graph.n):
        if cover >> v & 1:
            continue
        nbrs = bit_list(inst.graph.adj[v])
        for r in range(0, min(c, len(nbrs)) + 1):
            for combo in itertools.combinations(nbrs, r):
                types.setdefault((mask_of(combo), inst.lists[v]), v)
    return types


def reference_minimal_tuples(adj: tuple[int, ...], full: int, l_mask: int,
                             cands) -> list[tuple[int, ...]]:
    """Every tuple of the product of cands that is a minimal
    no-common-neighbor tuple in L, in product order."""
    out = []
    for colors in itertools.product(*cands):
        prefix = [full]
        for color in colors:
            prefix.append(prefix[-1] & adj[color])
        if prefix[-1] & l_mask:
            continue
        suffix = l_mask
        for i in reversed(range(len(colors))):
            if not prefix[i] & suffix:
                break
            suffix &= adj[colors[i]]
        else:
            out.append(colors)
    return out


def reference_kernel_poly(inst: Instance, hg: Graph,
                          cycle_power: tuple[int, int] | None = None,
                          budget: int = CERT_BUDGET) -> KernelReport:
    """The polynomial kernel with a row for every forbidden tuple.

    Polynomials are cached per (list, lists, tuple) pattern for this call
    only, so the budget applies to every call alike.
    """
    cover = cover_certificate(inst)
    k = cover.bit_count()
    if any(not m for m in inst.lists):
        return _trivial_no_kernel(inst, "poly", k)
    red = reduce_lists(inst, hg)
    c = compute_c_star(hg).value
    polys: list[Gf2Poly] = []
    meta: list[tuple] = []
    for v in bit_list(cover):
        for color in range(hg.n):
            if not red.lists[v] >> color & 1:
                polys.append(Gf2Poly.product_of_vars([(v, color)]))
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
                        cache[key] = reference_forbid(req, cycle_power,
                                                      budget).poly
                    polys.append(cache[key].remap_vertices(
                        dict(enumerate(combo))))
                    meta.append(("constr", v, combo))
    degree = max(map(poly_degree, polys), default=1)
    kept_idx = reference_extract_basis(polys, m=k * hg.n, d=degree)
    kept_nbrs: dict[int, int] = {}
    for idx in kept_idx:
        if meta[idx][0] == "constr":
            _, v, combo = meta[idx]
            kept_nbrs[v] = kept_nbrs.get(v, 0) | mask_of(combo)
    kernel, vmap = reference_restrict(red, cover, kept_nbrs)
    retained = len(kept_idx)
    rank_bound = sum(math.comb(k * hg.n, i) for i in range(degree + 1))
    return KernelReport(
        kernel=kernel, method="poly", degree_used=degree,
        vertices_in=inst.graph.n, edges_in=inst.graph.edge_count(),
        vertices_out=kernel.graph.n, edges_out=kernel.graph.edge_count(),
        bound_k=k, bound_formula_ok=retained <= rank_bound, vertex_map=vmap,
        constraints_total=len(polys), constraints_retained=retained)


def reference_default_list(hg: Graph, color: int) -> int:
    """color, then each other color whose addition keeps the list pairwise
    incomparable, the whole trial list tested each time."""
    mask = 1 << color
    for v in range(hg.n):
        if v == color:
            continue
        trial = mask | 1 << v
        if all(incomparable(hg, a, b)
               for a, b in itertools.combinations(bit_list(trial), 2)):
            mask = trial
    return mask


def reference_gen_instance(hg: Graph, n: int, k: int, seed: int,
                           mode: str = "random") -> Instance:
    """Planted cover 0..k-1, coins for its edges, a uniform nonempty list
    per vertex; planted-yes keeps only edges and lists a drawn coloring
    allows."""
    if not 0 <= k <= n:
        raise ValueError("cover size must be between 0 and n")
    if mode not in ("random", "planted-yes"):
        raise ValueError(f"unknown mode {mode!r}")
    if n and not hg.n:
        raise ValueError("target graph must have at least one vertex")
    rng = SplitMix64(seed)
    h = hg.n
    plant = None
    if mode == "planted-yes":
        plant = [rng.below(h) for _ in range(n)]
    edges = []
    for u in range(k):
        for v in range(u + 1, n):
            if rng.chance(1, 2):
                if plant is not None and not hg.adj[plant[u]] >> plant[v] & 1:
                    continue
                edges.append((u, v))
    lists = []
    full = (1 << h) - 1
    for v in range(n):
        mask = rng.below(full) + 1
        if plant is not None:
            mask |= 1 << plant[v]
        lists.append(mask)
    cover = (1 << k) - 1
    return Instance(Graph.from_edges(n, edges), tuple(lists), cover)


def reference_edges(g: Graph) -> list[tuple[int, int]]:
    """(v, u) for each set digit u >= v of each row's `bin`, row by row."""
    return [(v, u) for v, a in enumerate(g.adj)
            for u, digit in enumerate(reversed(bin(a)[2:]))
            if digit == "1" and u >= v]


# what `record` sets on a class, and the descriptors `type` makes for it
_MADE_BY_RECORD = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
                   "__delattr__", "_built", "fields", "__match_args__",
                   "__dict__", "__weakref__", "__annotations__"}


@functools.cache
def dataclass_twin(cls):
    """The frozen dataclass of cls's fields, their defaults and the rest of
    cls's namespace (`__post_init__`, classmethods, cached properties)."""
    spec = [(name, cls.__annotations__[name])
            + ((dataclasses.field(default=vars(cls)[name]),)
               if name in vars(cls) else ())
            for name in cls.fields]
    namespace = {key: value for key, value in vars(cls).items()
                 if key not in _MADE_BY_RECORD and key not in cls.fields}
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace,
                                      frozen=True)


def replaced(obj, **changes):
    """A copy of the record obj with `changes`, made by its constructor."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj.fields},
                        **changes})
