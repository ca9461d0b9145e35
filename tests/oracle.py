"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately naive: literal definition enumeration over
all (list, set) pairs, product-space homomorphism search, truth-table SAT,
evaluation of a forbidding polynomial on every tuple, plain backtracking
over a cover.  None of it shares code paths with the library
implementations it checks.  The witness checks `verify_c_star_witness` and
`verify_lbs`, the exchange check `max_degree_exchange_holds` and the
extension check `extendable` live here because only tests call them;
`extendable_bounded` reaches `extendable`'s answer by a different route.

`reference_search` is the oracle's earlier search, kept as a differential
oracle for `lhom.solver._Search`: it copies the whole candidate list at
every node, rescans every vertex to pick the next one, and counts one node
per assigned vertex or color tried.  It uses nothing from `lhom.solver`.

`reference_kernel_poly` is the polynomial kernel's earlier enumeration,
kept as a differential oracle for `lhom.kernels.kernel_poly`: every
no-common-neighbor tuple of every outside vertex becomes a basis row, with
no minimality check and no de-duplication: it walks every (vertex, subset)
pair, not the kernels' shared first-seen types.  Its rows are `Gf2Poly`
frozensets moved onto the vertices by `remap_vertices`, its polynomials
come from `reference_forbid` and its basis from `reference_extract_basis`.
It reuses the library's `reduce_lists`, `compute_c_star` and the kernels'
`_trivial_no_kernel`, and restricts through `reference_restrict`.

`reference_restrict` is the kernels' `_restrict` as it was before it
worked on adjacency masks: it lists every edge of the input, keeps those
inside the cover, adds the kept outside edges and builds the kernel
through `Graph.from_edges`.

`reference_minimal_tuples` is the kernels' constraint walk as it was
before `lhom.kernels._minimal_tuples` pruned it: the whole
`itertools.product` of the candidate lists, each tuple kept when it has no
common neighbor in L and every leave-one-out tuple has one, read off the
ANDs of a prefix and a suffix of the colors' neighborhoods.

`reference_forbid` is `lhom.forbid.forbid` as it was before certification
by construction and by a per-polynomial table: every polynomial, the plain
monomial included, is certified by `reference_certify_forbid` on its own
request.  That is `certify_forbid` before the table, verbatim: a scan of
the request's own product, which reads no memo.  `reference_forbid`
shrinks the request to its minimal subsequence itself and builds the same
polynomials from the library's blocks (`cycle_frame`, `_cycle_power_poly`,
`poly_local`) and from `reference_linear_system`.

`reference_shadow_solution` is the shadow system as `forbid_linear_system`
and `degree_probe` each built it before `lhom.gf2.shadow_solution`: its own
column index, every row's colors sorted, then the library's
`solve_linear_system` (which `tests/test_gf2.py` checks on its own).
`reference_linear_system` is `forbid_linear_system` on it, and scans
every polynomial it returns, the plain monomial included.
`reference_extract_basis` is `extract_basis` on `Gf2Poly` rows, with a
column per distinct frozenset monomial.

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
"""

from __future__ import annotations

import functools
import itertools
import math

from lhom.bitset import bit_list, iter_bits, mask_of, popcount
from lhom.errors import BudgetExceededError, CertificationError
from lhom.forbid import (DEFAULT_CERT_BUDGET, ForbidRequest, ForbidResult,
                         _cycle_power_poly, cycle_frame)
from lhom.gf2 import Gf2Poly, poly_local, solve_linear_system
from lhom.graphs import (Graph, Instance, common_neighbors, cover_certificate,
                         incomparable, reduce_lists)
from lhom.invariants import (CStarWitness, LowerBoundStructure,
                             _is_cycle_power, all_essential_sets,
                             compute_c_star, compute_d_star)
from lhom.kernels import KernelReport, _trivial_no_kernel


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


def verify_c_star_witness(hg: Graph, w: CStarWitness) -> bool:
    if popcount(w.s_mask) != w.value:
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
        if poly.degree() > d:
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
                             budget: int = DEFAULT_CERT_BUDGET) -> bool:
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
        size *= popcount(f)
    if size > budget:
        raise BudgetExceededError(
            f"certification needs {size} evaluations, budget is {budget}")
    pos = {v: i for i, v in enumerate(req.verts + tuple(extras))}
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
            rep = _repunit(popcount(f), s)
            for k in unfixed:
                groups[k | bit] = groups.get(k | bit, 0) ^ groups.pop(k) * rep
    parity = groups.get((1 << len(lists)) - 1, 0)
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
    for w in iter_bits(req.l_mask):
        box = strays
        for f, s in zip(req.lists, strides):
            near = adj[w] & f
            if not near:
                break
            spread = 0
            for c in iter_bits(near):
                spread |= 1 << _rank(f, c) * s
            box *= spread
        else:
            if rest & box:
                return False
    return True


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
    return ForbidResult(poly, poly.degree(), method)


def reference_forbid(req: ForbidRequest,
                     cycle_power: tuple[int, int] | None = None,
                     budget: int = DEFAULT_CERT_BUDGET) -> ForbidResult:
    """`forbid` with every polynomial scanned on its own request."""
    hg = req.target
    kept = list(range(req.width))  # the minimal subsequence, high first
    for pos in reversed(range(req.width)):
        if len(kept) == 1:
            break
        trial = [i for i in kept if i != pos]
        if not common_neighbors(hg, mask_of(req.colors[i] for i in trial),
                                req.l_mask):
            kept = trial
    sub = req
    if len(kept) < req.width:
        sub = ForbidRequest(hg, req.l_mask,
                            tuple(req.lists[i] for i in kept),
                            tuple(req.verts[i] for i in kept),
                            tuple(req.colors[i] for i in kept))
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
        result = reference_linear_system(sub, d_star, budget)
        if result is not None:
            return result
    return _scan_certified(sub, monomial, "monomial", budget)


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
    sol = solve_linear_system(rows, rhs, len(columns))
    if sol is None:
        return None
    return [columns[j] for j, bit in enumerate(sol) if bit]


def reference_linear_system(req: ForbidRequest, target_degree: int,
                            budget: int = DEFAULT_CERT_BUDGET
                            ) -> ForbidResult | None:
    """`forbid_linear_system` on the reference shadow system."""
    r = req.width
    if target_degree < 1:
        raise ValueError("target degree must be positive")
    if r <= target_degree:
        return _scan_certified(
            req, Gf2Poly.product_of_vars(zip(req.verts, req.colors)),
            "monomial", budget)
    if r != target_degree + 1:
        raise ValueError("width exceeds target degree + 1")
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
    sets = reference_shadow_solution(hg.n, target_degree, zero_sets,
                                     req.colors)
    if sets is None:
        return None
    poly = Gf2Poly.sum_of(poly_local(s, req.verts, hg.n) for s in sets)
    return _scan_certified(req, poly, "linear-system", budget)


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


def reference_find_lbs(hg: Graph, d: int) -> LowerBoundStructure | None:
    """`find_lbs` without automorphisms: every base set searched in full."""
    if d < 1:
        raise ValueError("order must be at least 1")
    if d > hg.n:
        return None
    for s_mask in all_essential_sets(hg):
        if popcount(s_mask) != d:
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
        if popcount(s_mask) != c:
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
                        cache[key] = reference_forbid(req, cycle_power,
                                                      budget).poly
                    polys.append(cache[key].remap_vertices(
                        dict(enumerate(combo))))
                    meta.append(("constr", v, combo))
    degree = max((p.degree() for p in polys), default=1)
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
