"""Target-graph invariants that govern kernel sizes.

The two central quantities are the marking degree c_star (largest minimal
set without a common neighbor in some list) and the lower-bound order
d_star (largest order of a lower bound structure).  Both searches run over
"all-essential" sets: S such that removing any element strictly enlarges
the common neighborhood.  S is all-essential exactly when some list L
makes S a minimal set without a common neighbor in L, and a canonical such
L can be read off the neighborhood differences, so the doubly exponential
(L, S) enumeration is never needed.  The same reduction applies to the
lower bound structure search, whose base set must itself be all-essential.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .bitset import bit_list, iter_bits, mask_of
from .generators import cycle_power_edges, gen_cycle_power
from .gf2 import shadow_solution
from .graphs import Graph, common_neighbors, incomparable, record


@record
class CStarWitness:
    value: int
    l_mask: int
    s_mask: int


@record
class LowerBoundStructure:
    order: int
    l_mask: int
    xs: tuple[int, ...]
    xps: tuple[int, ...]


@lru_cache(maxsize=256)
def all_essential_sets(hg: Graph) -> tuple[int, ...]:
    """All-essential sets in lexicographic order, enumerated once per target.

    The family is closed under subsets (a witness for an element survives
    restriction), so a DFS that extends by larger indices enumerates it.
    Each prefix carries its common neighborhood w and, per member, its
    common neighborhood without that member.  Adding v turns these into
    w & N(v) and o & N(v), and v's own leave-one-out neighborhood is w; v
    extends the prefix iff each of them has a color outside w & N(v).
    Callers keep the sets of one size by bit count, in the same order.
    """
    out: list[int] = []
    adj = hg.adj

    def dfs(s_mask: int, start: int, w: int, outs: list[int]) -> None:
        out.append(s_mask)
        for v in range(start, hg.n):
            nxt = w & adj[v]
            grown = [o & adj[v] for o in outs] + [w]
            if all(o & ~nxt for o in grown):
                dfs(s_mask | 1 << v, v + 1, nxt, grown)

    dfs(0, 0, hg.full_mask, [])
    return tuple(out)


def canonical_list_for(hg: Graph, s_mask: int) -> int:
    """The union of per-element neighborhood surpluses: a list making S minimal."""
    w = common_neighbors(hg, s_mask, hg.full_mask)
    l_mask = 0
    for v in iter_bits(s_mask):
        l_mask |= common_neighbors(hg, s_mask ^ (1 << v), hg.full_mask) & ~w
    return l_mask


@lru_cache(maxsize=256)
def compute_c_star(hg: Graph) -> CStarWitness:
    """Largest minimal no-common-neighbor set over all lists, with a witness.

    The empty set with the empty list is a degenerate witness of value 0,
    so the result is always defined; looped complete graphs attain 0.
    """
    if hg.n < 1:
        raise ValueError("target graph must have at least one vertex")
    best = max(all_essential_sets(hg), key=int.bit_count)
    return CStarWitness(best.bit_count(), canonical_list_for(hg, best), best)


# Candidate images that one target's automorphism search may try.  Past it
# the generators found so far are kept: they generate a subgroup of Aut(H),
# which is as sound for the orbit skips below, so no answer depends on it.
_AUT_NODE_BUDGET = 100_000


def _image(perm: tuple[int, ...], mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _orbit(mask: int, gens) -> set[int]:
    """The images of a vertex set under the group that gens generate."""
    seen = {mask}
    todo = [mask]
    while todo:
        x = todo.pop()
        for g in gens:
            y = _image(g, x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


@lru_cache(maxsize=256)
def automorphism_generators(hg: Graph) -> tuple[tuple[int, ...], ...]:
    """Generators of Aut(H), each checked to be an automorphism.

    A stabilizer-chain search (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): for i from the last vertex down, fix 0..i-1
    and look for an automorphism mapping i to each vertex v not yet known
    to be in the orbit of i.  The search maps the remaining vertices in an
    order that follows the edges, and a candidate image keeps the degree,
    the loop and the adjacency to every vertex already mapped.  A v with no
    such automorphism rules out its orbit under the generators that fix i
    too.  The generators found generate the whole group, or a subgroup
    when _AUT_NODE_BUDGET candidate images have been tried.
    """
    n, adj = hg.n, hg.adj
    sig = [(a.bit_count(), a >> v & 1) for v, a in enumerate(adj)]
    same = [mask_of(u for u in range(n) if sig[u] == sig[v]) for v in range(n)]
    budget = _AUT_NODE_BUDGET
    gens: list[tuple[int, ...]] = []

    def candidates(f: list[int], used: int, order: list[int], pos: int):
        j = order[pos]
        cand = same[j] & ~used
        for a in order[:pos]:
            cand &= adj[f[a]] if adj[j] >> a & 1 else ~adj[f[a]]
        return cand

    def extend(f: list[int], used: int, order: list[int], pos: int):
        # one (candidate iterator, used mask) level per position: no recursion
        nonlocal budget
        stack = [(iter_bits(candidates(f, used, order, pos)), used)]
        while stack:
            cands, used = stack[-1]
            u = next(cands, None)
            if u is None:
                stack.pop()
                pos -= 1
                continue
            if not budget:
                return None
            budget -= 1
            f[order[pos]] = u
            if pos + 1 < n:
                pos, used = pos + 1, used | 1 << u
                stack.append((iter_bits(candidates(f, used, order, pos)), used))
            elif all(adj[f[v]] == _image(f, adj[v]) for v in range(n)):
                return tuple(f)
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


def _lbs_on_base(hg: Graph, s_mask: int, partners: list[list[int]]
                 ) -> LowerBoundStructure | None:
    xs = bit_list(s_mask)
    d = len(xs)
    outside = hg.full_mask & ~common_neighbors(hg, s_mask, hg.full_mask)

    # pats[m] is the common neighborhood of replacement pattern m (bit i
    # set: position i takes its primed partner) over the positions so far;
    # a nonzero pattern keeps only its part outside W(base)
    def dfs(pos: int, pats: list[int], xps: list[int]):
        if pos == d:
            return LowerBoundStructure(d, reduce(int.__or__, pats[1:], 0),
                                       tuple(xs), tuple(xps))
        plain = [w & hg.adj[xs[pos]] for w in pats]
        if not all(plain[1:]):
            return None
        w0 = pats[0] & outside
        for xp in partners[xs[pos]]:
            n_primed = hg.adj[xp]
            if not w0 & n_primed:
                continue
            primed = [w & n_primed for w in pats]
            primed[0] &= outside
            if all(primed):
                res = dfs(pos + 1, plain + primed, xps + [xp])
                if res is not None:
                    return res
        return None

    return dfs(0, [hg.full_mask], [])


def find_lbs(hg: Graph, d: int) -> LowerBoundStructure | None:
    """Exhaustive search for a lower bound structure of order exactly d.

    The base vertices must form an all-essential set; primed partners are
    found by DFS over positions, tracking the common neighborhood of every
    replacement pattern.  Every nonzero pattern needs a common neighbor
    outside W(base) at the end and its neighborhood only shrinks, so a
    pattern prefix without one is dropped at once.  An automorphism of H
    maps a structure on one base set to one on its image, so once a base
    set fails its whole orbit under `automorphism_generators` is skipped.
    Base sets are tried in lexicographic order and partners in index
    order, so the result is the lexicographically least witness, or None.
    """
    if d < 1:
        raise ValueError("order must be at least 1")
    if d > hg.n:
        return None
    gens = automorphism_generators(hg)
    partners = [[u for u in range(hg.n) if incomparable(hg, x, u)]
                for x in range(hg.n)]
    failed: set[int] = set()
    for s_mask in all_essential_sets(hg):
        if s_mask.bit_count() != d or s_mask in failed:
            continue
        found = _lbs_on_base(hg, s_mask, partners)
        if found is not None:
            return found
        failed |= _orbit(s_mask, gens)
    return None


@lru_cache(maxsize=256)
def compute_d_star(hg: Graph) -> tuple[int, LowerBoundStructure | None]:
    """Largest order of a lower bound structure, with a witness.

    Only the orders c_star and c_star - 1 are tried; the two quantities can
    never be further apart, so a miss on both with c_star > 1 indicates a
    bug and raises.
    """
    c = compute_c_star(hg).value
    for d in (c, c - 1):
        if d >= 1:
            lbs = find_lbs(hg, d)
            if lbs is not None:
                return d, lbs
    if c > 1:
        raise RuntimeError(
            "no lower bound structure of order c_star or c_star - 1; "
            "this contradicts the bracketing of the two invariants")
    return 0, None


def find_non_bi_arc_witness(hg: Graph) -> tuple[int, int, int, int, int] | None:
    """A 5-walk (v1, ..., v5) witnessing NP-hardness, or None.

    Necessary for non-bi-arc targets.  Vertices need not be distinct: v3
    incomparable with both ends, the five form a walk, and the two chords
    v1-v4, v2-v5 are absent.  Presence does not decide bi-arc-ness.
    """
    for v1 in range(hg.n):
        for v2 in iter_bits(hg.adj[v1]):
            for v3 in iter_bits(hg.adj[v2]):
                if not incomparable(hg, v1, v3):
                    continue
                for v4 in iter_bits(hg.adj[v3] & ~hg.adj[v1]):
                    for v5 in iter_bits(hg.adj[v4] & ~hg.adj[v2]):
                        if incomparable(hg, v3, v5):
                            return v1, v2, v3, v4, v5
    return None


def degree_probe(hg: Graph) -> dict:
    """Try to certify synthesis degree d_star for every hardest base set.

    For each all-essential set S0 of size c_star, solve the dominating
    GF(2) system that zeroes the shadow sum of every c_star-subset of N(w),
    for each w outside W(S0), while flipping the shadow sum of S0.
    Success for all S0 implies every concrete forbid request of width
    c_star admits a degree d_star polynomial.  An automorphism of H maps
    the system of S0 onto that of its image, so one verdict serves the
    orbit of S0 under `automorphism_generators`.
    """
    c = compute_c_star(hg).value
    d, _ = compute_d_star(hg)
    report: dict = {"c_star": c, "d_star": d, "cases": [], "all_ok": True}
    if c == d or c < 2:
        return report
    gens = automorphism_generators(hg)
    verdicts: dict[int, bool] = {}
    for s_mask in all_essential_sets(hg):
        if s_mask.bit_count() != c:
            continue
        ok = verdicts.get(s_mask)
        if ok is None:
            l_star = hg.full_mask & ~common_neighbors(hg, s_mask, hg.full_mask)
            ok = shadow_solution(d, map(hg.adj.__getitem__, iter_bits(l_star)),
                                 bit_list(s_mask)) is not None
            verdicts.update(dict.fromkeys(_orbit(s_mask, gens), ok))
        report["cases"].append({"s0": bit_list(s_mask), "solvable": ok})
        report["all_ok"] &= ok
    return report


def cycle_frame(g: Graph) -> tuple[int, ...] | None:
    """Cyclic vertex order when g is a single loopless cycle, else None."""
    if g.n < 3 or any(g.degree(v) != 2 or g.adj[v] >> v & 1 for v in range(g.n)):
        return None
    frame = [0]
    prev = None
    while True:
        nbrs = [u for u in iter_bits(g.adj[frame[-1]]) if u != prev]
        nxt = nbrs[0]
        if nxt == 0:
            break
        prev = frame[-1]
        frame.append(nxt)
    return tuple(frame) if len(frame) == g.n else None


@lru_cache(maxsize=256)
def _is_cycle_power(g: Graph, k: int, p: int) -> bool:
    # order and edge count first, so a hint naming another graph builds none
    return (g.n == k and g.edge_count() == cycle_power_edges(k, p)
            and g == gen_cycle_power(k, p))


def special_construction(hg: Graph,
                         cycle_power: tuple[int, int] | None) -> str | None:
    """The route for hg: "cycle-power" when the hint (k, p) names hg itself
    with p >= 2 and k > 6p, "c6" when hg is a 6-cycle, else None."""
    if cycle_power is not None:
        k, p = cycle_power
        if p >= 2 and k > 6 * p and _is_cycle_power(hg, k, p):
            return "cycle-power"
    if hg.n == 6 and cycle_frame(hg) is not None:
        return "c6"
    return None


def classify(hg: Graph, cycle_power: tuple[int, int] | None = None) -> dict:
    """Summarize the invariants and the kernel degree this toolkit certifies."""
    cw = compute_c_star(hg)
    d, lbs = compute_d_star(hg)
    delta = hg.max_degree()
    report = {
        "c_star": cw.value,
        "d_star": d,
        "delta": delta,
        "c_equals_d": cw.value == d,
        "bounded_degree_regime": cw.value >= delta,
        "lower_bound_exponent": d,
        "c_star_witness": {"l": bit_list(cw.l_mask), "s": bit_list(cw.s_mask)},
        "d_star_witness": None if lbs is None else {
            "l": bit_list(lbs.l_mask), "xs": list(lbs.xs), "xps": list(lbs.xps)},
    }
    route = special_construction(hg, cycle_power)
    if cw.value == d:
        rec = d, "marking"
    elif route == "cycle-power":
        rec = cycle_power[1], route
    elif route == "c6":
        rec = d, route
    elif cw.value == delta:
        rec = d, "max-degree"
    elif degree_probe(hg)["all_ok"]:
        rec = d, "experiment"
    else:
        rec = cw.value, "marking-fallback"
    # d_star bounds every kernel degree from below, so less is a bug
    if rec[0] < d:
        raise AssertionError(
            f"recommended degree {rec[0]} ({rec[1]}) is below d_star = {d}")
    report["recommended_degree"], report["recommended_by"] = rec
    return report
