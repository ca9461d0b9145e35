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

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .bitset import bit_list, iter_bits, mask_of, popcount
from .gf2 import shadow_solution
from .graphs import Graph, common_neighbors, incomparable


@dataclass(frozen=True)
class CStarWitness:
    value: int
    l_mask: int
    s_mask: int


@dataclass(frozen=True)
class LowerBoundStructure:
    order: int
    l_mask: int
    xs: tuple[int, ...]
    xps: tuple[int, ...]


@dataclass(frozen=True)
class NonBiArcWitness:
    walk: tuple[int, int, int, int, int]


def _is_all_essential(hg: Graph, s_mask: int) -> bool:
    w = common_neighbors(hg, s_mask, hg.full_mask)
    m = s_mask
    while m:
        low = m & -m
        m ^= low
        if not (common_neighbors(hg, s_mask ^ low, hg.full_mask) & ~w):
            return False
    return True


def all_essential_sets(hg: Graph, size: int | None = None) -> list[int]:
    """All-essential sets in lexicographic order, optionally filtered by size.

    The family is closed under subsets (a witness for an element survives
    restriction), so a DFS that extends by larger indices enumerates it.
    """
    out: list[int] = []
    cap = hg.n if size is None else size

    def dfs(s_mask: int, start: int, count: int) -> None:
        if size is None or count == size:
            out.append(s_mask)
        if count == cap:
            return
        for v in range(start, hg.n):
            nxt = s_mask | 1 << v
            if _is_all_essential(hg, nxt):
                dfs(nxt, v + 1, count + 1)

    dfs(0, 0, 0)
    return out


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
    best = 0
    best_mask = 0
    for s_mask in all_essential_sets(hg):
        if popcount(s_mask) > best:
            best = popcount(s_mask)
            best_mask = s_mask
    return CStarWitness(best, canonical_list_for(hg, best_mask), best_mask)


def verify_c_star_witness(hg: Graph, w: CStarWitness) -> bool:
    if popcount(w.s_mask) != w.value:
        return False
    if common_neighbors(hg, w.s_mask, w.l_mask):
        return False
    for v in iter_bits(w.s_mask):
        if not common_neighbors(hg, w.s_mask ^ (1 << v), w.l_mask):
            return False
    return True


def find_lbs(hg: Graph, d: int) -> LowerBoundStructure | None:
    """Exhaustive search for a lower bound structure of order exactly d.

    The base vertices must form an all-essential set; primed partners are
    found by DFS over positions, tracking the common neighborhood of every
    replacement pattern.  A pattern prefix that already lost all common
    neighbors outside W(base) can never recover, which prunes the search.
    Returns the lexicographically least witness or None.
    """
    if d < 1:
        raise ValueError("order must be at least 1")
    if d > hg.n:
        return None
    for s_mask in all_essential_sets(hg, size=d):
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


def find_non_bi_arc_witness(hg: Graph) -> NonBiArcWitness | None:
    """A 5-walk witnessing NP-hardness (necessary for non-bi-arc targets).

    Vertices need not be distinct: v3 incomparable with both ends, the five
    form a walk, and the two chords v1-v4, v2-v5 are absent.  Presence does
    not decide bi-arc-ness.
    """
    for v1 in range(hg.n):
        for v2 in iter_bits(hg.adj[v1]):
            for v3 in iter_bits(hg.adj[v2]):
                if not incomparable(hg, v1, v3):
                    continue
                for v4 in iter_bits(hg.adj[v3] & ~hg.adj[v1]):
                    for v5 in iter_bits(hg.adj[v4] & ~hg.adj[v2]):
                        if incomparable(hg, v3, v5):
                            return NonBiArcWitness((v1, v2, v3, v4, v5))
    return None


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


def degree_probe(hg: Graph) -> dict:
    """Try to certify synthesis degree d_star for every hardest base set.

    For each all-essential set S0 of size c_star, solve the dominating
    GF(2) system that zeroes the shadow sums of every c_star-set with a
    common neighbor outside W(S0) while flipping the shadow sum of S0.
    Success for all S0 implies every concrete forbid request of width
    c_star admits a degree d_star polynomial.
    """
    c = compute_c_star(hg).value
    d, _ = compute_d_star(hg)
    report: dict = {"c_star": c, "d_star": d, "cases": [], "all_ok": True}
    if c == d or c < 2:
        return report
    for s_mask in all_essential_sets(hg, size=c):
        l_star = hg.full_mask & ~common_neighbors(hg, s_mask, hg.full_mask)
        ok = shadow_solution(hg.n, d, (
            combo for combo in itertools.combinations(range(hg.n), c)
            if common_neighbors(hg, mask_of(combo), l_star)),
            bit_list(s_mask)) is not None
        report["cases"].append({"s0": bit_list(s_mask), "solvable": ok})
        report["all_ok"] &= ok
    return report


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
    from .forbid import special_construction

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
