"""Certified forbidding polynomials.

A request names cover vertices with incomparable candidate lists, a color
tuple S0 on them with no common neighbor in a target list L, and asks for a
GF(2) polynomial that is nonzero on S0 and zero on every tuple that does
have a common neighbor in L.  Tuples in neither class are deliberately
unconstrained.  No constructor returns a polynomial that fails the
contract, and each charges the budget of a scan of its candidate product
(`certify_forbid`).  The plain monomial is correct by construction; every
other polynomial passes `certify_forbid`, which reads one memoized table
per polynomial and target (`_table`) and scans only what it cannot settle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .bitset import bit_list, iter_bits, mask_of, popcount
from .errors import BudgetExceededError, CertificationError
from .graphs import Graph, common_neighbors, is_incomparable_set
from .gf2 import Gf2Poly, poly_local, shadow_solution
from .invariants import (compute_c_star, compute_d_star, cycle_frame,
                         special_construction)

DEFAULT_CERT_BUDGET = 2_000_000


@dataclass(frozen=True)
class ForbidRequest:
    target: Graph
    l_mask: int
    lists: tuple[int, ...]
    verts: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        r = len(self.verts)
        if r < 1:
            raise ValueError("a request needs at least one position")
        if len(self.lists) != r or len(self.colors) != r:
            raise ValueError("lists, verts and colors must have equal length")
        if len(set(self.verts)) != r:
            raise ValueError("vertices must be distinct")
        full = self.target.full_mask
        if self.l_mask & ~full:
            raise ValueError("target list out of range")
        for i, (f, c) in enumerate(zip(self.lists, self.colors)):
            if f & ~full:
                raise ValueError(f"candidate list {i} out of range")
            if not f >> c & 1:
                raise ValueError(f"color {c} not in candidate list {i}")
            if not is_incomparable_set(self.target, f):
                raise ValueError(f"candidate list {i} is not incomparable")
        if common_neighbors(self.target, mask_of(self.colors), self.l_mask):
            raise ValueError("the forbidden tuple has a common neighbor in L")

    @property
    def width(self) -> int:
        return len(self.verts)


@dataclass(frozen=True)
class ForbidResult:
    poly: Gf2Poly
    degree: int
    method: str


def charge(size: int, budget: int) -> None:
    """Raise when a scan of `size` tuples would exceed the budget."""
    if size > budget:
        raise BudgetExceededError(
            f"certification needs {size} evaluations, budget is {budget}")


def certify_forbid(req: ForbidRequest, poly: Gf2Poly,
                   budget: int = DEFAULT_CERT_BUDGET) -> bool:
    """Check the forbidding contract over the candidate product.

    poly must be odd on the forbidden tuple and even on every other tuple
    of the product whose colors are all adjacent to one w in L, which lies
    in N(w)^r.  When all of V(H)^r fits the budget, a polynomial with a
    table (`_table`) passes if the table is odd at the tuple and marks no
    color of L; the product is no larger, so no budget error is hidden.
    Every other request is scanned.  The scan's positions are the request's
    vertices, then the polynomial's stray vertices, which take every color
    of the target; the tuple must be odd under every stray coloring.
    """
    hg = req.target
    entry = hg.n ** req.width <= budget and _table(hg, req.verts, poly)
    if entry and not req.l_mask & entry[1] and entry[0] >> sum(
            c * hg.n ** i for i, c in enumerate(req.colors)) & 1:
        return True
    variables = frozenset().union(*poly.monomials)
    extras = sorted({v for v, _ in variables} - set(req.verts))
    lists = req.lists + (hg.full_mask,) * len(extras)
    strides = []
    size = 1
    for f in lists:
        strides.append(size)
        size *= popcount(f)
    charge(size, budget)
    parity = _transform(poly, variables, req.verts + tuple(extras), lists,
                        strides)
    strays = 1
    for s in strides[req.width:]:
        strays *= _repunit(hg.n, s)
    pinned = strays << sum(_rank(f, c) * s for f, c, s
                           in zip(req.lists, req.colors, strides))
    if parity & pinned != pinned:
        return False
    rest = parity ^ pinned
    return not rest or not any(
        rest & _box(hg.adj[w], req.lists, strides, strays)
        for w in iter_bits(req.l_mask))


def _transform(poly, variables, verts, lists, strides) -> int:
    """The values of poly on the product of lists, one bit per tuple.

    Position i holds verts[i] and adds its color's rank in lists[i] times
    strides[i] to a tuple's bit index, a mixed radix, so the int is no
    longer than the product.  A monomial is 1 on every tuple that extends
    it: its bit is broadcast over each free position by a product with that
    position's repunit, which never carries (a zeta transform).
    """
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
    for i, (f, s) in enumerate(zip(lists, strides)):
        bit = 1 << i
        unfixed = [k for k in groups if not k & bit]
        if unfixed:
            rep = _repunit(popcount(f), s)
            for k in unfixed:
                groups[k | bit] = groups.get(k | bit, 0) ^ groups.pop(k) * rep
    return groups.get((1 << len(lists)) - 1, 0)


def _box(near: int, lists, strides, box: int) -> int:
    """box times the tuples of the product of lists with every color in
    near (one w's neighbors), or 0 when some position has none."""
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


# at most maxsize tables, each no longer than its caller's budget in bits
@functools.lru_cache(maxsize=64)
def _table(target: Graph, verts: tuple[int, ...],
           poly: Gf2Poly) -> tuple[int, int] | None:
    """poly's values on all of V(H)^r (color c at position i adds c * h^i
    to a tuple's bit index) and the mask of colors w where poly is 1
    somewhere on N(w)^r; None when poly has a vertex outside verts."""
    variables = frozenset().union(*poly.monomials)
    if not {v for v, _ in variables} <= set(verts):
        return None
    lists = (target.full_mask,) * len(verts)
    strides = [target.n ** i for i in range(len(verts))]
    values = _transform(poly, variables, verts, lists, strides)
    marked = mask_of(w for w in range(target.n)
                     if values & _box(target.adj[w], lists, strides, 1))
    return values, marked


def _certified(req, poly, degree, method, budget) -> ForbidResult:
    """The result, once poly passes `certify_forbid` on req; else raises.
    The caller states the degree: poly sums `poly_local` blocks of degree
    colors each, every monomial of a block uses all of its colors, so blocks
    on distinct color sets share none and a nonzero sum has that degree."""
    if not certify_forbid(req, poly, budget):
        raise CertificationError(f"{method} construction failed "
                                 f"certification for tuple {req.colors}")
    return ForbidResult(poly, degree, method)


def forbid_monomial(req: ForbidRequest,
                    budget: int = DEFAULT_CERT_BUDGET) -> ForbidResult:
    """The product of the tuple's own variables; degree equals the width.

    Correct by construction, so nothing is scanned: the product is 1 only
    on S0, and the request proves that S0 has no common neighbor in L.  The
    budget still applies to the candidate product a scan would cover.
    """
    charge(math.prod(map(popcount, req.lists)), budget)
    poly = Gf2Poly.product_of_vars(zip(req.verts, req.colors))
    return ForbidResult(poly, req.width, "monomial")


def _cyclic_dist(k: int, u: int, v: int) -> int:
    d = abs(u - v) % k
    return min(d, k - d)


@functools.lru_cache(maxsize=64)
def _cycle_power_poly(k: int, p: int, verts: tuple[int, ...]) -> Gf2Poly:
    """Degree-p construction on the p-th power of a long cycle.

    Sums the exactly-once blocks of the sets {i, j, j+1, ..., j+p-2} over
    anchor pairs (i, j) at cyclic distance 2..2p with j moving away from i.
    Minimal width-(p+1) tuples fire an odd number of blocks; tuples with a
    common neighbor fire an even number.  The sum does not depend on the
    forbidden tuple.
    """
    blocks = []
    for i in range(k):
        for j in range(k):
            dist = _cyclic_dist(k, i, j)
            if not 2 <= dist <= 2 * p:
                continue
            if dist >= _cyclic_dist(k, i, (j + 1) % k):
                continue
            block = {i} | {(j + t) % k for t in range(p - 1)}
            blocks.append(poly_local(block, verts, k))
    return Gf2Poly.sum_of(blocks)


def forbid_linear_system(req: ForbidRequest, target_degree: int,
                         budget: int = DEFAULT_CERT_BUDGET) -> ForbidResult | None:
    """Synthesize a degree-bounded polynomial by solving a GF(2) system.

    Unknowns are coefficients over all target-degree color subsets; each
    achievable width-r set with a common neighbor in L pins its shadow sum
    to 0 and the forbidden set pins its own to 1.  Returns None when the
    system is inconsistent.  Consistency is guaranteed in the regime where
    the width equals both the marking degree and the maximum degree.
    Requests no wider than the target degree need no system at all and
    fall back to the plain monomial.
    """
    r = req.width
    if target_degree < 1:
        raise ValueError("target degree must be positive")
    if r <= target_degree:
        return forbid_monomial(req, budget)
    if r != target_degree + 1:
        raise ValueError("width exceeds target degree + 1")
    if len(set(req.colors)) != r:
        raise ValueError("tuple colors must be distinct")
    hg = req.target
    union = functools.reduce(int.__or__, req.lists)
    sets = shadow_solution(hg.n, target_degree, (
        combo for combo in itertools.combinations(bit_list(union), r)
        if common_neighbors(hg, mask_of(combo), req.l_mask)
        and _achievable(req.lists, combo)), req.colors)
    if sets is None:
        return None
    poly = Gf2Poly.sum_of(poly_local(s, req.verts, hg.n) for s in sets)
    return _certified(req, poly, target_degree, "linear-system", budget)


def _achievable(lists: tuple[int, ...], combo) -> bool:
    """Can the color set be placed on the positions respecting all lists?"""
    for perm in itertools.permutations(combo):
        if all(lists[i] >> c & 1 for i, c in enumerate(perm)):
            return True
    return False


def minimal_subrequest(req: ForbidRequest) -> ForbidRequest:
    """Shrink to a minimal no-common-neighbor subsequence (high positions first)."""
    adj = req.target.adj
    kept = list(range(req.width))
    for pos in reversed(range(req.width)):
        if len(kept) == 1:
            break
        trial = [i for i in kept if i != pos]
        common = req.l_mask
        for i in trial:
            common &= adj[req.colors[i]]
        if not common:
            kept = trial
    if len(kept) == req.width:
        return req
    return ForbidRequest(
        req.target, req.l_mask,
        tuple(req.lists[i] for i in kept),
        tuple(req.verts[i] for i in kept),
        tuple(req.colors[i] for i in kept))


def forbid_route(hg: Graph, cycle_power: tuple[int, int] | None,
                 width: int) -> str | None:
    """The route of a minimal request (its colors distinct) of this width:
    "cycle-power" (width p + 1), "c6" (width 3) or "linear-system" (width
    d_star + 1 >= 2), each of which reads L, else None: the plain monomial.
    A minimal request has width <= c_star <= d_star + 1, so the linear
    system can only apply at width c_star, the one width that reads d_star.
    """
    route = special_construction(hg, cycle_power)
    if route == "c6" and width <= 3:
        return route if width == 3 else None
    if route == "cycle-power" and width == cycle_power[1] + 1:
        return route
    c = compute_c_star(hg).value
    return ("linear-system" if 2 <= width == c
            and compute_d_star(hg)[0] == c - 1 else None)


def construct(req: ForbidRequest, route: str | None,
              cycle_power: tuple[int, int] | None,
              budget: int) -> ForbidResult:
    """The certified result of a minimal request on the route that
    `forbid_route` gives its width, or the monomial when its linear system
    fails.  Minimality settles what each route needs of the tuple: its
    colors are distinct, and a triple on the 6-cycle is a parity class of
    the cycle, the one place where the sum of its three exactly-once pair
    blocks fires an odd number of times."""
    if route == "cycle-power":
        k, p = cycle_power
        return _certified(req, _cycle_power_poly(k, p, req.verts), p, route,
                          budget)
    if route == "c6":
        pos = cycle_frame(req.target).index
        poly = Gf2Poly.sum_of(
            poly_local(pair, req.verts, 6)
            for pair in itertools.combinations(sorted(req.colors, key=pos), 2))
        return _certified(req, poly, 2, route, budget)
    if route == "linear-system":
        result = forbid_linear_system(req, req.width - 1, budget)
        if result is not None:
            return result
    return forbid_monomial(req, budget)


def forbid(req: ForbidRequest, cycle_power: tuple[int, int] | None = None,
           budget: int = DEFAULT_CERT_BUDGET) -> ForbidResult:
    """Best certified construction (`construct`) for the minimal
    subsequence, on the route of its width (`forbid_route`)."""
    sub = minimal_subrequest(req)
    return construct(sub, forbid_route(req.target, cycle_power, sub.width),
                     cycle_power, budget)
