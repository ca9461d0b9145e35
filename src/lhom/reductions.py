"""Hardness-side constructions: gadgets and the CNF reduction.

From a lower bound structure of order d >= 3 we build 10-vertex inequality
and compatibility gadgets out of two list-labeled paths with identified
endpoints, chain them into variable gadgets with exactly two global states,
and translate width-d CNF formulas into list-homomorphism instances whose
cover is the union of the variable gadgets.  One join, `_splice`, does all
the gluing: a pair gadget's second path onto the ends of its first, and
pair gadgets onto the specials of a variable gadget.  Every gadget is
certified by exhaustively enumerating homomorphism restrictions to its
designated vertices; the builders are memoized (bounded), so each gadget
is built and certified once per (target, structure, indices).  A reduction
has at most REDUCTION_BUDGET vertices, fixed in the code.
"""

from __future__ import annotations

import functools

from .bitset import mask_of
from .errors import BudgetExceededError, CertificationError
from .graphs import Graph, Instance, record
from .invariants import LowerBoundStructure
from .solver import enumerate_restricted

# the most vertices that `reduce_sat` may build: each gadget's adjacency is
# shifted across the cover, so memory grows with the square of the count;
# on K4, 49,956 vertices peak at 161 MiB, and sat-oracle's largest has 1,156
REDUCTION_BUDGET = 50_000


@record
class Gadget:
    graph: Graph
    lists: tuple[int, ...]
    u: int
    v: int
    kind: str
    params: tuple[int, ...]

    def instance(self) -> Instance:
        return Instance._built(self.graph, self.lists)


@record
class VariableGadget:
    graph: Graph
    lists: tuple[int, ...]
    specials_a: tuple[int, ...]
    specials_abar: tuple[int, ...]

    def instance(self) -> Instance:
        return Instance._built(self.graph, self.lists)


def _order(hg: Graph, lbs: LowerBoundStructure, who: str) -> int:
    """The structure's order d, once it is at least 3 (else the error
    starts with `who`) and the structure is checked against hg: d entries
    in xs and in xps, every color a vertex of hg and L inside V(hg)."""
    d = lbs.order
    if d < 3:
        raise ValueError(f"{who} a structure of order >= 3")
    if len(lbs.xs) != d or len(lbs.xps) != d:
        raise ValueError(f"structure of order {d} has {len(lbs.xs)} xs and "
                         f"{len(lbs.xps)} xps")
    for c in lbs.xs + lbs.xps:
        if not 0 <= c < hg.n:
            raise ValueError(f"structure color {c} is not a vertex of the target")
    if lbs.l_mask & ~hg.full_mask:
        raise ValueError("structure list L is not inside the target's vertices")
    return d


def _slots(hg: Graph, lbs: LowerBoundStructure,
           front: tuple[int, ...]) -> tuple[list[int], ...]:
    """x, x', a plain helper and a primed-side witness per slot, the slots
    in `front` first and the rest ascending.  The plain helper is a neighbor
    of x outside N(x'); the witness for slot l is a common neighbor, inside
    L, of x_l' and every base vertex but x_l, so never adjacent to x_l.
    Lowest colors are taken for determinism.
    """
    order = list(front) + [s for s in range(lbs.order) if s not in front]
    x = [lbs.xs[s] for s in order]
    xp = [lbs.xps[s] for s in order]
    plain, primed = [], []
    for ell in range(len(order)):
        inter = lbs.l_mask & hg.adj[xp[ell]]
        for p, base in enumerate(x):
            if p != ell:
                inter &= hg.adj[base]
        if not inter:
            raise ValueError("structure admits no primed-side witness; "
                             "the supplied lower bound structure is invalid")
        primed.append((inter & -inter).bit_length() - 1)
        diff = hg.adj[x[ell]] & ~hg.adj[xp[ell]]
        if not diff:
            raise ValueError("base and primed vertices are comparable; "
                             "the supplied lower bound structure is invalid")
        plain.append((diff & -diff).bit_length() - 1)
    return x, xp, plain, primed


def _splice(lists: list[int], edges: list[tuple[int, int]], part_lists,
            part_edges, ends: tuple[int, int], at: tuple[int, int]) -> None:
    """Append a part whose end vertices `ends` become the vertices `at`,
    whose lists must agree; its other vertices take the next ids, in order."""
    ids = dict(zip(ends, at))
    for w, mask in enumerate(part_lists):
        if w not in ids:
            ids[w] = len(lists)
            lists.append(mask)
        elif lists[ids[w]] != mask:
            raise ValueError("join points disagree on lists")
    edges += [(ids[a], ids[b]) for a, b in part_edges]


def _pair_gadget(hg: Graph, kind: str, params: tuple[int, ...],
                 path1: list[tuple[int, int]], path2: list[tuple[int, int]],
                 expected: set[tuple[int, int]]) -> Gadget:
    """Splice path 2 onto the ends of path 1, the designated vertices, and
    certify that their restrictions are `expected`, on 10 vertices."""
    v, end = len(path1) - 1, len(path2) - 1
    lists = [mask_of(pair) for pair in path1]
    edges = [(w, w + 1) for w in range(v)]
    _splice(lists, edges, [mask_of(pair) for pair in path2],
            [(w, w + 1) for w in range(end)], (0, end), (0, v))
    gadget = Gadget(Graph.from_edges(len(lists), edges), tuple(lists),
                    u=0, v=v, kind=kind, params=params)
    got = enumerate_restricted(gadget.instance(), hg, [0, v])
    if got != expected:
        raise CertificationError(
            f"{kind}{params}: designated restrictions {sorted(got)} "
            f"differ from required {sorted(expected)}")
    if gadget.graph.n != 10:
        raise CertificationError(f"{kind}{params}: "
                                 f"{gadget.graph.n} vertices, expected 10")
    return gadget


@functools.lru_cache(maxsize=128)
def build_neq(hg: Graph, lbs: LowerBoundStructure, i: int) -> Gadget:
    """Inequality gadget between x_i and its primed partner.

    The designated endpoints share the list {x_i, x_i'} and every
    homomorphism maps them to different colors, both orders achievable.
    Slot i leads so the construction always runs on slot 0; two further
    slots are consumed, hence order >= 3.
    """
    d = _order(hg, lbs, "inequality gadgets need")
    if not 0 <= i < d:
        raise ValueError("index out of range")
    x, xp, xt, xtp = _slots(hg, lbs, (i,))
    path1 = [(xp[0], x[0]), (xtp[0], xtp[1]), (x[1], x[2]),
             (xtp[2], xtp[0]), (x[0], xp[0])]
    path2 = [(x[0], xp[0]), (xt[0], xtp[0]), (x[0], x[1]),
             (xtp[1], xtp[2]), (x[2], x[0]), (xtp[0], xt[0]),
             (xp[0], x[0])]
    return _pair_gadget(hg, "NEQ", (i,), path1, path2,
                        {(x[0], xp[0]), (xp[0], x[0])})


@functools.lru_cache(maxsize=128)
def build_comp(hg: Graph, lbs: LowerBoundStructure, i: int, j: int) -> Gadget:
    """Compatibility gadget coupling slots i and j.

    Endpoints carry lists {x_i, x_i'} and {x_j, x_j'}; exactly the aligned
    pairs (x_i, x_j) and (x_i', x_j') survive.
    """
    d = _order(hg, lbs, "compatibility gadgets need")
    if i == j or not (0 <= i < d and 0 <= j < d):
        raise ValueError("indices must be distinct and in range")
    third = min(t for t in range(d) if t not in (i, j))
    x, xp, xt, xtp = _slots(hg, lbs, (i, j, third))
    path1 = [(x[0], xp[0]), (xtp[1], xtp[0]), (x[2], x[1]),
             (xtp[0], xtp[2]), (x[1], x[0]), (xt[1], xtp[1]),
             (x[1], xp[1])]
    path2 = [(x[0], xp[0]), (xtp[0], xt[0]), (x[2], x[0]),
             (xtp[1], xtp[2]), (x[1], xp[1])]
    return _pair_gadget(hg, "COMP", (i, j), path1, path2,
                        {(x[0], x[1]), (xp[0], xp[1])})


@functools.lru_cache(maxsize=16)
def build_variable_gadget(hg: Graph, lbs: LowerBoundStructure) -> VariableGadget:
    """One truth-selector gadget: 2d specials with exactly two global states.

    Specials a_1..a_d and abar_1..abar_d carry lists {x_i, x_i'}; an
    inequality gadget ties each pair (a_i, abar_i) and a compatibility
    gadget chains a_i to a_{i+1}, so either every a_i is x_i (false) or
    every a_i is x_i' (true).
    """
    d = _order(hg, lbs, "variable gadgets need")
    lists = [mask_of((lbs.xs[i], lbs.xps[i])) for i in range(d)] * 2
    edges: list[tuple[int, int]] = []
    parts = [(build_neq(hg, lbs, i), (i, d + i)) for i in range(d)]
    parts += [(build_comp(hg, lbs, i, i + 1), (i, i + 1)) for i in range(d - 1)]
    for g, at in parts:
        _splice(lists, edges, g.lists, g.graph.edges(), (g.u, g.v), at)
    vg = VariableGadget(Graph.from_edges(len(lists), edges), tuple(lists),
                        tuple(range(d)), tuple(range(d, 2 * d)))
    _certify_variable_gadget(hg, lbs, vg)
    return vg


def variable_gadget_states(lbs: LowerBoundStructure) -> tuple[tuple, tuple]:
    """The two admissible restrictions to (a_1..a_d, abar_1..abar_d)."""
    d = lbs.order
    phi_false = tuple(lbs.xs[i] for i in range(d)) + tuple(lbs.xps)
    phi_true = tuple(lbs.xps[i] for i in range(d)) + tuple(lbs.xs)
    return phi_false, phi_true


def _certify_variable_gadget(hg: Graph, lbs: LowerBoundStructure,
                             vg: VariableGadget) -> None:
    d = lbs.order
    if vg.graph.n != 18 * d - 8:
        raise CertificationError(
            f"variable gadget has {vg.graph.n} vertices, expected {18 * d - 8}")
    targets = list(vg.specials_a) + list(vg.specials_abar)
    got = enumerate_restricted(vg.instance(), hg, targets)
    expected = set(variable_gadget_states(lbs))
    if got != expected:
        raise CertificationError(
            f"variable gadget restrictions {sorted(got)} differ from the "
            f"two admissible states {sorted(expected)}")


def reduce_sat(nvars: int, clauses: list[list[int]], hg: Graph,
               lbs: LowerBoundStructure) -> Instance:
    """Instance equivalent to a CNF with clauses of width at most the order.

    One variable gadget per declared variable; one clause vertex per clause
    with the structure's list, wired to slot j of the gadget of its j-th
    literal (the a side when positive, the abar side when negated).  Narrow
    clauses are padded by repeating their last literal.  The gadget
    vertices form the designated cover.
    """
    d = _order(hg, lbs, "the reduction needs")
    if nvars < 0:
        raise ValueError(f"variable count must be >= 0, got {nvars}")
    for clause in clauses:
        if len(clause) > d:
            raise ValueError(f"clause wider than {d}: {clause}")
        if any(lit == 0 or abs(lit) > nvars for lit in clause):
            raise ValueError(f"bad literal in clause {clause}")
    if any(not clause for clause in clauses):
        # an empty clause is unsatisfiable outright
        return Instance._built(Graph.from_edges(1, []), (0,), 0)
    vg = build_variable_gadget(hg, lbs)
    gadget_size = vg.graph.n
    cover_n = gadget_size * nvars
    n = cover_n + len(clauses)
    if n > REDUCTION_BUDGET:
        raise BudgetExceededError(f"reduction needs {n} vertices, budget is "
                                  f"{REDUCTION_BUDGET}")
    adj = [a << off for off in range(0, cover_n, gadget_size)
           for a in vg.graph.adj]
    adj += [0] * len(clauses)
    for ci, clause in enumerate(clauses):
        cvertex = cover_n + ci
        padded = clause + [clause[-1]] * (d - len(clause))
        for j, lit in enumerate(padded):
            off = (abs(lit) - 1) * gadget_size
            special = off + (vg.specials_a[j] if lit > 0 else vg.specials_abar[j])
            adj[cvertex] |= 1 << special
            adj[special] |= 1 << cvertex
    lists = vg.lists * nvars + (lbs.l_mask,) * len(clauses)
    return Instance._built(Graph._built(len(adj), tuple(adj)), lists,
                           (1 << cover_n) - 1)
