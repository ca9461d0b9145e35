"""Hardness-side constructions: gadgets and the CNF reduction.

From a lower bound structure of order d >= 3 we build 10-vertex inequality
and compatibility gadgets out of two list-labeled paths with identified
endpoints, chain them into variable gadgets with exactly two global states,
and translate width-d CNF formulas into list-homomorphism instances whose
cover is the union of the variable gadgets.  Every gadget is certified by
exhaustively enumerating homomorphism restrictions to its designated
vertices; the builders are memoized (bounded), so each gadget is built and
certified once per (target, structure, indices).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .bitset import mask_of
from .errors import CertificationError
from .graphs import Graph, Instance
from .invariants import LowerBoundStructure
from .solver import enumerate_restricted


@dataclass(frozen=True)
class Gadget:
    graph: Graph
    lists: tuple[int, ...]
    u: int
    v: int
    kind: str
    params: tuple[int, ...]

    def instance(self) -> Instance:
        return Instance(self.graph, self.lists)


@dataclass(frozen=True)
class VariableGadget:
    graph: Graph
    lists: tuple[int, ...]
    specials_a: tuple[int, ...]
    specials_abar: tuple[int, ...]

    def instance(self) -> Instance:
        return Instance(self.graph, self.lists)


def _helper_colors(hg: Graph, lbs: LowerBoundStructure) -> tuple[list[int], list[int]]:
    """Per index: a neighbor of x outside N(x'), and a primed-side witness.

    The witness for index l is a common neighbor, inside L, of all base
    vertices except x_l together with x_l'; it is never adjacent to x_l.
    Lowest indices are taken for determinism.
    """
    d = lbs.order
    plain, primed = [], []
    for ell in range(d):
        inter = lbs.l_mask & hg.adj[lbs.xps[ell]]
        for p in range(d):
            if p != ell:
                inter &= hg.adj[lbs.xs[p]]
        if not inter:
            raise ValueError("structure admits no primed-side witness; "
                             "the supplied lower bound structure is invalid")
        primed.append((inter & -inter).bit_length() - 1)
        diff = hg.adj[lbs.xs[ell]] & ~hg.adj[lbs.xps[ell]]
        if not diff:
            raise ValueError("base and primed vertices are comparable; "
                             "the supplied lower bound structure is invalid")
        plain.append((diff & -diff).bit_length() - 1)
    return plain, primed


def _permuted(lbs: LowerBoundStructure, order: list[int]) -> LowerBoundStructure:
    return LowerBoundStructure(
        lbs.order, lbs.l_mask,
        tuple(lbs.xs[i] for i in order),
        tuple(lbs.xps[i] for i in order))


def _two_path_gadget(hg: Graph, path1: list[tuple[int, int]],
                     path2: list[tuple[int, int]], kind: str,
                     params: tuple[int, ...]) -> Gadget:
    """Join two list-labeled paths at both ends; lists are the given pairs."""
    assert mask_of(path1[0]) == mask_of(path2[0])
    assert mask_of(path1[-1]) == mask_of(path2[-1])
    n1 = len(path1)
    ids1 = list(range(n1))
    ids2 = [0] + list(range(n1, n1 + len(path2) - 2)) + [n1 - 1]
    n = n1 + len(path2) - 2
    edges = [(ids1[i], ids1[i + 1]) for i in range(n1 - 1)]
    edges += [(ids2[i], ids2[i + 1]) for i in range(len(path2) - 1)]
    lists = [0] * n
    for ids, path in ((ids1, path1), (ids2, path2)):
        for vid, pair in zip(ids, path):
            mask = mask_of(pair)
            if lists[vid] and lists[vid] != mask:
                raise ValueError("join points disagree on lists")
            lists[vid] = mask
    return Gadget(Graph.from_edges(n, edges), tuple(lists),
                  u=0, v=n1 - 1, kind=kind, params=params)


def _certify_pair_gadget(hg: Graph, gadget: Gadget,
                         expected: set[tuple[int, int]]) -> None:
    got = enumerate_restricted(gadget.instance(), hg, [gadget.u, gadget.v])
    if got != expected:
        raise CertificationError(
            f"{gadget.kind}{gadget.params}: designated restrictions {sorted(got)} "
            f"differ from required {sorted(expected)}")
    if gadget.graph.n != 10:
        raise CertificationError(f"{gadget.kind}{gadget.params}: "
                                 f"{gadget.graph.n} vertices, expected 10")


@functools.lru_cache(maxsize=128)
def build_neq(hg: Graph, lbs: LowerBoundStructure, i: int) -> Gadget:
    """Inequality gadget between x_i and its primed partner.

    The designated endpoints share the list {x_i, x_i'} and every
    homomorphism maps them to different colors, both orders achievable.
    Indices are permuted so the construction always runs on slot 0; two
    further slots are consumed, hence order >= 3.
    """
    d = lbs.order
    if d < 3:
        raise ValueError("inequality gadgets need a structure of order >= 3")
    if not 0 <= i < d:
        raise ValueError("index out of range")
    order = [i] + [j for j in range(d) if j != i]
    s = _permuted(lbs, order)
    xt, xtp = _helper_colors(hg, s)
    x = s.xs
    xp = s.xps
    path1 = [(xp[0], x[0]), (xtp[0], xtp[1]), (x[1], x[2]),
             (xtp[2], xtp[0]), (x[0], xp[0])]
    path2 = [(x[0], xp[0]), (xt[0], xtp[0]), (x[0], x[1]),
             (xtp[1], xtp[2]), (x[2], x[0]), (xtp[0], xt[0]),
             (xp[0], x[0])]
    gadget = _two_path_gadget(hg, path1, path2, "NEQ", (i,))
    a, b = lbs.xs[i], lbs.xps[i]
    _certify_pair_gadget(hg, gadget, {(a, b), (b, a)})
    return gadget


@functools.lru_cache(maxsize=128)
def build_comp(hg: Graph, lbs: LowerBoundStructure, i: int, j: int) -> Gadget:
    """Compatibility gadget coupling slots i and j.

    Endpoints carry lists {x_i, x_i'} and {x_j, x_j'}; exactly the aligned
    pairs (x_i, x_j) and (x_i', x_j') survive.
    """
    d = lbs.order
    if d < 3:
        raise ValueError("compatibility gadgets need a structure of order >= 3")
    if i == j or not (0 <= i < d and 0 <= j < d):
        raise ValueError("indices must be distinct and in range")
    third = min(t for t in range(d) if t not in (i, j))
    order = [i, j, third] + [t for t in range(d) if t not in (i, j, third)]
    s = _permuted(lbs, order)
    xt, xtp = _helper_colors(hg, s)
    x = s.xs
    xp = s.xps
    path1 = [(x[0], xp[0]), (xtp[1], xtp[0]), (x[2], x[1]),
             (xtp[0], xtp[2]), (x[1], x[0]), (xt[1], xtp[1]),
             (x[1], xp[1])]
    path2 = [(x[0], xp[0]), (xtp[0], xt[0]), (x[2], x[0]),
             (xtp[1], xtp[2]), (x[1], xp[1])]
    gadget = _two_path_gadget(hg, path1, path2, "COMP", (i, j))
    a, ap = lbs.xs[i], lbs.xps[i]
    b, bp = lbs.xs[j], lbs.xps[j]
    _certify_pair_gadget(hg, gadget, {(a, b), (ap, bp)})
    return gadget


@functools.lru_cache(maxsize=16)
def build_variable_gadget(hg: Graph, lbs: LowerBoundStructure) -> VariableGadget:
    """One truth-selector gadget: 2d specials with exactly two global states.

    Specials a_1..a_d and abar_1..abar_d carry lists {x_i, x_i'}; an
    inequality gadget ties each pair (a_i, abar_i) and a compatibility
    gadget chains a_i to a_{i+1}, so either every a_i is x_i (false) or
    every a_i is x_i' (true).
    """
    d = lbs.order
    if d < 3:
        raise ValueError("variable gadgets need a structure of order >= 3")
    n = 2 * d
    edges: list[tuple[int, int]] = []
    lists: list[int] = [0] * n
    for i in range(d):
        pair = mask_of((lbs.xs[i], lbs.xps[i]))
        lists[i] = pair
        lists[d + i] = pair

    def splice(gadget: Gadget, at_u: int, at_v: int) -> None:
        nonlocal n
        mapping = {}
        for w in range(gadget.graph.n):
            if w == gadget.u:
                mapping[w] = at_u
            elif w == gadget.v:
                mapping[w] = at_v
            else:
                mapping[w] = n
                lists.append(gadget.lists[w])
                n += 1
        for a, b in gadget.graph.edges():
            edges.append((mapping[a], mapping[b]))
        assert gadget.lists[gadget.u] == lists[at_u]
        assert gadget.lists[gadget.v] == lists[at_v]

    for i in range(d):
        splice(build_neq(hg, lbs, i), i, d + i)
    for i in range(d - 1):
        splice(build_comp(hg, lbs, i, i + 1), i, i + 1)
    graph = Graph.from_edges(n, edges)
    vg = VariableGadget(graph, tuple(lists),
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
    d = lbs.order
    if d < 3:
        raise ValueError("the reduction needs a structure of order >= 3")
    if nvars < 0:
        raise ValueError(f"variable count must be >= 0, got {nvars}")
    for clause in clauses:
        if len(clause) > d:
            raise ValueError(f"clause wider than {d}: {clause}")
        if any(lit == 0 or abs(lit) > nvars for lit in clause):
            raise ValueError(f"bad literal in clause {clause}")
    if any(not clause for clause in clauses):
        # an empty clause is unsatisfiable outright
        return Instance(Graph.from_edges(1, []), (0,), 0)
    vg = build_variable_gadget(hg, lbs)
    gadget_size = vg.graph.n
    cover_n = gadget_size * nvars
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
    return Instance(Graph(len(adj), tuple(adj)), lists, (1 << cover_n) - 1)
