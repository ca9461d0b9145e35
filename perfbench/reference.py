"""Reference answers computed without the program's own algorithms.

Everything the benchmark compares the program against is derived here from
first principles: a list-homomorphism decider that enumerates colorings of
the designated vertex cover, a DPLL satisfiability check, an enumeration of
all-essential color sets, restriction sets of small gadgets by brute force
and GF(2) polynomial evaluation.  Graphs are plain lists of neighbor bit
masks, so the checks share no code with the package under test.
"""

from __future__ import annotations

import itertools

# (c_star, d_star) per target, the invariant table of the paper's targets.
INVARIANTS = {"C5": (2, 2), "C6": (3, 2), "C13^2": (3, 2), "C19^3": (4, 3),
              "K4": (4, 3)}


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cycle_power_adj(k: int, p: int) -> list[int]:
    """Neighbor masks of the p-th power of the k-cycle."""
    adj = [0] * k
    for u in range(k):
        for v in range(k):
            d = abs(u - v) % k
            if u != v and min(d, k - d) <= p:
                adj[u] |= 1 << v
    return adj


def common_nbrs(hadj: list[int], colors, l_mask: int) -> int:
    w = l_mask
    for c in colors:
        w &= hadj[c]
    return w


def parse_instance_text(text: str) -> tuple[list[int], list[int], int]:
    """Adjacency masks, list masks and cover mask of an instance file."""
    adj: list[int] = []
    lists: list[int] = []
    cover = 0
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] in ("c", "#"):
            continue
        if fields[0] == "p":
            n = int(fields[2])
            adj, lists = [0] * n, [0] * n
        elif fields[0] == "e":
            u, v = int(fields[1]), int(fields[2])
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        elif fields[0] == "l":
            vals = [int(x) for x in fields[1:]]
            for c in vals[1:]:
                lists[vals[0]] |= 1 << c
        elif fields[0] == "x":
            for v in fields[1:]:
                cover |= 1 << int(v)
        else:
            raise ValueError(f"unknown line type {fields[0]!r}")
    return adj, lists, cover


def list_hom(adj: list[int], lists: list[int], cover: int,
             hadj: list[int]) -> list[int] | None:
    """A list homomorphism, or None: cover colorings, then each outside vertex.

    Outside vertices form an independent set, so one is colorable iff its
    list meets the common neighborhood of its neighbors' images.  Each is
    checked as soon as its last cover neighbor is colored, grouped by
    (neighborhood, list) type.
    """
    n = len(adj)
    cover_vs = bits(cover)
    pos = {v: i for i, v in enumerate(cover_vs)}
    looped = sum(1 << c for c in range(len(hadj)) if hadj[c] >> c & 1)
    groups: list[set] = [set() for _ in cover_vs]
    for v in range(n):
        if cover >> v & 1:
            continue
        if adj[v] & ~cover or adj[v] >> v & 1:
            raise ValueError("the designated cover does not cover every edge")
        if not adj[v]:
            if not lists[v]:
                return None
            continue
        groups[max(pos[u] for u in bits(adj[v]))].add((adj[v], lists[v]))
    groups_list = [[(bits(m), l) for m, l in g] for g in groups]
    phi = [0] * n

    def dfs(i: int) -> bool:
        if i == len(cover_vs):
            return True
        v = cover_vs[i]
        cand = lists[v] & (looped if adj[v] >> v & 1 else -1)
        for u in bits(adj[v] & cover):
            if pos[u] < i:
                cand &= hadj[phi[u]]
        for c in bits(cand):
            phi[v] = c
            if all(common_nbrs(hadj, (phi[u] for u in nbrs), l)
                   for nbrs, l in groups_list[i]) and dfs(i + 1):
                return True
        return False

    if not dfs(0):
        return None
    for v in range(n):
        if not cover >> v & 1:
            allowed = common_nbrs(hadj, (phi[u] for u in bits(adj[v])), lists[v])
            phi[v] = (allowed & -allowed).bit_length() - 1
    return phi


def is_list_hom(adj: list[int], lists: list[int], hadj: list[int],
                colors) -> bool:
    colors = list(colors)
    if len(colors) != len(adj):
        return False
    for v, c in enumerate(colors):
        if not (0 <= c < len(hadj)) or not lists[v] >> c & 1:
            return False
        for u in bits(adj[v]):
            if not hadj[c] >> colors[u] & 1:
                return False
    return True


def sat(nvars: int, clauses: list[list[int]]) -> bool:
    """DPLL with unit propagation."""

    def solve(cls: list[list[int]]) -> bool:
        while True:
            if not cls:
                return True
            unit = next((c[0] for c in cls if len(c) == 1), None)
            if unit is None:
                break
            cls = _assign(cls, unit)
            if cls is None:
                return False
        lit = cls[0][0]
        for choice in (lit, -lit):
            nxt = _assign(cls, choice)
            if nxt is not None and solve(nxt):
                return True
        return False

    return solve([list(c) for c in clauses])


def _assign(cls: list[list[int]], lit: int) -> list[list[int]] | None:
    out = []
    for c in cls:
        if lit in c:
            continue
        reduced = [x for x in c if x != -lit]
        if not reduced:
            return None
        out.append(reduced)
    return out


def all_essential_sets(hadj: list[int], max_size: int) -> list[tuple[int, ...]]:
    """Nonempty color sets in which every element shrinks the common neighborhood."""
    h = len(hadj)
    full = (1 << h) - 1

    def essential(s: tuple[int, ...]) -> bool:
        w = common_nbrs(hadj, s, full)
        return all(common_nbrs(hadj, s[:i] + s[i + 1:], full) & ~w
                   for i in range(len(s)))

    out: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_size):
        frontier = [s + (v,) for s in frontier
                    for v in range(s[-1] + 1 if s else 0, h)
                    if essential(s + (v,))]
        out.extend(frontier)
    return sorted(out)


def surplus_list(hadj: list[int], s: tuple[int, ...]) -> int:
    """Union of what each element alone removes from the common neighborhood."""
    full = (1 << len(hadj)) - 1
    w = common_nbrs(hadj, s, full)
    out = 0
    for i in range(len(s)):
        out |= common_nbrs(hadj, s[:i] + s[i + 1:], full) & ~w
    return out


def restrictions(edges, lists: list[int], hadj: list[int],
                 targets) -> set[tuple[int, ...]]:
    """Restrictions to `targets` of every list homomorphism, by brute force."""
    out = set()
    for colors in itertools.product(*[bits(m) for m in lists]):
        if all(hadj[colors[u]] >> colors[v] & 1 for u, v in edges):
            out.add(tuple(colors[t] for t in targets))
    return out


def poly_value(monomials, colors: dict[int, int]) -> int:
    """GF(2) value of a polynomial in choice variables (vertex, color)."""
    acc = 0
    for mono in monomials:
        if all(colors.get(v) == c for v, c in mono):
            acc ^= 1
    return acc


def tuple_counts(adj: list[int], lists: list[int], cover: int,
                 hadj: list[int], c_star: int,
                 with_minimal: bool = True) -> tuple[int, int]:
    """(forbidden, minimal) constraint counts of the polynomial kernel.

    Forbidden: (outside vertex, neighbor subset of size <= c*, color tuple)
    triples whose colors have no common neighbor in the vertex's list.
    Minimal: those of full width c* whose every proper sub-tuple has one;
    they get a special construction instead of a monomial (0 unless
    with_minimal).  Tuples are enumerated once per neighbor subset and
    grouped by common neighborhoods.
    """
    full = (1 << len(hadj)) - 1
    states: dict[tuple, list] = {}
    forbidden = minimal = 0
    for v in range(len(adj)):
        if cover >> v & 1:
            continue
        nbrs, l_mask = bits(adj[v]), lists[v]
        for r in range(1, min(c_star, len(nbrs)) + 1):
            for combo in itertools.combinations(nbrs, r):
                if combo not in states:
                    counts: dict[tuple, int] = {}
                    for tup in itertools.product(*[bits(lists[u]) for u in combo]):
                        subs = tuple(common_nbrs(hadj, tup[:i] + tup[i + 1:], full)
                                     for i in range(r)) if (
                            with_minimal and r == c_star) else ()
                        key = (common_nbrs(hadj, tup, full), subs)
                        counts[key] = counts.get(key, 0) + 1
                    states[combo] = list(counts.items())
                for (w, subs), n in states[combo]:
                    if not w & l_mask:
                        forbidden += n
                        if subs and all(sub & l_mask for sub in subs):
                            minimal += n
    return forbidden, minimal
