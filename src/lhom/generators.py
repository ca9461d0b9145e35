"""Deterministic, seeded generators for target graphs and instances.

Randomness comes from a self-contained splitmix64 stream so that a seed
reproduces the exact same artifact on any platform or version.  Draws use
modular reduction; the bias is negligible for the ranges used here and the
stream is part of the documented output contract.
"""

from __future__ import annotations

from .graphs import Graph, Instance

_MASK64 = (1 << 64) - 1
MAX_EDGES = 1_000_000  # the most edges, or instance vertices, `lhom gen` makes


class SplitMix64:
    """Tiny deterministic 64-bit generator (splitmix64 step function)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("range must be positive")
        return self.next() % n

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num


def cycle_power_edges(k: int, p: int) -> int:
    """The edges of C_k^p: k at each distance up to p, at most K_k's."""
    return min(k * p, k * (k - 1) // 2)


def cover_edges(n: int, k: int) -> int:
    """`gen_instance`'s edge coins: the cover's pairs and its pairs to the rest."""
    return k * (n - k) + k * (k - 1) // 2


def gen_cycle_power(k: int, p: int) -> Graph:
    """The p-th power of the k-cycle: u ~ v iff cyclic distance <= p."""
    if k < 3 or p < 1:
        raise ValueError("need k >= 3 and p >= 1")
    # one edge per vertex and distance up to k // 2, so the work follows the
    # edges; at distance k / 2 each edge comes twice, which changes nothing
    return Graph.from_edges(k, [(u, (u + d) % k) for u in range(k)
                                for d in range(1, min(p, k // 2) + 1)])


def gen_subdivided_star(r: int) -> Graph:
    """An r-leaf star with every edge subdivided twice: 3r + 1 vertices."""
    if r < 1:
        raise ValueError("need at least one leaf")
    edges = []
    for i in range(r):
        a, b, c = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        edges += [(0, a), (a, b), (b, c)]
    return Graph.from_edges(3 * r + 1, edges)


def gen_instance(hg: Graph, n: int, k: int, seed: int,
                 mode: str = "random") -> Instance:
    """Instance with a planted cover 0..k-1 and an independent outside.

    Edges inside the cover and between cover and outside appear with
    probability 1/2 each; every list is a uniform nonempty color subset.
    In planted-yes mode a homomorphism is drawn first and only compatible
    edges and list entries are kept, so the instance is satisfiable by
    construction.
    """
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
