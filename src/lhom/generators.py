"""Deterministic, seeded generators for target graphs and instances.

Randomness comes from a self-contained splitmix64 stream so that a seed
reproduces the exact same artifact on any platform or version.  Draws use
modular reduction; the bias is negligible for the ranges used here and the
stream is part of the documented output contract.  `gen_instance` takes its
draws in blocks: draw i of splitmix64 is a mix of state + i * gamma alone,
so one int holds a block's counters in 128-bit lanes, and the mix runs once
over the whole int.  Every output is the one the draws one by one give.
"""

from __future__ import annotations

import struct

from .bitset import bit_list
from .graphs import Graph, Instance

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# 512 lanes keep each lane constant at 8 KiB; 4096 lanes (64 KiB each) ran
# no faster on cli-kernel's instances and raised peak RSS by 0.1-0.15 MB
_LANES = 512
# the lane constants are read from bytes in one linear pass (a sum of
# shifted ints is quadratic in _LANES); _ONES has bit 0 of every lane set
_ONES = int.from_bytes((b"\1" + bytes(15)) * _LANES, "little")
_LOW = _ONES * _MASK64  # the low 64 bits of every lane
_RAMP = int.from_bytes(b"".join(  # lane i holds (i + 1) * gamma mod 2^64
    ((i + 1) * _GAMMA & _MASK64).to_bytes(16, "little") for i in range(_LANES)),
    "little")
_EVEN = bytes.maketrans(bytes(range(256)), b"10" * 128)  # even byte -> "1"
MAX_EDGES = 1_000_000  # the most edges, or instance vertices, `lhom gen` makes


class SplitMix64:
    """Tiny deterministic 64-bit generator (splitmix64 step function)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def _block(self, m: int) -> bytes:
        """The next m <= _LANES outputs, output i little-endian at byte 16i.
        Lane i's product stays below 2^128, and _LOW clears the bits that a
        shift pulls down from the lane above."""
        cut = (1 << 128 * m) - 1
        z = (self.state * (_ONES & cut) + (_RAMP & cut)) & _LOW
        self.state = (self.state + m * _GAMMA) & _MASK64
        z = ((z ^ z >> 30) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
        z = ((z ^ z >> 27) & _LOW) * 0x94D049BB133111EB & _LOW
        return (z ^ z >> 31).to_bytes(16 * m, "little")

    def draws(self, m: int) -> list[int]:
        """The next m outputs of `next`, leaving the state where it would."""
        out = []
        for start in range(0, m, _LANES):
            r = min(_LANES, m - start)
            out += struct.unpack("<" + "Q8x" * r, self._block(r))
        return out

    def coins(self, m: int) -> int:
        """Mask whose bit j is `chance(1, 2)` of the j-th next draw (the draw
        is even), leaving the state where it would; a block at a time."""
        out = bytearray()
        for start in range(0, m, _LANES):
            bits = self._block(min(_LANES, m - start))[::16].translate(_EVEN)
            out += int(bits[::-1], 2).to_bytes(_LANES // 8, "little")
        return int.from_bytes(out, "little")

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
    construction.  It draws n plant colors, then the coins of each cover
    row u (pairs u < v), then n lists, and builds the instance unchecked.
    """
    if not 0 <= k <= n:
        raise ValueError("cover size must be between 0 and n")
    if mode not in ("random", "planted-yes"):
        raise ValueError(f"unknown mode {mode!r}")
    if n and not hg.n:
        raise ValueError("target graph must have at least one vertex")
    rng = SplitMix64(seed)
    h = hg.n
    plant = [d % h for d in rng.draws(n)] if mode == "planted-yes" else None
    adj = [0] * n
    for u in range(k):
        row = rng.coins(n - u - 1) << u + 1
        if plant is not None:  # keep the vertices planted next to u's color
            near = bin(hg.adj[plant[u]])[:1:-1].ljust(h, "0").encode()
            row &= int(bytes(map(near.__getitem__, plant))[::-1], 2)
        adj[u] |= row
        for v in bit_list(row):
            adj[v] |= 1 << u
    lists = [d % ((1 << h) - 1) + 1 for d in rng.draws(n)]
    if plant is not None:
        lists = [mask | 1 << c for mask, c in zip(lists, plant)]
    graph = Graph._built(n, tuple(adj))
    return Instance._built(graph, tuple(lists), (1 << k) - 1)
