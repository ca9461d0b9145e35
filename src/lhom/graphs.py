"""Graphs with optional loops, list instances, and neighborhood set algebra.

Vertices are dense 0-based indices.  Neighbor sets are stored as int bit
masks, so a loop on v shows up as bit v of adj[v] and contributes exactly 1
to the degree.  The same representation serves both the fixed target graph
(whose vertices are "colors") and instance graphs.  A vertex cover is a
mask too; the kernels' parameter k is its bit count.  A graph makes its
neighbor tuples, looped-vertex mask and edge count once.  A caller's
Graph(n, adj) and Instance(graph, lists, cover) are checked; from_edges,
the kernels, reduce_lists, reduce_sat, the gadgets and gen_instance build
valid ones unchecked.  N(a) is inside N(b) iff b is a common neighbor of
N(a), so dominance is read off `common_neighbors`, not tested pair by pair.

`record` makes lhom's ten frozen records (these two, and those of gf2,
forbid, invariants, kernels and reductions) as `dataclass(frozen=True)`
would, without importing `dataclasses` or running generated code, and
gives each the private `_built`, which makes one without its
`__post_init__` check.
"""

from __future__ import annotations

import functools
import operator

from .bitset import bit_list, iter_bits, mask_of


def record(cls):
    """Make cls a frozen record of its annotated fields, in order.

    It gives what `dataclass(frozen=True)` gives: construction by position
    or keyword, a class attribute as the field's default, then
    `self.__post_init__()` when the class has one, looked up per
    construction, with TypeError on a missing or extra argument; the
    dataclass `repr`; `==` on the field tuple between objects of exactly one
    class; `hash` of the field tuple; and AttributeError on setting or
    deleting an attribute.  The field names are `fields` and
    `__match_args__`.  Values live in the instance `__dict__`, where
    `cached_property` keeps its own.  `cls._built(*values)`, for what lhom
    builds valid, takes values by position, omitted trailing ones at their
    defaults, and runs no `__post_init__`.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    row = operator.attrgetter(*names)
    key = row if len(names) > 1 else lambda obj: (row(obj),)
    checked = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            values = {**defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or values.keys() != set(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{cls.__name__}() takes {names}, got "
                                f"{len(args)} by position and {sorted(kwargs)}")
            args = map(values.__getitem__, names)
        self.__dict__.update(zip(names, args))
        if checked:
            self.__post_init__()

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, key(self))) + ")"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _built(cls, *values):
        if len(values) < len(names):
            values += tuple(map(defaults.__getitem__, names[len(values):]))
        obj = object.__new__(cls)
        obj.__dict__.update(zip(names, values))
        return obj

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__,
                   __delattr__):
        setattr(cls, method.__name__, method)
    cls._built = classmethod(_built)
    cls.fields = cls.__match_args__ = names
    return cls


@record
class Graph:
    """Undirected graph, loops allowed; adj[v] is the neighbor mask of v.

    Graph(n, adj) names the first out-of-range neighbor, else the first
    asymmetric pair in vertex order; lhom's builders skip it through `_built`.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        for v, mask in enumerate(self.adj):
            if mask >> self.n:
                raise ValueError(f"neighbor of {v} out of range")
        for v, mask in enumerate(self.adj):
            for u in iter_bits(mask):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if n < 0:
            raise ValueError("adjacency length must equal vertex count")
        return cls._built(n, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max(map(int.bit_count, self.adj), default=0)

    @functools.cached_property
    def nbrs(self) -> tuple[tuple[int, ...], ...]:
        """Ascending loop-free neighbor tuples, made on first use in one walk
        over the bits above each vertex, shifting the mask down past each
        one found; the kernels and the oracle share them."""
        nbrs = [[] for _ in range(self.n)]
        for v, mask in enumerate(self.adj):
            mask >>= v + 1
            u = v
            while mask:
                step = (mask & -mask).bit_length()
                mask >>= step
                u += step
                nbrs[v].append(u)
                nbrs[u].append(v)
        return tuple(map(tuple, nbrs))

    @functools.cached_property
    def loops(self) -> int:
        """Mask of the looped vertices, made on first use."""
        return mask_of(v for v, a in enumerate(self.adj) if a >> v & 1)

    @functools.cached_property
    def _edge_count(self) -> int:
        return (sum(map(int.bit_count, self.adj)) + self.loops.bit_count()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u <= v; a loop appears as (v, v)."""
        return [(v, u) for v, a in enumerate(self.adj)
                for u in bit_list(a >> v << v)]

    def edge_count(self) -> int:
        """Number of edges; a loop on v is bit v of adj[v], counted once."""
        return self._edge_count


def common_neighbors(hg: Graph, s_mask: int, l_mask: int) -> int:
    """Mask of vertices in L adjacent to every vertex of S.

    For S = 0 (empty set) this is L itself.  A looped vertex can be a
    common neighbor of a set containing it.
    """
    w = l_mask  # starting inside L stops as soon as no color of L is left
    m = s_mask
    while m and w:
        low = m & -m
        m ^= low
        w &= hg.adj[low.bit_length() - 1]
    return w


def incomparable(hg: Graph, u: int, v: int) -> bool:
    """True iff neither of N(u), N(v) contains the other."""
    nu, nv = hg.adj[u], hg.adj[v]
    return bool(nu & ~nv) and bool(nv & ~nu)


@functools.lru_cache(maxsize=4096)
def is_incomparable_set(hg: Graph, mask: int) -> bool:
    """True iff each member is the only one dominating it; cached, as a
    request family checks the same (target, list) pairs again and again."""
    return all(common_neighbors(hg, hg.adj[a], mask) == 1 << a
               for a in iter_bits(mask))


@record
class Instance:
    """Input graph with one color list per vertex and an optional cover.

    Lists are masks over the target graph's vertices.  When `cover` is
    present, deleting it from the graph must leave no edge.  Instance(...)
    checks both; lhom's builders skip the check through `_built`, whose
    cover is None when omitted.
    """

    graph: Graph
    lists: tuple[int, ...]
    cover: int | None = None

    def __post_init__(self) -> None:
        if len(self.lists) != self.graph.n:
            raise ValueError("one list per vertex is required")
        if self.cover is not None:
            if self.cover & ~self.graph.full_mask:
                raise ValueError("cover vertex out of range")
            for v in range(self.graph.n):
                if self.cover >> v & 1:
                    continue
                if self.graph.adj[v] & ~self.cover:
                    raise ValueError("designated cover does not cover all edges")


def validate_instance(inst: Instance, hg: Graph) -> None:
    """Check that every list is a subset of the target's vertex set; the
    walk after one OR over all lists names the lowest vertex at fault."""
    if not functools.reduce(operator.or_, inst.lists, 0) & ~hg.full_mask:
        return
    for v, mask in enumerate(inst.lists):
        if mask & ~hg.full_mask:
            raise ValueError(f"list of vertex {v} mentions unknown colors")


def dominant_subset(hg: Graph, mask: int) -> int:
    """Drop every member dominated inside the set; the result is incomparable.

    x is dominated by y when N(x) is a subset of N(y); on ties (equal
    neighborhoods) the larger index goes.
    """
    keep = 0
    for x in iter_bits(mask):
        above = common_neighbors(hg, hg.adj[x], mask) ^ 1 << x
        if not any(y < x or hg.adj[y] != hg.adj[x] for y in iter_bits(above)):
            keep |= 1 << x
    return keep


def reduce_lists(inst: Instance, hg: Graph) -> Instance:
    """Shrink every list to an incomparable set by deleting dominated colors.

    Dropping a dominated color never flips the yes/no status: any
    homomorphism using it can switch to a dominating color.  The operation
    is idempotent.
    """
    validate_instance(inst, hg)
    reduced: dict[int, int] = {}  # list mask -> its dominant subset
    for mask in inst.lists:
        if mask not in reduced:
            reduced[mask] = dominant_subset(hg, mask)
    lists = tuple(map(reduced.__getitem__, inst.lists))
    return Instance._built(inst.graph, lists, inst.cover)


def greedy_vertex_cover(g: Graph) -> int:
    """2-approximate cover: looped vertices, then a maximal matching's ends."""
    cover = g.loops
    for v, nbrs in enumerate(g.nbrs):
        for u in nbrs:
            if u > v and not (cover >> v & 1 or cover >> u & 1):
                cover |= 1 << v | 1 << u
    return cover


def cover_certificate(inst: Instance) -> int:
    """The designated cover mask when present, else the greedy one."""
    if inst.cover is not None:
        return inst.cover
    return greedy_vertex_cover(inst.graph)
