"""Multilinear GF(2) polynomials on choice variables.

A variable is a (vertex, color) pair; on a choice assignment exactly one
color variable per vertex is 1.  In `Gf2Poly` a monomial is the tuple of
its distinct variables by color, then vertex, and a polynomial the
frozenset of monomials with coefficient 1; a tuple is about a third of the
size of a frozenset of the same few pairs.  lhom builds them as monomials
(`product_of_vars`) and sums (`sum_of`, where a monomial met twice
cancels); `poly_local` lists its block's monomials, already in order.  A
polynomial computes the set of its variables once (`variables`).

The elimination routines work on packed rows and share one reduction step
(`_reduce`: XOR in the pivot of the row's top bit while there is one).
For `extract_basis` a monomial is an int with one bit per variable (the
kernel gives the variable y[u, c] the bit index(u) * h + c), so its degree
is its bit count, and a row is the list of its monomials.  The basis takes
no degree (its caller reads it off the rows) and numbers its columns from
the sparsest rows first.  `solve_linear_system` reduces each row shifted up
one bit, its right-hand side as bit 0; `shadow_solution` solves with it the
shadow systems behind forbidding polynomials, read off N(w) for w in L.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Mapping, Sequence

from .bitset import bit_list
from .graphs import record

Var = tuple[int, int]


def _monomial(pairs: Iterable[Var]) -> tuple[Var, ...]:
    """The distinct variables by color, then vertex."""
    return tuple(sorted(set(pairs), key=operator.itemgetter(1, 0)))


@record
class Gf2Poly:
    """Gf2Poly(monomials) takes iterables of variables: a repeated one
    collapses (y * y = y), a monomial met twice cancels, and each becomes
    its tuple by color, then vertex; lhom's builders, canonical already,
    skip it through `_built`."""

    monomials: frozenset

    def __post_init__(self) -> None:
        acc: set = set()
        for m in self.monomials:
            acc ^= {_monomial(m)}
        if acc != self.monomials:  # else keep the caller's frozenset
            self.__dict__["monomials"] = frozenset(acc)

    @classmethod
    def product_of_vars(cls, pairs: Iterable[Var]) -> "Gf2Poly":
        return cls._built(frozenset({_monomial(pairs)}))

    @classmethod
    def sum_of(cls, polys: Iterable["Gf2Poly"]) -> "Gf2Poly":
        acc: set = set()
        for p in polys:
            acc ^= p.monomials
        return cls._built(frozenset(acc))

    @functools.cached_property
    def variables(self) -> frozenset:
        """The variables of all monomials, computed once per polynomial."""
        return frozenset().union(*self.monomials)

    def remap_vertices(self, mapping: Mapping[int, int]) -> "Gf2Poly":
        """Checked: where two vertices meet, monomials may cancel."""
        return Gf2Poly([(mapping[v], c) for v, c in m] for m in self.monomials)

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        keys = sorted(map(sorted, self.monomials))
        keys.sort(key=len)  # stable: by degree, then by the sorted pairs
        return " + ".join("*".join(f"y[{v},{c}]" for v, c in pairs) or "1"
                          for pairs in keys)


def poly_local(colors: Iterable[int], verts: Sequence[int], h: int) -> Gf2Poly:
    """Degree-|S| polynomial that is 1 iff each color of S is used once.

    Built as the product over s in S of the parity of s-occurrences among
    the r = |S| + 1 vertices.  All counts odd on r slots forces all counts
    equal to one, which is why r must exceed |S| by exactly one.  Each
    factor's variables carry its own color, so the expansion's monomials
    (one vertex per color) are distinct and none cancels: they are listed
    directly, their colors ascending.  Callers certify every forbidding
    polynomial built from these blocks before returning it.
    """
    s = sorted(set(colors))
    verts = tuple(verts)
    if len(set(verts)) != len(verts):
        raise ValueError("vertices must be distinct")
    if len(verts) != len(s) + 1:
        raise ValueError("vertex count must be |S| + 1")
    if any(c < 0 or c >= h for c in s):
        raise ValueError("color out of range")
    monos = [()]
    for c in s:
        units = [((v, c),) for v in verts]
        monos = [m + u for m in monos for u in units]
    return Gf2Poly._built(frozenset(monos))


def _reduce(row: int, pivots: dict[int, int]) -> int:
    """The row with the pivot of its top bit XORed in while there is one."""
    while row:
        pivot = pivots.get(row.bit_length() - 1)
        if pivot is None:
            break
        row ^= pivot
    return row


def extract_basis(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a streaming GF(2) row basis of the given polynomials.

    Each row is a polynomial given as the list of its monomials, each
    monomial an int with one bit per variable (module docstring); a
    monomial listed twice cancels.  A row is kept iff `_reduce` leaves it
    non-zero against the rows kept before it, so earlier indices are always
    preferred.  That does not depend on how the columns are numbered, so
    they are numbered from the sparsest rows first (a stable sort): a wide
    row takes the high columns, and the pivots of the narrow rows stay
    narrow.
    """
    col_index: dict[int, int] = {}
    for mono in itertools.chain.from_iterable(sorted(rows, key=len)):
        col_index.setdefault(mono, len(col_index))
    pivots: dict[int, int] = {}
    kept: list[int] = []
    for idx, monos in enumerate(rows):
        row = 0
        for mono in monos:
            row ^= 1 << col_index[mono]
        row = _reduce(row, pivots)
        if row:
            pivots[row.bit_length() - 1] = row
            kept.append(idx)
    return kept


def solve_linear_system(rows: Sequence[int], rhs: Sequence[int],
                        n_cols: int) -> list[int] | None:
    """One solution of the GF(2) system, or None when inconsistent.

    Rows are column bit masks below n_cols (ValueError otherwise); free
    variables are set to 0.  Each row is reduced as `row << 1 | b`, so bit
    0 carries its right-hand side, and one that reduces to exactly 1 reads
    0 = 1.  Each pivot's top bit is its column plus one, so in ascending
    order every lower column (free or pivot) is set before it is read.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    pivots: dict[int, int] = {}
    for row, b in zip(rows, rhs):
        row = _reduce(row << 1 | int(b) & 1, pivots)
        if row == 1:
            return None
        if row:
            pivots[row.bit_length() - 1] = row
    if max(pivots, default=0) > n_cols:
        raise ValueError("a row reaches column n_cols")
    values = 1  # bit 0 is the constant 1 that each pivot's b multiplies
    for top in sorted(pivots):
        values |= ((pivots[top] & values).bit_count() & 1) << top
    return [values >> col & 1 for col in range(1, n_cols + 1)]


def shadow_solution(d: int, nears: Iterable[int], one_set: Iterable[int],
                    keep: Callable | None = None) -> list[tuple] | None:
    """The d-sets with coefficient 1 in one solution of a shadow system.

    The shadow sum of a color set (the sum of the unknowns over its
    d-subsets) is pinned to 1 for one_set, and to 0 for each zero set: the
    |one_set|-subsets of the masks in nears (N(w) for the colors w of L)
    that `keep` accepts, each once, ascending.  Unknowns are the d-sets
    that occur in a pinned set, in lexicographic order; any other d-set's
    column would be all zero, never a pivot and 0 in the solution.
    Returns None when the system is inconsistent.
    """
    one_set = sorted(one_set)
    found = {combo for near in nears
             for combo in itertools.combinations(bit_list(near), len(one_set))}
    zero_sets = sorted(found if keep is None else filter(keep, found))
    subsets = [list(itertools.combinations(colors, d))
               for colors in zero_sets + [one_set]]
    bit = {s: 1 << i for i, s in
           enumerate(sorted(set(itertools.chain.from_iterable(subsets))))}
    # the d-subsets of a set are distinct columns, so their sum is their OR
    rows = [sum(map(bit.__getitem__, combos)) for combos in subsets]
    sol = solve_linear_system(rows, [0] * (len(rows) - 1) + [1], len(bit))
    if sol is None:
        return None
    return [s for s, x in zip(bit, sol) if x]
