"""Multilinear GF(2) polynomials on choice variables.

A variable is a (vertex, color) pair; on a choice assignment exactly one
color variable per vertex is 1.  In `Gf2Poly` a monomial is the tuple of
its distinct variables by color, then vertex, and a polynomial the
frozenset of monomials with coefficient 1; a tuple is about a third of the
size of a frozenset of the same few pairs.  lhom builds them as monomials
(`product_of_vars`) and sums (`sum_of`, where a monomial met twice
cancels); `poly_local` lists its block's monomials, already in order.  A
polynomial computes the set of its variables once (`variables`).

The elimination routines work on packed rows.  For `extract_basis` a
monomial is an int with one bit per variable (the kernel gives the variable
y[u, c] the bit index(u) * h + c), so its degree is its bit count, and a
row is the list of its monomials.  The basis takes no degree (its caller
reads it off the rows) and numbers its columns from the sparsest rows
first.  `shadow_solution` solves the shadow systems behind forbidding
polynomials.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Mapping, Sequence

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
        keys = sorted(((len(m), sorted(m)) for m in self.monomials))
        terms = []
        for _, pairs in keys:
            if not pairs:
                terms.append("1")
            else:
                terms.append("*".join(f"y[{v},{c}]" for v, c in pairs))
        return " + ".join(terms)


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


def extract_basis(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a streaming GF(2) row basis of the given polynomials.

    Each row is a polynomial given as the list of its monomials, each
    monomial an int with one bit per variable (module docstring); a
    monomial listed twice cancels.  A row is kept iff it is independent of
    the rows before it, so earlier indices are always preferred.  That does
    not depend on how the columns are numbered, so they are numbered from
    the sparsest rows first (a stable sort): a wide row takes the high
    columns, and the pivots of the narrow rows stay narrow.
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
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                break
            row ^= pivots[top]
        if row:
            pivots[row.bit_length() - 1] = row
            kept.append(idx)
    return kept


def solve_linear_system(rows: Sequence[int], rhs: Sequence[int],
                        n_cols: int) -> list[int] | None:
    """One solution of the GF(2) system, or None when inconsistent.

    Rows are column bit masks; free variables are set to 0.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    work = [(row, int(b) & 1) for row, b in zip(rows, rhs)]
    pivots: dict[int, tuple[int, int]] = {}
    for row, b in work:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                break
            prow, pb = pivots[top]
            row ^= prow
            b ^= pb
        if row:
            pivots[row.bit_length() - 1] = (row, b)
        elif b:
            return None
    solution = [0] * n_cols
    # each stored row's pivot is its top bit, so ascending order finalizes
    # every lower column (free or pivot) before it is read
    for col in sorted(pivots):
        row, b = pivots[col]
        acc = b
        rest = row & ~(1 << col)
        while rest:
            low = rest & -rest
            rest ^= low
            acc ^= solution[low.bit_length() - 1]
        solution[col] = acc
    return solution


def shadow_solution(d: int, zero_sets: Iterable[Sequence[int]],
                    one_set: Iterable[int]) -> list[tuple[int, ...]] | None:
    """The d-sets with coefficient 1 in one solution of a shadow system.

    The shadow sum of a color set (the sum of the unknowns over its
    d-subsets) is pinned to 0 for each zero set, which must arrive
    ascending, and to 1 for one_set.  Unknowns are the d-sets that occur in
    a pinned set, in lexicographic order; any other d-set's column would be
    all zero, never a pivot and 0 in the solution.  Returns None when the
    system is inconsistent.
    """
    subsets = [list(itertools.combinations(colors, d))
               for colors in itertools.chain(zero_sets, [sorted(one_set)])]
    bit = {s: 1 << i for i, s in
           enumerate(sorted(set(itertools.chain.from_iterable(subsets))))}
    # the d-subsets of a set are distinct columns, so their sum is their OR
    rows = [sum(map(bit.__getitem__, combos)) for combos in subsets]
    sol = solve_linear_system(rows, [0] * (len(rows) - 1) + [1], len(bit))
    if sol is None:
        return None
    return [s for s, x in zip(bit, sol) if x]
