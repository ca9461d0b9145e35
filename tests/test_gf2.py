import collections
import itertools
import math
import tracemalloc

import pytest

from lhom.forbid import ForbidRequest, _cycle_power_poly, forbid
from lhom.generators import SplitMix64
from lhom.gf2 import Gf2Poly, extract_basis, poly_local, solve_linear_system

from conftest import complete_graph
from oracle import (ONE, packed_rows, poly_degree, poly_eval, poly_mul,
                    reference_block, reference_block_sum,
                    reference_cycle_power_blocks, reference_cycle_power_poly,
                    reference_extract_basis, reference_linear_sets,
                    reference_poly_local, reference_remap,
                    reference_solve_linear_system, reference_str, set_form)


def bool_poly(monomial_sets):
    """Polynomial on 0/1 variables: variable v is the pair (v, 1)."""
    return Gf2Poly(frozenset(frozenset((v, 1) for v in ms)
                             for ms in monomial_sets))


def bool_eval(poly, bits):
    return poly_eval(poly, {v: b for v, b in enumerate(bits)})


def test_add_is_xor():
    p = bool_poly([{0}, {1}])
    q = bool_poly([{1}, {2}])
    assert Gf2Poly.sum_of([p, q]) == bool_poly([{0}, {2}])


def test_mul_is_multilinear():
    y0 = bool_poly([{0}])
    assert poly_mul(y0, y0) == y0
    p = bool_poly([{0}, {1}])
    assert poly_mul(p, p) == bool_poly([{0}, {1}])  # cross terms cancel mod 2


def test_eval_examples():
    p = Gf2Poly.product_of_vars([(0, 0), (1, 1)])
    assert poly_eval(p, {0: 0, 1: 1}) == 1
    assert poly_eval(p, {0: 0, 1: 0}) == 0
    assert poly_eval(Gf2Poly(frozenset()), {0: 0}) == 0
    assert poly_eval(ONE, {}) == 1


def test_eval_unassigned_vertex():
    p = Gf2Poly.product_of_vars([(3, 0)])
    with pytest.raises(ValueError):
        poly_eval(p, {0: 0})


def test_eval_additivity():
    rng = SplitMix64(41)
    for _ in range(50):
        p = bool_poly([{rng.below(5) for _ in range(1 + rng.below(3))}
                       for _ in range(rng.below(4))])
        q = bool_poly([{rng.below(5) for _ in range(1 + rng.below(3))}
                       for _ in range(rng.below(4))])
        bits = [rng.below(2) for _ in range(5)]
        assert bool_eval(Gf2Poly.sum_of([p, q]), bits) == \
            bool_eval(p, bits) ^ bool_eval(q, bits)


def test_poly_local_exactly_once_contract():
    for h in range(2, 6):
        for size in range(0, 3):
            colors = list(range(size))
            verts = list(range(size + 1))
            poly = poly_local(colors, verts, h)
            assert poly_degree(poly) == size
            for assignment in itertools.product(range(h), repeat=size + 1):
                want = int(all(assignment.count(c) == 1 for c in colors))
                got = poly_eval(poly, dict(zip(verts, assignment)))
                assert got == want, (h, colors, assignment)


def test_poly_local_matches_reference_product():
    """The listed block against the product of parity factors, and the
    cycle-power polynomial against the sum of reference blocks."""
    checked = 0
    for h in range(1, 8):
        for size in range(5):
            spread = tuple(3 * i + 1 for i in range(size + 1))
            for colors in itertools.combinations(range(h), size):
                for verts in (tuple(range(size + 1)), spread):
                    assert poly_local(colors, verts, h) == \
                        reference_poly_local(colors, verts), (h, colors, verts)
                    checked += 1
    assert checked == 2 * sum(math.comb(h, s) for h in range(1, 8)
                             for s in range(5))
    for k, p in ((13, 2), (19, 3), (31, 2), (22, 3)):
        blocks = reference_cycle_power_blocks(k, p)
        verts = tuple(range(p + 1))
        want = Gf2Poly.sum_of(reference_poly_local(block, verts)
                              for block in blocks)
        assert len(blocks) == k * (2 * p - 1)
        assert _cycle_power_poly(k, p, verts) == want, (k, p)


def _assert_matches(poly, reference):
    """poly's monomials are the tuples of their distinct variables by color,
    then vertex, and equal reference's frozensets; both print alike."""
    for m in poly.monomials:
        assert type(m) is tuple and len(set(m)) == len(m), m
        assert list(m) == sorted(m, key=lambda var: (var[1], var[0])), m
    assert set_form(poly) == reference
    assert str(poly) == reference_str(reference)


def test_monomials_match_the_frozenset_form():
    """Seeded blocks, products of shuffled and repeated pairs, and their
    sums moved by seeded vertex maps, some not injective, against the
    frozenset form built by the oracle."""
    rng = SplitMix64(4201)
    for _ in range(300):
        h = 1 + rng.below(7)
        colors = _shuffled(rng, range(h))[:rng.below(min(h, 4) + 1)]
        verts = _shuffled(rng, range(9))[:len(colors) + 1]
        block = poly_local(colors, verts, h)
        _assert_matches(block, reference_block(colors, verts))
        pairs = [(rng.below(6), rng.below(h)) for _ in range(rng.below(6))]
        pairs = _shuffled(rng, pairs + pairs[:rng.below(3)])
        product = Gf2Poly.product_of_vars(pairs)
        _assert_matches(product, frozenset({frozenset(pairs)}))
        mapping = {v: rng.below(12) for v in range(9)}
        _assert_matches(
            Gf2Poly.sum_of([block, product]).remap_vertices(mapping),
            reference_remap(reference_block(colors, verts)
                            ^ {frozenset(pairs)}, mapping))


@pytest.mark.parametrize("k, p", [(6, 1), (13, 2), (19, 3), (25, 4)])
def test_cycle_power_poly_matches_the_frozenset_form(k, p):
    """On the vertices 2p + 2, 2p, ..., 2, given descending;
    `test_poly_local_matches_reference_product` takes 0, 1, ..., p."""
    verts = tuple(range(2 * p + 2, 0, -2))
    _assert_matches(_cycle_power_poly.__wrapped__(k, p, verts),
                    reference_cycle_power_poly(k, p, verts))


def test_route_polys_match_the_frozenset_form(c6, c13p2, k4):
    """forbid's c6 and linear-system polynomials against the sums of the
    oracle's frozenset blocks on the same color sets."""
    cases = [(c6, (0, 2, 4), "c6"), (c6, (5, 3, 1), "c6"),
             (c13p2, (0, 1, 2), "linear-system"),
             (k4, (0, 1, 2, 3), "linear-system"),
             (complete_graph(5), (4, 0, 3, 1, 2), "linear-system")]
    for hg, colors, route in cases:
        r = len(colors)
        for verts in (tuple(range(r)), tuple(range(3 * r, 0, -3))):
            req = ForbidRequest(hg, hg.full_mask, (hg.full_mask,) * r, verts,
                                colors)
            res = forbid(req)
            assert res.method == route, (hg, colors)
            sets = (itertools.combinations(colors, 2) if route == "c6"
                    else reference_linear_sets(req))
            _assert_matches(res.poly, reference_block_sum(sets, verts))


def test_callers_polys_are_made_canonical():
    """A caller's Gf2Poly from frozensets, or from tuples in any order,
    equals the library's; a monomial given in two orders cancels, and a
    repeated variable collapses."""
    rng = SplitMix64(4202)
    poly = Gf2Poly.sum_of([poly_local({1, 3, 4}, (7, 2, 5, 0), 6),
                           Gf2Poly.product_of_vars([(9, 5), (2, 0)])])
    assert Gf2Poly(set_form(poly)) == poly
    shuffled = frozenset(tuple(_shuffled(rng, m)) for m in poly.monomials)
    assert shuffled != poly.monomials and Gf2Poly(shuffled) == poly
    assert Gf2Poly([list(m) + list(m[:1]) for m in poly.monomials]) == poly
    kept = Gf2Poly(poly.monomials)
    assert kept.monomials is poly.monomials
    twice = [((0, 2), (1, 1)), ((1, 1), (0, 2)), ((3, 0),)]
    assert Gf2Poly(twice) == Gf2Poly.product_of_vars([(3, 0)])
    assert Gf2Poly([[(4, 1), (4, 1)]]) == Gf2Poly.product_of_vars([(4, 1)])


def test_remap_vertices_cancels_merged_monomials():
    """Vertices 0 and 2 meet on 5: the two monomials that become equal
    cancel, and a variable met twice in one monomial collapses."""
    mapping = {0: 5, 1: 6, 2: 5}
    pair = Gf2Poly.sum_of([Gf2Poly.product_of_vars([(0, 1), (1, 2)]),
                           Gf2Poly.product_of_vars([(2, 1), (1, 2)])])
    assert str(pair) == "y[0,1]*y[1,2] + y[1,2]*y[2,1]"
    assert str(pair.remap_vertices(mapping)) == "0"
    triple = Gf2Poly.product_of_vars([(0, 1), (2, 1), (1, 2)])
    assert triple.remap_vertices(mapping).monomials == {((5, 1), (6, 2))}


def test_cycle_power_poly_memory():
    """C25^4's polynomial holds 109,375 monomials of 4 variables each:
    about 32 MB traced as frozensets, under 20 MiB as tuples."""
    tracemalloc.start()
    try:
        poly = _cycle_power_poly.__wrapped__(25, 4, tuple(range(5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(poly.monomials) == 109_375
    assert peak < 20 << 20, peak


def test_poly_local_empty_set_is_one():
    assert poly_local([], [7], 3) == ONE


def test_poly_local_validates_arity():
    with pytest.raises(ValueError):
        poly_local([0, 1], [0, 1], 5)
    with pytest.raises(ValueError):
        poly_local([0], [2, 2], 5)


def test_extract_basis_duplicate_rows():
    y1, y2, y3 = (bool_poly([{i}]) for i in (1, 2, 3))
    y12, y23, y13 = (Gf2Poly.sum_of(pair) for pair in
                     ((y1, y2), (y2, y3), (y1, y3)))
    assert extract_basis(packed_rows([y1, y1, y12])) == [0, 2]
    assert extract_basis(packed_rows([y12, y23, y13])) == [0, 1]


def test_extract_basis_rank_bound_random():
    rng = SplitMix64(42)
    m, d = 10, 2
    polys = []
    for _ in range(500):
        monos = [{rng.below(m), rng.below(m)} for _ in range(1 + rng.below(3))]
        polys.append(bool_poly(monos))
    kept = extract_basis(packed_rows(polys))
    assert len(kept) <= sum(math.comb(m, i) for i in range(d + 1)) == 56


def test_extract_basis_preserves_solution_set():
    rng = SplitMix64(43)
    for trial in range(15):
        m = 4 + rng.below(5)
        polys = []
        for _ in range(10 + rng.below(20)):
            monos = [{rng.below(m) for _ in range(1 + rng.below(2))}
                     for _ in range(1 + rng.below(3))]
            polys.append(bool_poly(monos))
        kept = set(extract_basis(packed_rows(polys)))
        sub = [p for i, p in enumerate(polys) if i in kept]
        for bits in itertools.product((0, 1), repeat=m):
            all_zero = all(bool_eval(p, bits) == 0 for p in polys)
            sub_zero = all(bool_eval(p, bits) == 0 for p in sub)
            assert all_zero == sub_zero


def _shuffled(rng, items):
    items = list(items)
    for i in reversed(range(1, len(items))):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def test_extract_basis_matches_frozenset_reference():
    """Packed rows against the frozenset basis, whose columns are numbered
    in first-seen order: duplicates, sums, rows above the common degree,
    a wide row ahead of many one-monomial rows, and shuffled row orders.
    The kept indices cannot depend on how the columns are numbered."""
    rng = SplitMix64(45)
    for trial in range(200):
        h = 2 + rng.below(4)
        verts = 2 + rng.below(4)
        d = 1 + rng.below(3)
        polys = []
        for _ in range(5 + rng.below(30)):
            pick = rng.below(6)
            if polys and pick == 0:  # a duplicate row
                polys.append(polys[rng.below(len(polys))])
            elif len(polys) > 1 and pick == 1:  # a dependent row
                polys.append(Gf2Poly.sum_of([polys[rng.below(len(polys))],
                                             polys[rng.below(len(polys))]]))
            else:
                polys.append(Gf2Poly(frozenset(
                    frozenset((rng.below(verts), rng.below(h))
                              for _ in range(1 + rng.below(d)))
                    for _ in range(1 + rng.below(4)))))
        if trial % 10 == 0:  # one row above the others' degree
            polys.insert(rng.below(len(polys) + 1), Gf2Poly.product_of_vars(
                (v, 0) for v in range(d + 1)))
        if trial % 10 == 1:  # a wide row, then one-monomial rows
            wide = Gf2Poly(frozenset(frozenset({(v, c)}) for v in range(verts)
                                     for c in range(h)))
            polys[:0] = [wide] + [Gf2Poly.product_of_vars(
                [(rng.below(verts), rng.below(h))]) for _ in range(3 * h)]
        d = max(map(poly_degree, polys))
        for order in (polys, _shuffled(rng, polys), _shuffled(rng, polys)):
            want = reference_extract_basis(order, m=verts * h, d=d)
            assert extract_basis(packed_rows(order)) == want


def test_extract_basis_memory_follows_the_rank():
    """One row of 20,000 degree-2 monomials, then 3,000 new one-monomial
    rows.  Numbered first-seen, the wide row takes the low columns and
    every later pivot is over 20,000 bits wide (a 10.5 MiB peak); numbered
    from the sparsest rows, the narrow pivots stay under 3,000 bits."""
    wide = [1 << i | 1 << i + 1 for i in range(20_000)]
    rows = [wide] + [[1 << 30_000 + i] for i in range(3_000)]
    tracemalloc.start()
    try:
        kept = extract_basis(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == list(range(3_001))
    assert peak < 4 << 20


def test_solve_linear_system_basic():
    sol = solve_linear_system([0b11], [0], 2)
    assert sol is not None and (sol[0] + sol[1]) % 2 == 0
    assert solve_linear_system([0b01, 0b01], [0, 1], 2) is None


def test_solve_linear_system_random_consistency():
    rng = SplitMix64(44)
    for _ in range(60):
        n = 2 + rng.below(8)
        planted = [rng.below(2) for _ in range(n)]
        rows, rhs = [], []
        for _ in range(rng.below(12)):
            row = rng.below(1 << n)
            rows.append(row)
            rhs.append(bin(row & sum(b << i for i, b in enumerate(planted))).count("1") % 2)
        sol = solve_linear_system(rows, rhs, n)
        assert sol is not None
        for row, b in zip(rows, rhs):
            acc = 0
            for i in range(n):
                if row >> i & 1:
                    acc ^= sol[i]
            assert acc == b


def test_solve_linear_system_matches_the_reference():
    """The solver against `oracle.reference_solve_linear_system` on 2,400
    seeded systems of 0-14 columns and 0-18 rows, drawn from a small pool
    with a zero row and a sum of two others, so rows repeat and depend.
    Two thirds are planted consistent; the rest have random right-hand
    sides, as bools on some and as ints whose bit 0 counts on others.
    n_cols runs from two below the widest row's width to three above it:
    where the reference's solution list is too short (IndexError), the
    solver raises ValueError."""
    rng = SplitMix64(4401)
    outcomes = collections.Counter()
    for trial in range(2400):
        width = rng.below(15)
        pool = [rng.below(1 << width) for _ in range(1 + rng.below(5))]
        pool += [0, pool[0] ^ pool[-1]]
        rows = [pool[rng.below(len(pool))] for _ in range(rng.below(19))]
        if trial % 3:
            planted = rng.below(1 << width)
            rhs = [(row & planted).bit_count() & 1 for row in rows]
        else:
            rhs = [rng.below(2) for _ in rows]
        if trial % 4 == 1:
            rhs = [bool(b) for b in rhs]
        elif trial % 4 == 2:
            rhs = [b + 2 * rng.below(3) for b in rhs]
        n_cols = max(0, width - 2 + rng.below(6))
        try:
            want = reference_solve_linear_system(rows, rhs, n_cols)
        except IndexError:
            with pytest.raises(ValueError, match="reaches column n_cols"):
                solve_linear_system(rows, rhs, n_cols)
            outcomes["raised"] += 1
            continue
        got = solve_linear_system(rows, rhs, n_cols)
        assert got == want, (rows, rhs, n_cols)
        outcomes["inconsistent" if got is None else "solved"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_variables_are_computed_once():
    """`variables` is the union of the monomials, kept on the instance
    outside the record's fields: eq, hash and repr ignore it."""
    poly = Gf2Poly.sum_of([poly_local({0, 2}, (4, 7, 8), 6),
                           Gf2Poly.product_of_vars([(9, 5)])])
    fresh = Gf2Poly(poly.monomials)
    assert poly.variables == {(v, c) for v in (4, 7, 8) for c in (0, 2)} | {(9, 5)}
    assert poly.variables is poly.variables
    assert poly.fields == ("monomials",)
    assert poly == fresh and hash(poly) == hash(fresh)
    assert repr(poly) == repr(fresh) and "variables" not in repr(poly)
    assert Gf2Poly(frozenset()).variables == frozenset()


def test_poly_str_canonical():
    p = bool_poly([{1, 0}, set()])
    assert str(p) == "1 + y[0,1]*y[1,1]"
    assert str(Gf2Poly(frozenset())) == "0"


@pytest.mark.parametrize("call, message", [
    (lambda: solve_linear_system([1], [], 1), "row/rhs length mismatch"),
    (lambda: solve_linear_system([0b101, 0b1], [1, 0], 2),
     "a row reaches column n_cols"),
    (lambda: poly_local([6], (0, 1), 6), "color out of range"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
